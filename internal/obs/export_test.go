package obs

// Alert readouts no run path calls; the monitor tests use them as the
// raise/clear oracle.

// Active reports whether the named rule's alert is currently raised.
func (m *Monitor) Active(name string) bool {
	if m == nil {
		return false
	}
	for i := range m.rules {
		if m.rules[i].Name == name {
			return m.rules[i].active
		}
	}
	return false
}

// Raised and Cleared count alert transitions across all rules.
func (m *Monitor) Raised() int {
	n := 0
	if m != nil {
		for i := range m.rules {
			n += m.rules[i].raises
		}
	}
	return n
}

// Cleared counts clear transitions across all rules.
func (m *Monitor) Cleared() int {
	n := 0
	if m != nil {
		for i := range m.rules {
			n += m.rules[i].clears
		}
	}
	return n
}
