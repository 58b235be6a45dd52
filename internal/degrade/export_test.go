package degrade

// The ladder floor no run path sets; the ladder tests impose it.

// Force imposes a floor on the ladder level, holding a stepdown even if
// raw occupancy has already relaxed. No run path imposes one (the
// monitor-driven mode does not call it). The floor clamps to the rung
// range; Force(0) releases it. It returns the resulting level and
// whether the call changed it (the occupancy path can only deepen past
// a floor, never relax below it).
func (l *Ladder) Force(min int) (level int, changed bool) {
	if min < 0 {
		min = 0
	}
	if min > l.MaxLevel() {
		min = l.MaxLevel()
	}
	prev := l.level
	l.forced = min
	if l.level < min {
		l.level = min
	}
	return l.level, l.level != prev
}
