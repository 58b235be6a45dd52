package traffic

// The rate-adaptation readout no run path calls; the VBR tests check
// SetLevel through it.

// Level returns the current rate-adaptation scale (1 = full rate).
func (v *VBRVideo) Level() float64 { return v.scale }
