// Package dause is non-test code outside internal/ that uses part of the
// dafix fixture's API.
package dause

import "repro/internal/dafix"

// Shape is a module interface *dafix.B implements.
type Shape interface{ Area() float64 }

// Exported lives outside internal/, so deadapi ignores it.
func Exported(shapes []Shape) int {
	dafix.Stale()
	return dafix.Used() + dafix.A{}.State() + len(shapes)
}
