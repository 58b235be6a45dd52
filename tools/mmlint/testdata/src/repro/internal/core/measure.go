// Package core mirrors the measurement engine's file: measure.go may
// start goroutines for its fan-out, but may not read the host clock.
package core

import "time"

// prime fans one measurement out to a worker.
func prime(done chan struct{}) {
	go close(done)
}

// stamp reads the host clock, which no simulator file may do.
func stamp() time.Time {
	return time.Now() // want "time.Now in simulator code"
}
