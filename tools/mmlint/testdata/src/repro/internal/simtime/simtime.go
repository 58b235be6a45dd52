// Package simtime is a fixture stub of repro/internal/simtime. Event
// carries an exported field so violating fixtures can write a non-zero
// composite literal.
package simtime

type Time int64

type Event struct {
	At  Time
	Seq uint64
}

type Ticker struct {
	Period Time
}

func (t *Ticker) Stop()        {}
func (t *Ticker) Reset(d Time) {}

type Scheduler struct{ now Time }

func (s *Scheduler) Now() Time                                  { return s.now }
func (s *Scheduler) At(t Time, fn func())                       {}
func (s *Scheduler) After(d Time, fn func())                    {}
func (s *Scheduler) AfterFIFO(d Time, fn func())                {}
func (s *Scheduler) Every(d Time, fn func()) *Ticker            { return &Ticker{Period: d} }
func (s *Scheduler) EveryNow(d Time, fn func()) *Ticker         { return &Ticker{Period: d} }
func (s *Scheduler) Rearm(t *Ticker, d Time, fn func()) *Ticker { return t }
func (s *Scheduler) Line(d Time) *Line                          { return &Line{d: d} }

type Line struct{ d Time }

func (ln *Line) Post(fn func()) {}

type Rand struct{ state uint64 }

func (r *Rand) Bool(p float64) bool { return false }
func (r *Rand) Intn(n int) int      { return 0 }
func (r *Rand) Float64() float64    { return 0 }
