// Package sched is what remains of the inter-query worker scheduler.
// Plans run serially, so every grant has degree 1 and there is nothing
// to admit, queue or release.
//
// Deprecated: the package is kept only because perfbench, the
// repository benchmark, calls Scheduler.Acquire and Scheduler.Snap.
package sched

// Class is a query's scheduling class.
type Class int

// Interactive is the only class.
const Interactive Class = 0

// Scheduler grants every query the serial degree.
type Scheduler struct{}

// Grant is one query's admitted degree of parallelism.
type Grant struct{}

// Acquire returns a degree-1 grant; desired and class are ignored.
func (s *Scheduler) Acquire(desired int, class Class) *Grant { return &Grant{} }

// Degree is always 1.
func (g *Grant) Degree() int { return 1 }

// Checkpoint is always 1.
func (g *Grant) Checkpoint() int { return 1 }

// Release does nothing.
func (g *Grant) Release() {}

// Snapshot is the scheduler's accounting, always zero.
type Snapshot struct {
	Queries    int
	Granted    int
	Downgrades int64
}

// Snap returns a zero Snapshot.
func (s *Scheduler) Snap() Snapshot { return Snapshot{} }
