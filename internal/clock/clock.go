// Package clock abstracts time so that the same profiling and emulation code
// can run against the host's wall clock or against a deterministic simulated
// clock driven by the machine models in internal/machine.
//
// The paper's profiler samples watchers at a fixed rate and its emulator
// replays samples in order; both only need Now, Sleep and After. Sim
// implements those against a virtual timeline: time only advances when a
// driver calls Advance or AdvanceTo, which makes every experiment in this
// repository deterministic and fast regardless of the host it runs on.
package clock

import (
	"container/heap"
	"sync"
	"time"
)

// Clock is the minimal time source used throughout the repository.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Sleep blocks the caller for d of this clock's time.
	Sleep(d time.Duration)
	// After returns a channel that receives the clock's time once d has
	// elapsed. The channel has capacity 1 and is never closed.
	After(d time.Duration) <-chan time.Time
}

// Real is a Clock backed by the operating system's wall clock.
type Real struct{}

// NewReal returns a Clock that uses the host wall clock.
func NewReal() Real { return Real{} }

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// waiter is a goroutine blocked on the simulated timeline.
type waiter struct {
	at time.Time
	ch chan time.Time
	// seq breaks ties so that waiters with equal deadlines fire in the
	// order they were registered.
	seq uint64
}

type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if h[i].at.Equal(h[j].at) {
		return h[i].seq < h[j].seq
	}
	return h[i].at.Before(h[j].at)
}
func (h waiterHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *waiterHeap) Push(x interface{}) { *h = append(*h, x.(*waiter)) }
func (h *waiterHeap) Pop() interface{} {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return w
}

// Sim is a deterministic simulated clock. Construct with NewSim; the zero
// value is not usable. Goroutines may block on Sleep or After; time moves
// only when a driver calls Advance or AdvanceTo, which releases waiters in
// deadline order (FIFO among equal deadlines).
type Sim struct {
	mu      sync.Mutex
	now     time.Time
	waiters waiterHeap
	seq     uint64
}

// NewSim returns a simulated clock whose current time is start.
func NewSim(start time.Time) *Sim {
	return &Sim{now: start}
}

// Now implements Clock.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// After implements Clock. The returned channel fires when the simulated time
// reaches now+d.
func (s *Sim) After(d time.Duration) <-chan time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- s.now
		return ch
	}
	s.seq++
	heap.Push(&s.waiters, &waiter{at: s.now.Add(d), ch: ch, seq: s.seq})
	return ch
}

// Sleep implements Clock. The caller blocks until a driver advances the
// simulated time past the deadline.
func (s *Sim) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ch := s.After(d)
	<-ch
}

// Advance moves the simulated time forward by d, releasing every waiter whose
// deadline is reached, in deadline order.
func (s *Sim) Advance(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceToLocked(s.now.Add(d))
}

// AdvanceTo moves the simulated time to t if t is later than the current
// simulated time.
func (s *Sim) AdvanceTo(t time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceToLocked(t)
}

// Step advances the simulated time just far enough to release the earliest
// waiter, and reports whether a waiter was released. Drivers that interleave
// with sampling goroutines use Step to hand control to exactly one sleeper.
func (s *Sim) Step() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.waiters) == 0 {
		return false
	}
	w := heap.Pop(&s.waiters).(*waiter)
	if w.at.After(s.now) {
		s.now = w.at
	}
	w.ch <- s.now
	return true
}

// advanceToLocked releases waiters up to t and sets now = t.
func (s *Sim) advanceToLocked(t time.Time) {
	if t.Before(s.now) {
		return
	}
	for len(s.waiters) > 0 && !s.waiters[0].at.After(t) {
		w := heap.Pop(&s.waiters).(*waiter)
		if w.at.After(s.now) {
			s.now = w.at
		}
		w.ch <- s.now
	}
	if t.After(s.now) {
		s.now = t
	}
}

// Pending reports how many waiters are currently blocked on the clock.
func (s *Sim) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.waiters)
}

// Elapsed returns the time elapsed on c since start.
func Elapsed(c Clock, start time.Time) time.Duration { return c.Now().Sub(start) }

// AutoSim wraps Sim so that Sleep advances the virtual time immediately
// instead of blocking for a driver. It is the single-goroutine driver mode
// used by the simulated profiler and emulator: one loop sleeps its way along
// the virtual timeline and simulated runs complete in microseconds of wall
// time.
type AutoSim struct{ *Sim }

// NewAutoSim returns an auto-advancing simulated clock starting at start.
func NewAutoSim(start time.Time) AutoSim { return AutoSim{NewSim(start)} }

// Sleep advances the simulated time by d and returns immediately.
func (a AutoSim) Sleep(d time.Duration) {
	if d > 0 {
		a.Advance(d)
	}
}
