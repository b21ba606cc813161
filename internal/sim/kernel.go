// Package sim is a small deterministic discrete-event simulation kernel:
// a virtual clock, an ordered event queue with stable tie-breaking, named
// substream derivation for seeded randomness, and pluggable metrics sinks.
//
// The kernel owns none of the models being simulated — it only decides
// *when* things happen. Callers post pre-bound handlers at virtual times with
// a priority; Run drains the queue one virtual instant at a time, executing
// every event scheduled for that instant in (priority, post-order) order
// before invoking the per-instant hook. That batching is what lets a
// scheduler built on top resolve an instant's decisions (e.g. placements)
// as one parallel batch while the timeline itself stays strictly serial
// and deterministic: the same posts always replay in the same order, at
// any worker count, on any host.
//
// The split mirrors how gem5-style simulators separate the event engine
// from the hardware models: internal/scenario compiles workload mixes and
// clusters *onto* this kernel instead of owning its own ad-hoc event loop.
package sim

import (
	"fmt"
	"time"
)

// Priority orders events scheduled at the same virtual instant: lower
// values run first. Callers define their own priority bands (e.g.
// completions before arrivals before pool mutations); within one band,
// events run in the order they were posted.
type Priority int

// MetricsSink observes the simulation as it advances. Emit delivers typed
// event values to every attached sink, in attach order, stamped with the
// kernel's current virtual time. Sinks run on the kernel's (single)
// timeline goroutine, so they need no locking and see a deterministic
// event sequence. Emitters may reuse one event value across calls (the
// zero-allocation pattern: emit a pointer to a scratch struct), so a sink
// that keeps an event beyond Observe must copy it.
type MetricsSink interface {
	Observe(t time.Duration, ev any)
}

// Handler is a pre-bound, allocation-free event callback: the two integer
// arguments travel inline in the heap entry, so posting one costs no heap
// allocation, where a closure per event would box its captures every time.
// Callers bind a Handler once (typically a method value stored in a struct
// field) and pass per-event state through a and b.
type Handler func(a, b int64)

// entry is one scheduled event: a pre-bound handler with its two argument
// words stored inline.
type entry struct {
	t    time.Duration
	prio Priority
	seq  uint64 // post order; the stable tie-break
	h    Handler
	a, b int64
}

// entryHeap is a hand-rolled binary min-heap on (t, prio, seq), backed by a
// single value slice: entries live inline in one contiguous arena — no
// per-event box on the heap — and popped slots are zeroed and reused by
// subsequent pushes, so a warm kernel posts and pops events without
// touching the allocator at all. The scheduler posts and pops one entry per
// simulated event, so the heap also avoids container/heap's per-operation
// interface boxing.
type entryHeap []entry

func (h entryHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	if h[i].prio != h[j].prio {
		return h[i].prio < h[j].prio
	}
	return h[i].seq < h[j].seq
}

func (h *entryHeap) push(e entry) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *entryHeap) pop() entry {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = entry{} // release the handler
	*h = q[:n]
	q = q[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && q.less(l, min) {
			min = l
		}
		if r < n && q.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	return top
}

// Kernel is the event engine. It is not safe for concurrent use: posts and
// sink callbacks all happen on the goroutine driving Run.
type Kernel struct {
	now     time.Duration
	h       entryHeap
	seq     uint64
	stopped bool
	sinks   []MetricsSink
}

// New returns a kernel with an empty queue at virtual time zero.
func New() *Kernel { return &Kernel{} }

// Now returns the current virtual time: zero before Run, the instant being
// processed during it, and the final instant after it.
func (k *Kernel) Now() time.Duration { return k.now }

// Len returns the number of scheduled events not yet executed.
func (k *Kernel) Len() int { return len(k.h) }

// PostHandler schedules h(a, b) at virtual time t. The handler and both
// argument words are stored inline in the heap entry, so the steady state
// of a scheduler that binds its handlers once (method values kept in struct
// fields) posts events without allocating. Posting into the past is a
// programming error — virtual time never rewinds — and panics. Posting at
// the current instant is allowed and runs before the instant closes.
func (k *Kernel) PostHandler(t time.Duration, prio Priority, h Handler, a, b int64) {
	if t < k.now {
		panic(fmt.Sprintf("sim: post at %v before now %v", t, k.now))
	}
	k.seq++
	k.h.push(entry{t: t, prio: prio, seq: k.seq, h: h, a: a, b: b})
}

// Reserve grows the event heap's backing arena to hold at least n pending
// events without reallocating. Schedulers that know their event population
// up front (e.g. one arrival plus one completion per enumerated instance)
// call it once so the steady state never grows the heap.
func (k *Kernel) Reserve(n int) {
	if cap(k.h) < n {
		h := make(entryHeap, len(k.h), n)
		copy(h, k.h)
		k.h = h
	}
}

// Attach registers a metrics sink. Sinks observe in attach order.
func (k *Kernel) Attach(s MetricsSink) { k.sinks = append(k.sinks, s) }

// Emit delivers ev to every attached sink at the current virtual time.
func (k *Kernel) Emit(ev any) {
	for _, s := range k.sinks {
		s.Observe(k.now, ev)
	}
}

// Stop makes Run return before opening the next instant — the abort path
// when an event handler hits an unrecoverable error. The current instant
// still finishes (events already popped keep their turn).
func (k *Kernel) Stop() { k.stopped = true }

// Run drains the queue: it advances the clock to the earliest scheduled
// instant, executes every event at that instant in (priority, post-order)
// order — including events posted *at* the instant while it is being
// processed — and then calls afterInstant (if non-nil) before moving on.
// Events afterInstant posts at the current instant reopen it. Run returns
// when the queue is empty or Stop is called.
func (k *Kernel) Run(afterInstant func()) {
	for !k.stopped && len(k.h) > 0 {
		now := k.h[0].t
		k.now = now
		for len(k.h) > 0 && k.h[0].t == now {
			e := k.h.pop()
			e.h(e.a, e.b)
		}
		if afterInstant != nil {
			afterInstant()
		}
	}
}
