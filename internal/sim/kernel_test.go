package sim

import (
	"testing"
	"time"
)

// TestRunOrder: events execute in (time, priority, post-order) order
// regardless of post order.
func TestRunOrder(t *testing.T) {
	k := New()
	var got []int
	rec := Handler(func(id, _ int64) { got = append(got, int(id)) })
	k.PostHandler(2*time.Second, 1, rec, 5, 0)
	k.PostHandler(time.Second, 1, rec, 2, 0)
	k.PostHandler(time.Second, 0, rec, 1, 0)
	k.PostHandler(2*time.Second, 0, rec, 3, 0)
	k.PostHandler(2*time.Second, 0, rec, 4, 0) // same (t, prio): post order breaks the tie
	k.Run(nil)
	want := []int{1, 2, 3, 4, 5}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("execution order = %v, want %v", got, want)
		}
	}
	if k.Now() != 2*time.Second {
		t.Fatalf("final now = %v, want 2s", k.Now())
	}
}

// TestInstantBatching: the per-instant hook runs once per distinct virtual
// time, after every event of that instant — including events posted at the
// current instant mid-processing (a completion chaining an arrival at the
// same time must land in the same batch).
func TestInstantBatching(t *testing.T) {
	k := New()
	var events, instants []time.Duration
	record := Handler(func(_, _ int64) { events = append(events, k.Now()) })
	k.PostHandler(time.Second, 0, func(_, _ int64) {
		events = append(events, k.Now())
		k.PostHandler(time.Second, 1, record, 0, 0) // same instant
	}, 0, 0)
	k.PostHandler(3*time.Second, 0, record, 0, 0)
	k.Run(func() { instants = append(instants, k.Now()) })
	if len(events) != 3 {
		t.Fatalf("events = %v", events)
	}
	if len(instants) != 2 || instants[0] != time.Second || instants[1] != 3*time.Second {
		t.Fatalf("instants = %v, want [1s 3s]", instants)
	}
}

// TestAfterInstantReopens: events the hook posts at the current instant
// reopen it — the hook runs again at the same time before the clock moves.
func TestAfterInstantReopens(t *testing.T) {
	k := New()
	noop := Handler(func(_, _ int64) {})
	k.PostHandler(time.Second, 0, noop, 0, 0)
	hooks := 0
	k.Run(func() {
		hooks++
		if hooks == 1 {
			k.PostHandler(k.Now(), 0, noop, 0, 0) // zero-duration follow-up work
		}
	})
	if hooks != 2 {
		t.Fatalf("hook ran %d times, want 2 (instant reopened)", hooks)
	}
	if k.Now() != time.Second {
		t.Fatalf("now = %v, want 1s", k.Now())
	}
}

func TestPostIntoPastPanics(t *testing.T) {
	k := New()
	k.PostHandler(2*time.Second, 0, func(_, _ int64) {
		defer func() {
			if recover() == nil {
				t.Error("posting into the past did not panic")
			}
		}()
		k.PostHandler(time.Second, 0, func(_, _ int64) {}, 0, 0)
	}, 0, 0)
	k.Run(nil)
}

// TestStop: Stop lets the current instant finish — events already due keep
// their turn and the hook still runs — but Run opens no further instant.
func TestStop(t *testing.T) {
	k := New()
	var got []int
	rec := Handler(func(id, _ int64) { got = append(got, int(id)) })
	k.PostHandler(time.Second, 0, func(_, _ int64) { k.Stop() }, 0, 0)
	k.PostHandler(time.Second, 1, rec, 1, 0) // same instant, after the Stop
	k.PostHandler(2*time.Second, 0, rec, 2, 0)
	hooks := 0
	k.Run(func() { hooks++ })
	if len(got) != 1 || got[0] != 1 || hooks != 1 {
		t.Fatalf("ran %v with %d hooks, want [1] and one hook (the stopped instant finishes)", got, hooks)
	}
	if k.Now() != time.Second || k.Len() != 1 {
		t.Fatalf("now = %v with %d pending, want 1s with the 2s event still queued", k.Now(), k.Len())
	}
}

type recordSink struct {
	ts  []time.Duration
	evs []any
}

func (s *recordSink) Observe(t time.Duration, ev any) {
	s.ts = append(s.ts, t)
	s.evs = append(s.evs, ev)
}

// TestEmitReachesSinksInOrder: Emit stamps the current instant and fans
// out to sinks in attach order.
func TestEmitReachesSinksInOrder(t *testing.T) {
	k := New()
	a, b := &recordSink{}, &recordSink{}
	k.Attach(a)
	k.Attach(b)
	k.PostHandler(time.Second, 0, func(_, _ int64) { k.Emit("one") }, 0, 0)
	k.PostHandler(2*time.Second, 0, func(_, _ int64) { k.Emit("two") }, 0, 0)
	k.Run(nil)
	for _, s := range []*recordSink{a, b} {
		if len(s.evs) != 2 || s.evs[0] != "one" || s.evs[1] != "two" {
			t.Fatalf("sink events = %v", s.evs)
		}
		if s.ts[0] != time.Second || s.ts[1] != 2*time.Second {
			t.Fatalf("sink times = %v", s.ts)
		}
	}
}

// TestDeterministicReplay: the same post sequence drains identically twice.
func TestDeterministicReplay(t *testing.T) {
	run := func() []int {
		k := New()
		var got []int
		rec := Handler(func(i, _ int64) { got = append(got, int(i)) })
		for i := 0; i < 100; i++ {
			// A spread of colliding times and priorities.
			k.PostHandler(time.Duration(i%7)*time.Second, Priority(i%3), rec, int64(i), 0)
		}
		k.Run(nil)
		return got
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
