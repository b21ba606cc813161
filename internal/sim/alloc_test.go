package sim

import (
	"testing"
	"time"
)

// TestPostPopAllocFree pins the kernel's allocation-free contract: after
// Reserve sized the arena and one warm-up lap filled it, posting and
// draining events must not touch the allocator at all.
func TestPostPopAllocFree(t *testing.T) {
	k := New()
	k.Reserve(64)
	var sink int64
	h := Handler(func(a, _ int64) { sink += a })
	tick := time.Duration(0)
	lap := func() {
		for j := 0; j < 32; j++ {
			k.PostHandler(tick, Priority(j%4), h, int64(j), 0)
		}
		k.Run(nil)
		tick++
	}
	lap() // warm-up: materializes nothing the steady state re-creates
	if allocs := testing.AllocsPerRun(100, lap); allocs != 0 {
		t.Fatalf("kernel post/drain allocated %.1f objects per lap, want 0", allocs)
	}
}

// TestPostHandlerOrdering checks that distinct handlers share one
// (t, prio, post-order) timeline: interleaved posts of a bound handler and
// of one-off handlers replay in exactly the order the ordering rule
// dictates, each receiving its own inline arguments.
func TestPostHandlerOrdering(t *testing.T) {
	k := New()
	var got []int
	add := func(v int) { got = append(got, v) }
	h := Handler(func(a, _ int64) { add(int(a)) })
	k.PostHandler(2*time.Second, 0, func(a, b int64) { add(int(a + b)) }, 3, 1)
	k.PostHandler(time.Second, 1, h, 2, 0)
	k.PostHandler(time.Second, 1, func(_, b int64) { add(int(b)) }, 0, 3) // same (t, prio): post order
	k.PostHandler(time.Second, 0, h, 1, 0)                                // lower prio wins the instant
	k.Run(nil)
	want := []int{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestReserve checks Reserve grows capacity without disturbing pending
// events.
func TestReserve(t *testing.T) {
	k := New()
	var got []int
	h := Handler(func(a, _ int64) { got = append(got, int(a)) })
	k.PostHandler(time.Second, 0, h, 1, 0)
	k.Reserve(128)
	if c := cap(k.h); c < 128 {
		t.Fatalf("cap = %d after Reserve(128)", c)
	}
	k.PostHandler(2*time.Second, 0, h, 2, 0)
	k.Run(nil)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v, want [1 2]", got)
	}
}
