package sim

import (
	"testing"
	"time"
)

// BenchmarkKernelPostPop is the event-queue micro: one handler post and
// one heap pop per op, on a warm kernel. The steady state must not
// allocate — PostHandler carries its arguments inline and the heap reuses
// its arena — so allocs/op must read zero; TestPostPopAllocFree pins it.
func BenchmarkKernelPostPop(b *testing.B) {
	k := New()
	k.Reserve(64)
	var sink int64
	h := Handler(func(a, _ int64) { sink += a })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.PostHandler(time.Duration(i), 0, h, int64(i), 0)
		e := k.h.pop()
		e.h(e.a, e.b)
	}
	if sink < 0 {
		b.Fatal("unreachable")
	}
}

// BenchmarkKernelInstantDrain drains one 16-event instant per op through
// Run — the kernel's full dispatch loop (clock advance, priority order,
// per-instant hook), reusing one kernel so the heap arena stays warm.
func BenchmarkKernelInstantDrain(b *testing.B) {
	const events = 16
	k := New()
	k.Reserve(events)
	var sink int64
	h := Handler(func(a, _ int64) { sink += a })
	hook := func() { sink++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := time.Duration(i)
		for j := 0; j < events; j++ {
			k.PostHandler(t, Priority(j%4), h, int64(j), 0)
		}
		k.Run(hook)
	}
	if sink < 0 {
		b.Fatal("unreachable")
	}
}
