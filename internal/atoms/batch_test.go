package atoms

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"synapse/internal/machine"
	"synapse/internal/perfcount"
	"synapse/internal/testutil"
)

// batchRequests builds a mixed demand series exercising every atom.
func batchRequests(n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		switch i % 4 {
		case 0:
			reqs[i] = Request{Cycles: 1e8 + float64(i)*1e5, FLOPs: 1e6}
		case 1:
			reqs[i] = Request{ReadBytes: 1 << 20, WriteBytes: 2 << 20, ReadOps: 4, WriteOps: 8}
		case 2:
			reqs[i] = Request{AllocBytes: 1 << 18, FreeBytes: 1 << 17}
		case 3:
			reqs[i] = Request{NetReadBytes: 1 << 12, NetWriteBytes: 1 << 13, Cycles: 5e7}
		}
	}
	return reqs
}

// The batch fast path must match per-request Consume calls bit-for-bit,
// including the compute atom's cross-sample surplus state — both with one
// destination per request and with every request adding into one total.
func TestBatchMatchesSequential(t *testing.T) {
	ctx := context.Background()
	mk := func() []Atom {
		cfg := &Config{Machine: machine.MustGet(machine.Thinkie)}
		set, err := NewSimSet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	reqs := batchRequests(64)

	seqSet, eachSet, totalSet := mk(), mk(), mk()
	for ai := range seqSet {
		name := seqSet[ai].Name()
		var seq []Result
		var seqTotal perfcount.Counters
		for _, req := range reqs {
			r, err := seqSet[ai].Consume(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			seq = append(seq, r)
			seqTotal.Accumulate(&r.Consumed)
		}

		durs := make([]time.Duration, len(reqs))
		each := make([]perfcount.Counters, len(reqs))
		dst := make([]*perfcount.Counters, len(reqs))
		for i := range dst {
			dst[i] = &each[i]
		}
		if err := ConsumeBatch(ctx, eachSet[ai], reqs, durs, dst); err != nil {
			t.Fatal(err)
		}
		for i := range reqs {
			if durs[i] != seq[i].Dur || !testutil.SameBits(&each[i], &seq[i].Consumed) {
				t.Fatalf("%s: batch result %d = %v %+v, sequential %+v",
					name, i, durs[i], each[i], seq[i])
			}
		}

		var total perfcount.Counters
		for i := range dst {
			dst[i] = &total
		}
		if err := ConsumeBatch(ctx, totalSet[ai], reqs, durs, dst); err != nil {
			t.Fatal(err)
		}
		for i := range reqs {
			if durs[i] != seq[i].Dur {
				t.Fatalf("%s: shared-destination duration %d = %v, sequential %v", name, i, durs[i], seq[i].Dur)
			}
		}
		if !testutil.SameBits(&total, &seqTotal) {
			t.Fatalf("%s: shared-destination total %+v, sequential sum %+v", name, total, seqTotal)
		}
	}
}

// Each simulated atom adds only into the counter fields it owns, no field is
// owned by two atoms, and the gauge and stall fields stay zero from all of
// them — for ordinary, zero, negative, −0, NaN and ±Inf demand alike. This
// is what makes adding only the owned fields bit-identical to summing full
// Counters (see BatchConsumer): a new counter written by two atoms, or an
// atom that starts reporting a gauge, fails here.
func TestSimAtomsOwnDisjointCounterFields(t *testing.T) {
	// field returns the position in Counters.Fields() of the one field set
	// marks, so the table below names fields instead of numbering them.
	field := func(set func(c *perfcount.Counters)) int {
		var c perfcount.Counters
		set(&c)
		for i, v := range c.Fields() {
			if v != 0 {
				return i
			}
		}
		t.Fatal("marker set no field")
		return -1
	}
	owned := map[string][]int{
		"compute": {
			field(func(c *perfcount.Counters) { c.Cycles = 1 }),
			field(func(c *perfcount.Counters) { c.Instructions = 1 }),
			field(func(c *perfcount.Counters) { c.FLOPs = 1 }),
		},
		"storage": {
			field(func(c *perfcount.Counters) { c.ReadBytes = 1 }),
			field(func(c *perfcount.Counters) { c.WriteBytes = 1 }),
			field(func(c *perfcount.Counters) { c.ReadOps = 1 }),
			field(func(c *perfcount.Counters) { c.WriteOps = 1 }),
		},
		"memory": {
			field(func(c *perfcount.Counters) { c.AllocBytes = 1 }),
			field(func(c *perfcount.Counters) { c.FreeBytes = 1 }),
		},
		"network": {
			field(func(c *perfcount.Counters) { c.NetReadBytes = 1 }),
			field(func(c *perfcount.Counters) { c.NetWriteBytes = 1 }),
		},
	}
	// Everything else — the gauges (Threads, Processes, RSS, PeakRSS), the
	// stall counters and any field added later — has no owner and must stay
	// zero from every simulated atom.
	var owner [perfcount.NumFields]string
	for name, fields := range owned {
		for _, f := range fields {
			if owner[f] != "" {
				t.Fatalf("field %d owned by both %s and %s", f, owner[f], name)
			}
			owner[f] = name
		}
	}
	special := []float64{0, math.Copysign(0, -1), -1, -1e12, math.NaN(), math.Inf(1), math.Inf(-1), 1, 4096, 3.5e9}
	rng := rand.New(rand.NewSource(14))
	pick := func() float64 {
		if rng.Intn(3) == 0 {
			return special[rng.Intn(len(special))]
		}
		return math.Floor(1e10 * math.Pow(rng.Float64(), 6))
	}
	cfgs := []Config{
		{},
		{Load: 0.3, DiskLoad: 0.2, MemLoad: 0.1, UseProfiledBlocks: true},
		{Workers: 4, Mode: machine.ModeMPI, Kernel: machine.KernelC},
	}
	ctx := context.Background()
	for ci := range cfgs {
		cfg := cfgs[ci]
		cfg.Machine = machine.MustGet(machine.Stampede)
		set, err := NewSimSet(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(set) != len(owned) {
			t.Fatalf("simulated set has %d atoms, ownership table %d", len(set), len(owned))
		}
		for n := 0; n < 4000; n++ {
			req := Request{
				Cycles: pick(), FLOPs: pick(),
				ReadBytes: pick(), WriteBytes: pick(), ReadOps: pick(), WriteOps: pick(),
				AllocBytes: pick(), FreeBytes: pick(),
				NetReadBytes: pick(), NetWriteBytes: pick(),
			}
			for _, a := range set {
				res, err := a.Consume(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				for f, v := range res.Consumed.Fields() {
					if owner[f] != a.Name() && math.Float64bits(v) != 0 {
						t.Fatalf("cfg %d: %s wrote field %d = %v (owner %q) for %+v",
							ci, a.Name(), f, v, owner[f], req)
					}
				}
			}
		}
	}
}

// plainAtom implements only Atom, to exercise the fallback adapter.
type plainAtom struct{ calls int }

func (p *plainAtom) Name() string { return "plain" }
func (p *plainAtom) Consume(ctx context.Context, req Request) (Result, error) {
	p.calls++
	return Result{Dur: time.Second, Consumed: perfcount.Counters{Cycles: 2}}, nil
}

func TestBatchFallbackAdapter(t *testing.T) {
	a := &plainAtom{}
	reqs := make([]Request, 5)
	durs := make([]time.Duration, 5)
	var total perfcount.Counters
	dst := []*perfcount.Counters{&total, &total, &total, &total, &total}
	if err := ConsumeBatch(context.Background(), a, reqs, durs, dst); err != nil {
		t.Fatal(err)
	}
	if a.calls != 5 {
		t.Errorf("fallback made %d Consume calls, want 5", a.calls)
	}
	if durs[4] != time.Second || total.Cycles != 10 {
		t.Errorf("fallback recorded dur %v, cycles %v; want 1s, 10", durs[4], total.Cycles)
	}
	if err := ConsumeBatch(context.Background(), a, reqs, durs[:2], dst); err == nil {
		t.Error("short duration slice should be rejected")
	}
	if err := ConsumeBatch(context.Background(), a, reqs, durs, dst[:2]); err == nil {
		t.Error("short destination slice should be rejected")
	}
}

func TestBatchHonorsCancellation(t *testing.T) {
	cfg := &Config{Machine: machine.MustGet(machine.Thinkie)}
	set, err := NewSimSet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := batchRequests(4)
	durs := make([]time.Duration, len(reqs))
	var total perfcount.Counters
	dst := []*perfcount.Counters{&total, &total, &total, &total}
	for _, a := range set {
		if err := ConsumeBatch(ctx, a, reqs, durs, dst); err == nil {
			t.Errorf("%s: cancelled batch should fail", a.Name())
		}
	}
	if !total.IsZero() {
		t.Errorf("cancelled batches consumed %+v", total)
	}
}
