// Package emulator implements Synapse's emulation module: the global loop
// that feeds profile samples to the emulation atoms in the order the samples
// were collected (paper §4, §4.4).
//
// Replay semantics, from the paper:
//
//   - All resource consumptions of one sample start immediately and
//     concurrently when the sample starts; there is no ordering between
//     resource types inside a sample.
//   - A sample ends when its last resource consumption completes (barrier);
//     only then does the next sample start.
//   - All timing information in the profile is disregarded: emulation
//     consumes the same amount of resources, not the same timings.
//
// Preserving sample order preserves the implicit cross-resource dependencies
// the sampling captured; the per-sample barrier is what makes profiles
// portable across machines with different relative resource speeds (Fig 3).
package emulator

import (
	"context"
	"time"

	"synapse/internal/atoms"
	"synapse/internal/machine"
	"synapse/internal/perfcount"
	"synapse/internal/profile"
)

// DefaultStartupDelay models the emulator's fixed start-up cost (fetching
// the profile, spawning the atom threads); the paper measures ≈1 s and shows
// it dominating short emulations (Fig 5).
const DefaultStartupDelay = time.Second

// DefaultSampleOverhead is the driver's bookkeeping cost per replayed sample
// ("a tight loop that feeds into the Synapse atoms", paper §4.5).
const DefaultSampleOverhead = 200 * time.Microsecond

// TraceLevel selects how much per-sample detail Emulate records. Most
// experiments only need the aggregate report (Tx, Consumed, BusyTime), and
// skipping trace collection keeps the replay loop allocation-free.
type TraceLevel int

const (
	// TraceFull records the complete per-sample, per-atom timeline
	// (Report.Trace). The zero value, for compatibility with callers that
	// predate the knob.
	TraceFull TraceLevel = iota
	// TraceDurations records only each sample's barrier duration
	// (Report.SampleDurations), not the per-atom spans.
	TraceDurations
	// TraceNone records aggregates only.
	TraceNone
)

// Options configure one emulation run.
type Options struct {
	// Atoms carries the tunables: machine, kernel choice, I/O blocks,
	// filesystem, parallelism, artificial load.
	Atoms atoms.Config
	// Real selects real host-resource consumption instead of the modeled
	// machine. ScratchDir is the real storage atom's directory.
	Real       bool
	ScratchDir string
	// StartupDelay and SampleOverhead model driver costs in simulated
	// mode; negative disables, zero selects the defaults.
	StartupDelay   time.Duration
	SampleOverhead time.Duration
	// DisableStorage/DisableMemory/DisableNetwork turn off those atoms —
	// the paper disables memory and I/O emulation in E.3/E.4.
	DisableStorage bool
	DisableMemory  bool
	DisableNetwork bool
	// TraceLevel tunes per-sample detail retention (TraceFull default).
	TraceLevel TraceLevel
}

// AtomSpan is one atom's activity within one replayed sample.
type AtomSpan struct {
	Atom string
	Dur  time.Duration
}

// SampleTrace records how one sample replayed: when it started relative to
// the first sample, how long each atom ran, and the barrier duration.
type SampleTrace struct {
	Index int
	Start time.Duration
	Spans []AtomSpan
	// Dur is the sample's barrier duration: the slowest atom plus driver
	// overhead.
	Dur time.Duration
	// Consumed is what the atoms consumed replaying this sample.
	Consumed perfcount.Counters
}

// Report is the outcome of an emulation run.
type Report struct {
	// Tx is the emulation's execution time: modeled in simulated mode,
	// measured on the wall clock in real mode.
	Tx time.Duration
	// Startup is the modeled or measured start-up delay included in Tx.
	Startup time.Duration
	// Samples is the number of replayed samples.
	Samples int
	// Consumed aggregates what the atoms consumed.
	Consumed perfcount.Counters
	// Trace holds the per-sample, per-atom replay timeline (paper Fig 2:
	// within a sample all atoms run concurrently; samples are ordered).
	// Populated only at TraceFull.
	Trace []SampleTrace
	// Machine is the emulation resource's name.
	Machine string
	// Kernel is the compute kernel used.
	Kernel string

	// durations holds each sample's replay duration when the full trace
	// is not kept (TraceDurations), or caches the durations derived from
	// Trace on first SampleDurations call; Trace[i].Dur is the canonical
	// source at TraceFull, so the two are never stored redundantly.
	durations []time.Duration
	// busy is the per-atom busy time, indexed like AtomNames, accumulated
	// while the samples replay: a fixed array inside the report, so
	// recording it costs no allocation and reading it no hashing.
	busy [len(AtomNames)]time.Duration
}

// SampleDurations returns each sample's replay duration, in order. At
// TraceFull the slice is derived lazily from the trace and cached; at
// TraceNone it is nil.
func (r *Report) SampleDurations() []time.Duration {
	if r.durations == nil && len(r.Trace) > 0 {
		ds := make([]time.Duration, len(r.Trace))
		for i := range r.Trace {
			ds[i] = r.Trace[i].Dur
		}
		r.durations = ds
	}
	return r.durations
}

// AtomNames lists the emulation atoms in the index order of BusyTimes
// (alphabetical — the order scenario outcomes and their wire form carry).
var AtomNames = [...]string{"compute", "memory", "network", "storage"}

// atomIndex returns name's position in AtomNames, or -1.
func atomIndex(name string) int {
	for i, a := range AtomNames {
		if a == name {
			return i
		}
	}
	return -1
}

// BusyTimes returns every atom's busy time at once, indexed like AtomNames:
// BusyTime without the per-name lookups, for callers that keep all four.
func (r *Report) BusyTimes() [len(AtomNames)]time.Duration {
	busy := r.busy
	if busy == [len(AtomNames)]time.Duration{} {
		for i, a := range AtomNames {
			busy[i] = r.BusyTime(a)
		}
	}
	return busy
}

// BusyTime returns the total time the named atom was active across samples.
// The per-atom totals are accumulated during the replay; reports assembled
// by hand carry none and fall back to scanning the trace (for a replayed
// report whose totals are all zero the scan finds no span either).
func (r *Report) BusyTime(atom string) time.Duration {
	if r.busy != [len(AtomNames)]time.Duration{} {
		if i := atomIndex(atom); i >= 0 {
			return r.busy[i]
		}
		return 0
	}
	var total time.Duration
	for _, st := range r.Trace {
		for _, sp := range st.Spans {
			if sp.Atom == atom {
				total += sp.Dur
			}
		}
	}
	return total
}

// DominantAtom returns the atom that bounded the given sample (the slowest
// span), or "" for an empty sample.
func (r *Report) DominantAtom(i int) string {
	if i < 0 || i >= len(r.Trace) {
		return ""
	}
	var name string
	var max time.Duration
	for _, sp := range r.Trace[i].Spans {
		if sp.Dur > max {
			max = sp.Dur
			name = sp.Atom
		}
	}
	return name
}

// IPC returns the consumed instructions per cycle.
func (r *Report) IPC() float64 { return r.Consumed.IPC() }

// RequestFromSample converts one profile sample into an atom request.
func RequestFromSample(s profile.Sample) atoms.Request {
	return atoms.Request{
		Cycles:        s.Get(profile.MetricCPUCycles),
		FLOPs:         s.Get(profile.MetricCPUFLOPs),
		ReadBytes:     s.Get(profile.MetricIOReadBytes),
		WriteBytes:    s.Get(profile.MetricIOWriteBytes),
		ReadOps:       s.Get(profile.MetricIOReadOps),
		WriteOps:      s.Get(profile.MetricIOWriteOps),
		AllocBytes:    s.Get(profile.MetricMemAlloc),
		FreeBytes:     s.Get(profile.MetricMemFree),
		NetReadBytes:  s.Get(profile.MetricNetReadBytes),
		NetWriteBytes: s.Get(profile.MetricNetWriteBytes),
	}
}

// dupFactor is the MPI duplication rule shared by the per-sample and batched
// request builders: multi-processing duplicates non-compute resource usage
// across ranks, multi-threading shares it (paper §5 E.4).
func dupFactor(cfg *atoms.Config) float64 {
	if cfg.Mode == machine.ModeMPI && cfg.Workers > 1 {
		return float64(cfg.Workers)
	}
	return 1.0
}

// splitRequest hands each atom its slice of the sample's demand, applying
// the MPI duplication rule.
func splitRequest(req atoms.Request, name string, cfg *atoms.Config) atoms.Request {
	dup := dupFactor(cfg)
	switch name {
	case "compute":
		return atoms.Request{Cycles: req.Cycles, FLOPs: req.FLOPs}
	case "storage":
		return atoms.Request{
			ReadBytes: req.ReadBytes * dup, WriteBytes: req.WriteBytes * dup,
			ReadOps: req.ReadOps * dup, WriteOps: req.WriteOps * dup,
		}
	case "memory":
		return atoms.Request{AllocBytes: req.AllocBytes * dup, FreeBytes: req.FreeBytes * dup}
	case "network":
		return atoms.Request{NetReadBytes: req.NetReadBytes * dup, NetWriteBytes: req.NetWriteBytes * dup}
	default:
		return atoms.Request{}
	}
}

// Emulate replays the profile's samples through the atoms and returns the
// run report. It is the one-shot form of NewRun + Run.Emulate; callers that
// replay the same profile repeatedly should hold a Run instead.
func Emulate(ctx context.Context, p *profile.Profile, opts Options) (*Report, error) {
	r, err := NewRun(p, opts)
	if err != nil {
		return nil, err
	}
	return r.Emulate(ctx)
}

// record books one replayed sample into the report: busy times always, the
// timeline or the bare duration according to the trace level.
func (r *Report) record(level TraceLevel, i int, start time.Duration, spans []AtomSpan, dur time.Duration, consumed perfcount.Counters) {
	for _, sp := range spans {
		if ai := atomIndex(sp.Atom); ai >= 0 {
			r.busy[ai] += sp.Dur
		}
	}
	switch level {
	case TraceFull:
		r.Trace = append(r.Trace, SampleTrace{
			Index: i, Start: start, Spans: spans, Dur: dur, Consumed: consumed,
		})
	case TraceDurations:
		r.durations = append(r.durations, dur)
	}
	r.Consumed = r.Consumed.Add(consumed)
	r.Samples++
}

// replayBatchSize bounds the working set of the batched replay: requests and
// durations are staged in fixed buffers of this many samples, so memory stays
// flat no matter how long the profile is while per-sample dispatch overhead
// is amortized away.
const replayBatchSize = 1024

// replayBatched is the simulated replay loop: it reads the profile's columnar
// view, materializes atom requests batch-by-batch, and feeds each atom a
// whole run of samples through its ConsumeBatch fast path. The atoms write
// one duration per sample into the staging buffer and add what they consumed
// straight into its destination — the run total (rep.Consumed) when no
// per-sample consumption is kept, the sample's own SampleTrace.Consumed at
// TraceFull — so the fold is only the per-sample barrier (max over the
// atoms' durations), the busy totals and the cursor. All buffers are
// preallocated; per sample it performs no map lookups, no interface
// dispatch, and (at TraceNone/TraceDurations) no allocations. The produced
// report is bit-identical to the per-sample reference loop the equivalence
// tests keep (see atoms.BatchConsumer for why). sc, whose set the atoms are,
// lends the staging buffers, so pooled replays do not reallocate them.
func replayBatched(ctx context.Context, p *profile.Profile, level TraceLevel, overhead time.Duration, rep *Report, sc *replayScratch) (time.Duration, error) {
	cols := p.Columns()
	n := cols.N
	if n == 0 {
		return 0, nil
	}
	// The MPI duplication rule of splitRequest, applied once while
	// materializing requests.
	dup := dupFactor(&sc.cfg)

	bs := replayBatchSize
	if n < bs {
		bs = n
	}
	set := sc.set
	reqs, durs, dst := sc.stage(bs)

	// Span storage for the full trace is carved out of one growing arena;
	// most samples exercise one or two atoms, so 2N is a generous start.
	var spanArena []AtomSpan
	switch level {
	case TraceFull:
		rep.Trace = make([]SampleTrace, n)
		spanArena = make([]AtomSpan, 0, 2*n)
	case TraceDurations:
		rep.durations = make([]time.Duration, 0, n)
	}
	if level != TraceFull {
		for i := range dst {
			dst[i] = &rep.Consumed
		}
	}

	var busy [len(AtomNames)]time.Duration // by position in set
	var cursor time.Duration
	for lo := 0; lo < n; lo += bs {
		hi := lo + bs
		if hi > n {
			hi = n
		}
		m := hi - lo
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		// Gather: contiguous column reads into the staged requests, field
		// by field in place (a composite literal is built aside and then
		// copied in, 80 bytes per sample).
		for i := 0; i < m; i++ {
			j := lo + i
			r := &reqs[i]
			r.Cycles = cols.Cycles[j]
			r.FLOPs = cols.FLOPs[j]
			r.ReadBytes = cols.ReadBytes[j] * dup
			r.WriteBytes = cols.WriteBytes[j] * dup
			r.ReadOps = cols.ReadOps[j] * dup
			r.WriteOps = cols.WriteOps[j] * dup
			r.AllocBytes = cols.AllocBytes[j] * dup
			r.FreeBytes = cols.FreeBytes[j] * dup
			r.NetReadBytes = cols.NetReadBytes[j] * dup
			r.NetWriteBytes = cols.NetWriteBytes[j] * dup
		}
		if level == TraceFull {
			for i := 0; i < m; i++ {
				dst[i] = &rep.Trace[lo+i].Consumed
			}
		}
		// Consume: one batch call per atom. Every atom reads only its own
		// resource's fields, so the same request slice serves all of them
		// (splitRequest's field selection, without the copies).
		for ai, a := range set {
			if err := atoms.ConsumeBatch(ctx, a, reqs[:m], durs[ai*bs:ai*bs+m], dst[:m]); err != nil {
				return 0, err
			}
		}
		// Fold: the per-sample barrier (max over the atoms' durations), the
		// busy totals and the cursor; the trace levels add their record.
		for i := 0; i < m; i++ {
			var max time.Duration
			for ai := range set {
				if d := durs[ai*bs+i]; d > 0 {
					busy[ai] += d
					if d > max {
						max = d
					}
				}
			}
			dur := max + overhead
			switch level {
			case TraceFull:
				st := &rep.Trace[lo+i]
				st.Index, st.Start, st.Dur = lo+i, cursor, dur
				spanLo := len(spanArena)
				for ai := range set {
					if d := durs[ai*bs+i]; d > 0 {
						spanArena = append(spanArena, AtomSpan{Atom: sc.names[ai], Dur: d})
					}
				}
				if spanHi := len(spanArena); spanHi > spanLo {
					st.Spans = spanArena[spanLo:spanHi:spanHi]
				}
				rep.Consumed.Accumulate(&st.Consumed)
			case TraceDurations:
				rep.durations = append(rep.durations, dur)
			}
			cursor += dur
		}
		rep.Samples += m
	}
	for ai, name := range sc.names {
		rep.busy[atomIndex(name)] += busy[ai]
	}
	return cursor, nil
}

// replayReal replays samples against the host through a persistent worker
// pool: one goroutine per atom for the whole run, instead of spawning four
// goroutines per sample.
func replayReal(ctx context.Context, set []atoms.Atom, p *profile.Profile, cfg *atoms.Config, level TraceLevel, overhead time.Duration, rep *Report) (time.Duration, error) {
	pool := newAtomPool(ctx, set, cfg)
	defer pool.close()
	var cursor time.Duration
	for i, s := range p.Samples {
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		default:
		}
		req := RequestFromSample(s)
		wallStart := time.Now()
		spans, consumed, err := pool.replay(req)
		if err != nil {
			return 0, err
		}
		dur := time.Since(wallStart) + overhead
		rep.record(level, i, cursor, spans, dur, consumed)
		cursor += dur
	}
	return cursor, nil
}

// filterAtoms applies the disable switches.
func filterAtoms(set []atoms.Atom, opts Options) []atoms.Atom {
	out := set[:0]
	for _, a := range set {
		switch a.Name() {
		case "storage":
			if opts.DisableStorage {
				continue
			}
		case "memory":
			if opts.DisableMemory {
				continue
			}
		case "network":
			if opts.DisableNetwork {
				continue
			}
		}
		out = append(out, a)
	}
	return out
}
