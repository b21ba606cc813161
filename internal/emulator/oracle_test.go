package emulator

import (
	"context"
	"time"

	"synapse/internal/atoms"
	"synapse/internal/perfcount"
	"synapse/internal/profile"
)

// emulateOracle is Emulate through the reference loop below instead of
// replayBatched: a fresh simulated atom set, the same normalized driver
// costs. It is what the
// equivalence tests and BenchmarkReplaySimulated hold the batched replay
// against.
func emulateOracle(ctx context.Context, p *profile.Profile, opts Options) (*Report, error) {
	r, err := NewRun(p, opts)
	if err != nil {
		return nil, err
	}
	sc, err := r.newScratch(r.opts.Atoms)
	if err != nil {
		return nil, err
	}
	rep := r.newReport(&sc.cfg)
	total, err := replaySerial(ctx, sc.set, r.p, &sc.cfg, r.opts.TraceLevel, r.overhead, rep)
	if err != nil {
		return nil, err
	}
	rep.Tx = r.startup + total
	return rep, nil
}

// replayVia selects the one-shot replay entry point: the oracle or Emulate.
func replayVia(oracle bool) func(context.Context, *profile.Profile, Options) (*Report, error) {
	if oracle {
		return emulateOracle
	}
	return Emulate
}

// replaySerial is the per-sample reference loop: the profile's row view, four
// interface-dispatched Consume calls, one full Counters summed per atom per
// sample and a fresh span slice per sample. The batched replay must match it
// bit-for-bit.
func replaySerial(ctx context.Context, set []atoms.Atom, p *profile.Profile, cfg *atoms.Config, level TraceLevel, overhead time.Duration, rep *Report) (time.Duration, error) {
	var cursor time.Duration
	for i, s := range p.Samples {
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		default:
		}
		req := RequestFromSample(s)
		spans, dur, consumed, err := replaySample(ctx, set, req, cfg)
		if err != nil {
			return 0, err
		}
		dur += overhead
		rep.record(level, i, cursor, spans, dur, consumed)
		cursor += dur
	}
	return cursor, nil
}

// replaySample runs one sample through all simulated atoms and returns the
// barrier duration (the slowest atom — within a sample all consumption is
// concurrent, paper §4.4).
func replaySample(ctx context.Context, set []atoms.Atom, req atoms.Request, cfg *atoms.Config) ([]AtomSpan, time.Duration, perfcount.Counters, error) {
	var max time.Duration
	var consumed perfcount.Counters
	var spans []AtomSpan
	for _, a := range set {
		res, err := a.Consume(ctx, splitRequest(req, a.Name(), cfg))
		if err != nil {
			return nil, 0, consumed, err
		}
		if res.Dur > max {
			max = res.Dur
		}
		if res.Dur > 0 {
			spans = append(spans, AtomSpan{Atom: a.Name(), Dur: res.Dur})
		}
		consumed = consumed.Add(res.Consumed)
	}
	return spans, max, consumed, nil
}
