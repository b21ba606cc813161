package atoms

import (
	"context"
	"fmt"
	"time"

	"synapse/internal/perfcount"
)

// BatchConsumer is the optional fast path of Atom: process a run of requests
// with a single call. Request i's duration is written to durs[i], and what it
// consumed is added into *dst[i] — only into the counter fields the atom
// owns, so nothing is built, copied or summed for the fields it never fills.
// Destinations may repeat: a replay that keeps only the run total points
// every dst[i] at it, one that keeps per-sample consumption points each at
// that sample's own record.
//
// Requests are consumed strictly in order — stateful atoms (the compute
// atom's chunk surplus) must evolve exactly as they would under equivalent
// sequential Consume calls, so the batched and per-sample replay paths
// produce bit-identical reports.
//
// Adding only the owned fields is bit-identical to summing one full Counters
// per atom per request (what Consume returns), not merely close to it:
//
//   - The simulated atoms own disjoint fields (compute: Cycles, Instructions,
//     FLOPs; storage: ReadBytes, WriteBytes, ReadOps, WriteOps; memory:
//     AllocBytes, FreeBytes; network: NetReadBytes, NetWriteBytes), so a
//     request's per-field sum over the atoms, 0 + x + 0 + 0 + 0, is exactly x.
//   - Every accumulator starts at +0 and can never become −0 (a sum is −0
//     only when both operands are), and v + (±0) = v for every other v, so
//     skipping an addend that would have been zero changes no bit, sign
//     included; +0 + (−0) = +0 covers an owner that contributes −0.
//   - Per field, the non-zero additions still happen in request order.
//   - The gauge fields (Threads, Processes, RSS, PeakRSS) and the stall
//     counters are 0 from every simulated atom, so leaving them untouched
//     equals merging them.
//
// TestSimAtomsOwnDisjointCounterFields pins the ownership this stands on.
//
// All simulated atoms implement BatchConsumer; real atoms do not (their
// consumption is paced by the host, one sample at a time).
type BatchConsumer interface {
	ConsumeBatch(ctx context.Context, reqs []Request, durs []time.Duration, dst []*perfcount.Counters) error
}

// ConsumeBatch feeds reqs through the atom, using its batch fast path when
// implemented and degrading to per-request Consume calls otherwise. durs and
// dst must be at least as long as reqs.
func ConsumeBatch(ctx context.Context, a Atom, reqs []Request, durs []time.Duration, dst []*perfcount.Counters) error {
	if len(durs) < len(reqs) || len(dst) < len(reqs) {
		return fmt.Errorf("atoms: batch outputs (%d durations, %d destinations) shorter than input %d",
			len(durs), len(dst), len(reqs))
	}
	if b, ok := a.(BatchConsumer); ok {
		return b.ConsumeBatch(ctx, reqs, durs, dst)
	}
	for i := range reqs {
		res, err := a.Consume(ctx, reqs[i])
		if err != nil {
			return err
		}
		durs[i] = res.Dur
		dst[i].Accumulate(&res.Consumed)
	}
	return nil
}
