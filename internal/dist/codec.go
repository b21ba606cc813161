package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"synapse/internal/perfcount"
	"synapse/internal/scenario"
)

// The outcome wire record: every scenario.Outcome travels as recordWords
// little-endian 64-bit words — Tx in nanoseconds, the per-atom busy times
// in nanoseconds (Outcome.Busy order), then the counters as
// math.Float64bits in perfcount.Counters.Fields order. Bits, not decimal
// text, the rule Job.LoadBits already follows: what the worker computed is
// what the fold sees, with no float formatting or parsing on either side.
const (
	busyWords   = len(scenario.Outcome{}.Busy)
	recordWords = 1 + busyWords + perfcount.NumFields
	recordSize  = 8 * recordWords
)

// packOutcomes appends the wire records of outs to dst and returns the
// extended slice. Every outcome must be non-nil.
func packOutcomes(dst []byte, outs []*scenario.Outcome) []byte {
	for _, o := range outs {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(o.Tx))
		for _, b := range o.Busy {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(b))
		}
		for _, f := range o.Consumed.Fields() {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
		}
	}
	return dst
}

// unpackOutcomes decodes a packed payload into one slab of outcomes. A
// payload that is not a whole number of records means the two sides
// disagree about the record layout; no retry can fix that, so the error is
// terminal (ErrInvalid).
func unpackOutcomes(p []byte) ([]scenario.Outcome, error) {
	if len(p)%recordSize != 0 {
		return nil, fmt.Errorf("%w: packed outcomes are %d bytes, not a multiple of the %d-byte record",
			ErrInvalid, len(p), recordSize)
	}
	slab := make([]scenario.Outcome, len(p)/recordSize)
	for i := range slab {
		o := &slab[i]
		o.Tx = time.Duration(binary.LittleEndian.Uint64(p))
		p = p[8:]
		for ai := range o.Busy {
			o.Busy[ai] = time.Duration(binary.LittleEndian.Uint64(p))
			p = p[8:]
		}
		var f [perfcount.NumFields]float64
		for k := range f {
			f[k] = math.Float64frombits(binary.LittleEndian.Uint64(p))
			p = p[8:]
		}
		o.Consumed.SetFields(&f)
	}
	return slab, nil
}

// appendPointers appends a pointer to every outcome of slab to dst.
func appendPointers(dst []*scenario.Outcome, slab []scenario.Outcome) []*scenario.Outcome {
	for i := range slab {
		dst = append(dst, &slab[i])
	}
	return dst
}
