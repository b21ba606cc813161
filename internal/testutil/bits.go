package testutil

import (
	"math"

	"synapse/internal/perfcount"
)

// SameBits reports whether two counter sets agree in every bit of every
// field — stricter than ==, which equates −0 with +0 (and no NaN with
// itself). Bit-identity claims about replay are checked with it.
func SameBits(a, b *perfcount.Counters) bool {
	af, bf := a.Fields(), b.Fields()
	for i := range af {
		if math.Float64bits(af[i]) != math.Float64bits(bf[i]) {
			return false
		}
	}
	return true
}
