package sim

import "hash/fnv"

// Stream derives a named substream seed from a root seed. Every
// independent source of randomness in a simulation — each workload's
// arrival/jitter draws, the placement policy, future noise models — takes
// its seed from a distinct stream name ("workload/md", "cluster", ...), so
// adding or reordering streams never perturbs the others and two streams
// never alias just because their owners share a seed.
//
// The name is hashed with FNV-1a, folded into the seed, and passed through
// the SplitMix64 finalizer so that related inputs (same seed with similar
// names, or consecutive seeds with the same name) land far apart even
// though the downstream generator is seeded with this single word.
func Stream(seed uint64, name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	x := seed ^ h.Sum64()
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
