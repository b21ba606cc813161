package stats

import (
	"sync"
	"time"
)

// LatencyRing is the adaptive-threshold sampler behind storeclnt's hedge
// delay and the dist coordinator's steal threshold: a fixed ring of the most
// recent latencies whose 95th percentile says what "slow" currently means.
// Each caller applies its own floor, factor and cold-start default. The zero
// value is ready; it is safe for concurrent use and never allocates.
type LatencyRing struct {
	mu  sync.Mutex
	buf [latencyWindow]time.Duration
	idx int
	n   int
}

const (
	latencyWindow = 64 // samples kept
	latencyWarmup = 16 // samples before P95 is trusted
)

// Observe records one latency, evicting the oldest past the window.
func (r *LatencyRing) Observe(d time.Duration) {
	r.mu.Lock()
	r.buf[r.idx] = d
	r.idx = (r.idx + 1) % latencyWindow
	if r.n < latencyWindow {
		r.n++
	}
	r.mu.Unlock()
}

// P95 returns the nearest-rank 95th percentile of the window — the sorted
// sample at index 95*(n-1)/100, SortedPercentile's rank rounded down. warm
// is false (and d zero) until the ring holds enough samples to trust.
func (r *LatencyRing) P95() (d time.Duration, warm bool) {
	r.mu.Lock()
	sorted := r.buf
	n := r.n
	r.mu.Unlock()
	if n < latencyWarmup {
		return 0, false
	}
	// Insertion sort on the stack copy: n ≤ 64 and this must not allocate.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[95*(n-1)/100], true
}
