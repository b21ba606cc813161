package store_test

// Throughput benchmarks: Put/Find ops/s at 1, 8 and
// 64 concurrent clients. The single-mutex Mem backend flatlines as clients
// are added (every operation serializes), while Sharded spreads distinct
// keys across lock stripes and scales until the hash distribution or core
// count becomes the limit.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"synapse/internal/profile"
	"synapse/internal/store"
	"synapse/internal/store/storetest"
)

var benchClients = []int{1, 8, 64}

// benchConcurrent drives op from the given number of client goroutines
// until b.N operations have completed, reporting aggregate ops/s.
func benchConcurrent(b *testing.B, clients int, op func(client, i int) error) {
	b.Helper()
	var idx atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(idx.Add(1)) - 1
				if i >= b.N {
					return
				}
				if err := op(c, i); err != nil {
					b.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "ops/s")
	}
}

// noLimit keeps pure-throughput runs from tripping the 16 MB document cap.
const noLimit int64 = 1 << 62

func backends() map[string]func() store.Store {
	return map[string]func() store.Store{
		"mem":     func() store.Store { return store.NewMemWithLimit(noLimit) },
		"sharded": func() store.Store { return store.NewShardedWithLimit(0, noLimit) },
	}
}

func BenchmarkStorePut(b *testing.B) {
	for name, mk := range backends() {
		for _, clients := range benchClients {
			b.Run(fmt.Sprintf("backend=%s/clients=%d", name, clients), func(b *testing.B) {
				s := mk()
				defer s.Close()
				// One profile per client, reused: Put clones internally, so
				// sharing the source across iterations is safe.
				profs := make([]*profile.Profile, clients)
				for c := range profs {
					profs[c] = storetest.MkProfile(fmt.Sprintf("bench-cmd-%d", c), nil, 4)
				}
				benchConcurrent(b, clients, func(c, i int) error {
					return s.Put(profs[c])
				})
			})
		}
	}
}

func BenchmarkStoreFind(b *testing.B) {
	const keys = 64
	for name, mk := range backends() {
		for _, clients := range benchClients {
			b.Run(fmt.Sprintf("backend=%s/clients=%d", name, clients), func(b *testing.B) {
				s := mk()
				defer s.Close()
				for k := 0; k < keys; k++ {
					if err := s.Put(storetest.MkProfile(fmt.Sprintf("bench-cmd-%d", k), nil, 4)); err != nil {
						b.Fatal(err)
					}
				}
				benchConcurrent(b, clients, func(c, i int) error {
					_, err := s.Find(fmt.Sprintf("bench-cmd-%d", i%keys), nil)
					return err
				})
			})
		}
	}
}

// File.Put used to rescan the directory on every insert (O(N²) for N puts
// under one key); the cached sequence counter makes repeated inserts cheap.
func BenchmarkFilePutSameKey(b *testing.B) {
	f, err := store.NewFile(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	p := storetest.MkProfile("file-bench", nil, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Put(p); err != nil {
			b.Fatal(err)
		}
	}
}
