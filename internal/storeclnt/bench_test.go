package storeclnt

// Loopback service throughput: a Remote client against
// an in-process synapsed (httptest, sharded backend) at 1, 8 and 64
// concurrent clients. RemoteFindCached exercises the generation-ETag cache
// (bodyless 304 revalidations); RemoteFindCold bypasses it.

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"synapse/internal/store"
	"synapse/internal/store/storetest"
	"synapse/internal/storesrv"
)

var benchClients = []int{1, 8, 64}

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

func benchService(b *testing.B) string {
	b.Helper()
	ts := httptest.NewServer(storesrv.New(store.NewSharded(0), storesrv.Config{}))
	b.Cleanup(ts.Close)
	return ts.URL
}

func BenchmarkRemotePut(b *testing.B) {
	for _, clients := range benchClients {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			url := benchService(b)
			rs := make([]*Remote, clients)
			for c := range rs {
				rs[c] = New(url)
				defer rs[c].Close()
			}
			p := storetest.MkProfile("bench-put", nil, 4)
			benchConcurrent(b, clients, func(c, i int) error {
				return rs[c].Put(p)
			})
		})
	}
}

func BenchmarkRemoteFindCached(b *testing.B) {
	for _, clients := range benchClients {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			url := benchService(b)
			seed := New(url)
			if err := seed.Put(storetest.MkProfile("bench-hot", nil, 16)); err != nil {
				b.Fatal(err)
			}
			seed.Close()
			rs := make([]*Remote, clients)
			for c := range rs {
				rs[c] = New(url)
				defer rs[c].Close()
			}
			benchConcurrent(b, clients, func(c, i int) error {
				_, err := rs[c].Find("bench-hot", nil)
				return err
			})
		})
	}
}

func BenchmarkRemoteFindCold(b *testing.B) {
	for _, clients := range benchClients {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			url := benchService(b)
			seed := New(url)
			if err := seed.Put(storetest.MkProfile("bench-hot", nil, 16)); err != nil {
				b.Fatal(err)
			}
			seed.Close()
			rs := make([]*Remote, clients)
			for c := range rs {
				rs[c] = New(url, WithCacheSize(0))
				defer rs[c].Close()
			}
			benchConcurrent(b, clients, func(c, i int) error {
				_, err := rs[c].Find("bench-hot", nil)
				return err
			})
		})
	}
}
