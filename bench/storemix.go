package main

import (
	"context"
	"fmt"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"synapse/internal/profile"
	"synapse/internal/sim"
	"synapse/internal/stats"
	"synapse/internal/store"
	"synapse/internal/storeclnt"
)

// The store-mix traffic: writes spread thin so documents stay small, reads
// split between a hot set the client cache revalidates (304, no body) and
// cold reads that fetch and decode a full document.
const (
	storeOps     = 2000
	storePutKeys = 1024
	storeHotKeys = 16
	putShare     = 0.2
	hotShare     = 0.6 // the remaining 0.2 are cold finds
)

type opKind uint8

const (
	opPut opKind = iota
	opFindHot
	opFindCold
	opKinds
)

var opNames = [opKinds]string{"put", "find_hot", "find_cold"}

type storeOp struct {
	kind opKind
	key  int
}

// storeConn is one closed-loop client: a caching and a cache-less Remote
// over one shared connection.
type storeConn struct {
	cached, cold *storeclnt.Remote
}

// storeEnv is the store-mix workload: the generated documents and operation
// order, and — after setup — a seeded synapsed with connected clients.
type storeEnv struct {
	cfg     *config
	dir     string
	clients int
	putKeys int         // keys written and read cold
	hotKeys int         // keys read through the client cache
	ops     [][]storeOp // one closed-loop sequence per client
	nops    int
	samples int // sample count every stored profile has
	puts    []*profile.Profile
	hots    []*profile.Profile
	daemon  *daemon
	conns   []storeConn
}

func newStoreEnv(cfg *config) *storeEnv {
	e := &storeEnv{cfg: cfg, dir: filepath.Join(cfg.outDir, "store-mix"), clients: min(runtime.NumCPU(), 4),
		putKeys: scaled(storePutKeys, cfg.scale), hotKeys: scaled(storeHotKeys, cfg.scale)}
	// Every client gets the same exact class counts; only the order and the
	// keys are drawn from the seed. A binomial draw of the mix, or an uneven
	// split of the writes between clients, would move a batch's wall-clock
	// by a few percent from seed to seed.
	rng := stats.NewRNG(sim.Stream(cfg.seed, "bench/store-mix"))
	e.ops = make([][]storeOp, e.clients)
	for c := range e.ops {
		ops := make([]storeOp, scaled(storeOps, cfg.scale)/e.clients)
		puts, hots := int(putShare*float64(len(ops))), int(hotShare*float64(len(ops)))
		for i := range ops {
			switch {
			case i < puts:
				ops[i] = storeOp{opPut, rng.Intn(e.putKeys)}
			case i < puts+hots:
				ops[i] = storeOp{opFindHot, rng.Intn(e.hotKeys)}
			default:
				ops[i] = storeOp{opFindCold, rng.Intn(e.putKeys)}
			}
		}
		for i := len(ops) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			ops[i], ops[j] = ops[j], ops[i]
		}
		e.ops[c] = ops
		e.nops += len(ops)
	}
	return e
}

// setup is everything before the first request of a batch: profile the
// template application through the CLI, start synapsed on a fresh sharded
// backend, seed every key, connect the clients and fill their caches. It
// runs before every batch, because a batch appends to the documents it
// writes and a second batch on the same daemon would read larger ones.
func (e *storeEnv) setup(ctx context.Context) error {
	e.close()
	if err := os.RemoveAll(e.dir); err != nil {
		return err
	}
	fileStore := filepath.Join(e.dir, "store")
	if _, err := runProc(ctx, e.cfg.bin("synapse"), profSmall.profileArgs(fileStore)...); err != nil {
		return err
	}
	fs, err := store.NewFile(fileStore)
	if err != nil {
		return err
	}
	set, err := fs.Find(profSmall.command, profSmall.tags)
	if err != nil {
		return fmt.Errorf("read template profile: %w", err)
	}
	template := set[len(set)-1]
	e.samples = len(template.Samples)
	doc := func(tag string, i int) *profile.Profile {
		p := template.Clone()
		p.Tags[tag] = strconv.Itoa(i)
		return p
	}
	e.puts, e.hots = e.puts[:0], e.hots[:0]
	for i := 0; i < e.putKeys; i++ {
		e.puts = append(e.puts, doc("k", i))
	}
	for i := 0; i < e.hotKeys; i++ {
		e.hots = append(e.hots, doc("hot", i))
	}

	if e.daemon, err = startDaemon(ctx, e.cfg.bin("synapsed")); err != nil {
		return err
	}
	seeder := storeclnt.New(e.daemon.url)
	errs, err := seeder.PutBatch(append(append([]*profile.Profile{}, e.puts...), e.hots...), false)
	if err != nil {
		return fmt.Errorf("seed store: %w", err)
	}
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("seed store: %w", err)
		}
	}
	e.conns = make([]storeConn, e.clients)
	for c := range e.conns {
		hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		e.conns[c] = storeConn{
			cached: storeclnt.New(e.daemon.url, storeclnt.WithHTTPClient(hc)),
			cold:   storeclnt.New(e.daemon.url, storeclnt.WithHTTPClient(hc), storeclnt.WithCacheSize(0)),
		}
		for _, p := range e.hots {
			if _, err := e.conns[c].cached.Find(p.Command, p.Tags); err != nil {
				return fmt.Errorf("warm client cache: %w", err)
			}
		}
	}
	return nil
}

func (e *storeEnv) close() {
	for _, c := range e.conns {
		c.cached.Close()
		c.cold.Close()
	}
	e.conns = nil
	if e.daemon != nil {
		e.daemon.stop()
		e.daemon = nil
	}
}

// do performs one operation and checks what came back.
func (e *storeEnv) do(c storeConn, op storeOp) error {
	switch op.kind {
	case opPut:
		return c.cached.Put(e.puts[op.key])
	case opFindHot:
		return e.checkFind(c.cached, e.hots[op.key])
	default:
		return e.checkFind(c.cold, e.puts[op.key])
	}
}

// checkFind reads want's key and verifies the newest profile of the set is
// the document that was stored there.
func (e *storeEnv) checkFind(r *storeclnt.Remote, want *profile.Profile) error {
	set, err := r.Find(want.Command, want.Tags)
	if err != nil {
		return err
	}
	last := set[len(set)-1]
	if last.Command != want.Command || !maps.Equal(last.Tags, want.Tags) || len(last.Samples) != e.samples {
		return fmt.Errorf("find %v: got %q %v with %d samples", want.Tags, last.Command, last.Tags, len(last.Samples))
	}
	return nil
}

// opTimes collects per-operation latencies (ms) by class, and the first few
// operations as spans, when a batch is traced.
type opTimes struct {
	mu     sync.Mutex
	ms     [opKinds][]float64
	rec    *recorder
	run    int // pass number
	parent int // the batch span
}

// batch runs every client's operation sequence once, concurrently, and gates
// it: every operation succeeds and verifies, and the
// final key count matches. times is nil on untraced batches.
func (e *storeEnv) batch(times *opTimes) runSample {
	cpu0 := e.daemon.cpu() + selfCPU()
	failed := make([]int, e.clients)
	firstErr := make([]error, e.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < e.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local [opKinds][]float64
			for _, op := range e.ops[c] {
				var span int
				if times != nil {
					span = times.rec.beginBulk("storeclnt."+opNames[op.kind], times.run, times.parent)
				}
				t0 := time.Now()
				err := e.do(e.conns[c], op)
				if times != nil {
					local[op.kind] = append(local[op.kind], float64(time.Since(t0))/1e6)
					times.rec.end(span)
				}
				if err != nil {
					failed[c]++
					if firstErr[c] == nil {
						firstErr[c] = err
					}
				}
			}
			if times != nil {
				times.mu.Lock()
				for k := range local {
					times.ms[k] = append(times.ms[k], local[k]...)
				}
				times.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	s := runSample{wall: time.Since(start).Seconds(), ops: e.nops}
	s.cpu = e.daemon.cpu() + selfCPU() - cpu0
	s.rssMB = e.daemon.hwmMB()
	for c := range failed {
		s.failed += failed[c]
		if s.err == nil {
			s.err = firstErr[c]
		}
	}
	if keys, err := e.conns[0].cold.Keys(); err != nil || len(keys) != e.putKeys+e.hotKeys {
		s.failed, s.err = s.ops, fmt.Errorf("final key count %d, want %d (err %v)", len(keys), e.putKeys+e.hotKeys, err)
	}
	return s
}
