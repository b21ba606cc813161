package storeclnt

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"synapse/internal/store"
	"synapse/internal/store/storetest"
	"synapse/internal/storesrv"
)

// slowFirstHandler stalls the Nth request to the profiles GET endpoint until
// its context is canceled (or a long fuse burns down), and serves everything
// else immediately. It records whether the stalled request got canceled.
type slowFirstHandler struct {
	inner    http.Handler
	stallNth int64 // 1-based GET /v1/profiles request index to stall

	gets     atomic.Int64
	canceled atomic.Bool
	released chan struct{} // closed when the stalled request returns
}

func newSlowFirstHandler(inner http.Handler, nth int64) *slowFirstHandler {
	return &slowFirstHandler{inner: inner, stallNth: nth, released: make(chan struct{})}
}

func (h *slowFirstHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet && r.URL.Path == "/v1/profiles" {
		if h.gets.Add(1) == h.stallNth {
			defer close(h.released)
			select {
			case <-r.Context().Done():
				h.canceled.Store(true)
			case <-time.After(5 * time.Second):
			}
			// Too late to matter; answer with an error either way.
			http.Error(w, `{"error": "stalled", "code": "internal"}`, http.StatusInternalServerError)
			return
		}
	}
	h.inner.ServeHTTP(w, r)
}

func hedgeClient(t *testing.T, stallNth int64, opts ...Option) (*Remote, *slowFirstHandler) {
	t.Helper()
	backend := store.NewSharded(2)
	h := newSlowFirstHandler(storesrv.New(backend, storesrv.Config{}), stallNth)
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	opts = append([]Option{WithHedge(true), WithHedgeDelay(20 * time.Millisecond)}, opts...)
	return New(ts.URL, opts...), h
}

// TestHedgedGetRacesSlowPrimary: the primary GET stalls, the hedge fires
// after the configured delay, its response wins, and the caller gets exactly
// one (correct) result far sooner than the stall. The losing primary's
// request context must be canceled.
func TestHedgedGetRacesSlowPrimary(t *testing.T) {
	r, h := hedgeClient(t, 1)
	defer r.Close()

	p := storetest.MkProfile("hedged", nil, 3)
	if err := r.Put(p); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	set, err := r.Find("hedged", nil)
	took := time.Since(start)
	if err != nil {
		t.Fatalf("hedged find: %v", err)
	}
	if len(set) != 1 || set[0].Command != "hedged" {
		t.Fatalf("hedged find returned wrong result: %d profiles", len(set))
	}
	if took > 2*time.Second {
		t.Fatalf("hedge did not rescue the stalled primary (took %v)", took)
	}
	st := r.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("stats = %+v, want exactly one hedge and one win", st)
	}

	// The stalled primary must be canceled once the hedge won.
	select {
	case <-h.released:
	case <-time.After(2 * time.Second):
		t.Fatal("losing primary still in flight after the hedge won")
	}
	if !h.canceled.Load() {
		t.Fatal("losing primary was not canceled")
	}
}

// TestHedgeDoesNotDuplicateCacheFills: a hedged fetch stores its result
// once; the next read revalidates with a 304 instead of refetching, proving
// the cache saw one coherent fill.
func TestHedgeDoesNotDuplicateCacheFills(t *testing.T) {
	r, _ := hedgeClient(t, 1)
	defer r.Close()

	if err := r.Put(storetest.MkProfile("once", nil, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Find("once", nil); err != nil {
		t.Fatal(err)
	}
	if n := r.CacheLen(); n != 1 {
		t.Fatalf("cache holds %d entries after a hedged fill, want 1", n)
	}
	// A second read must be a revalidation of the single stored entry.
	if _, fr, err := r.FindDetailed(t.Context(), "once", nil); err != nil || fr.ETag == "" {
		t.Fatalf("revalidation after hedged fill: fresh=%+v err=%v", fr, err)
	}
	if n := r.CacheLen(); n != 1 {
		t.Fatalf("cache holds %d entries after revalidation, want 1", n)
	}
}

// TestQuickResponseNeverHedges: when the primary answers inside the hedge
// delay, no hedge launches at all.
func TestQuickResponseNeverHedges(t *testing.T) {
	r, h := hedgeClient(t, 0 /* stall nothing */, WithHedgeDelay(time.Second))
	defer r.Close()

	if err := r.Put(storetest.MkProfile("fast", nil, 2)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := r.Find("fast", nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := r.Stats(); st.Hedges != 0 {
		t.Fatalf("fast responses launched %d hedges", st.Hedges)
	}
	if h.gets.Load() == 0 {
		t.Fatal("server never saw a GET")
	}
}

// TestWritesNeverHedge: only idempotent GETs are hedgeable; a slow PUT must
// not be duplicated no matter how slow it is.
func TestWritesNeverHedge(t *testing.T) {
	backend := store.NewSharded(2)
	var puts atomic.Int64
	inner := storesrv.New(backend, storesrv.Config{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut {
			puts.Add(1)
			time.Sleep(60 * time.Millisecond) // far beyond the hedge delay
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	r := New(ts.URL, WithHedge(true), WithHedgeDelay(5*time.Millisecond))
	defer r.Close()

	if err := r.Put(storetest.MkProfile("slowwrite", nil, 2)); err != nil {
		t.Fatal(err)
	}
	if n := puts.Load(); n != 1 {
		t.Fatalf("server saw %d PUTs, want 1", n)
	}
	if st := r.Stats(); st.Hedges != 0 {
		t.Fatalf("a write launched %d hedges", st.Hedges)
	}
}

// TestAdaptiveHedgeDelayTracksP95: with no fixed delay configured, the hedge
// delay starts at the warmup default and converges to the observed p95.
func TestAdaptiveHedgeDelayTracksP95(t *testing.T) {
	r := New("http://unused", WithHedge(true))
	defer r.Close()

	if d := r.hedgeDelay(); d != defaultHedgeDelay {
		t.Fatalf("pre-warmup delay = %v, want %v", d, defaultHedgeDelay)
	}
	for i := 0; i < 64; i++ { // fill the ring's window
		r.lat.Observe(3 * time.Millisecond)
	}
	r.lat.Observe(40 * time.Millisecond) // one outlier inside the window
	d := r.hedgeDelay()
	if d < 3*time.Millisecond || d > 40*time.Millisecond {
		t.Fatalf("adaptive delay = %v, want within the observed latency range", d)
	}
	if d == defaultHedgeDelay {
		t.Fatal("adaptive delay never left the warmup default")
	}
}
