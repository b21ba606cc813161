package cluster

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"synapse/internal/stats"
)

type jsonRaw = json.RawMessage

// twoNodeSpec is a small heterogeneous cluster: a 4-core and a 16-core node.
func twoNodeSpec() *Spec {
	return &Spec{
		Policy: PolicyFirstFit,
		Nodes: []NodeSpec{
			{Name: "small", Machine: "thinkie"}, // 4 cores in the catalog
			{Name: "big", Machine: "stampede"},  // 16 cores
		},
	}
}

func mustNew(t *testing.T, s *Spec) *Cluster {
	t.Helper()
	c, err := New(s, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestValidateRejections(t *testing.T) {
	neg := -0.5
	big := 1.5
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"unknown policy", func(s *Spec) { s.Policy = "round_robin" }, "unknown policy"},
		{"no nodes", func(s *Spec) { s.Nodes = nil }, "no nodes"},
		{"negative contention", func(s *Spec) { s.Contention = &neg }, "outside [0, 1]"},
		{"contention above one", func(s *Spec) { s.Contention = &big }, "outside [0, 1]"},
		{"node without machine", func(s *Spec) { s.Nodes[0].Machine = "" }, "no machine"},
		{"negative count", func(s *Spec) { s.Nodes[0].Count = -1 }, "negative count"},
		{"negative cores", func(s *Spec) { s.Nodes[0].Cores = -2 }, "negative cores"},
		{"negative mem", func(s *Spec) { s.Nodes[0].MemGB = -1 }, "mem_gb -1 outside"},
		{"mem overflows bytes", func(s *Spec) { s.Nodes[0].MemGB = 2e10 }, "outside [0,"},
		{"bad inline machine", func(s *Spec) {
			s.Machines = map[string]jsonRaw{"x": jsonRaw(`{"name": "x", "clock_ghz": 0}`)}
		}, "inline machine"},
		{"unknown field in inline machine", func(s *Spec) {
			s.Machines = map[string]jsonRaw{"x": jsonRaw(`{"name": "x", "clock_ghz": 2, "cores": 4, "mem_gb": 8, "mem_bw_gbs": 10, "ghz": 3}`)}
		}, "unknown field"},
		{"inline machine name differs from key", func(s *Spec) {
			// Downstream handles are keyed by model name: a mismatch
			// would let two models share one name and swap machines.
			s.Machines = map[string]jsonRaw{"fast": jsonRaw(`{"name": "stampede", "clock_ghz": 9, "cores": 4, "mem_gb": 8, "mem_bw_gbs": 10}`)}
		}, "must match its key"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := twoNodeSpec()
			tc.mut(s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestNewRejectsUnknownMachine(t *testing.T) {
	s := twoNodeSpec()
	s.Nodes[0].Machine = "deepthought"
	if _, err := New(s, nil); err == nil || !strings.Contains(err.Error(), "deepthought") {
		t.Fatalf("unknown machine accepted: %v", err)
	}
}

func TestNewRejectsDuplicateNodeNames(t *testing.T) {
	s := twoNodeSpec()
	s.Nodes[1].Name = "small"
	if _, err := New(s, nil); err == nil || !strings.Contains(err.Error(), "duplicate node name") {
		t.Fatalf("duplicate node names accepted: %v", err)
	}
}

func TestCountExpandsAndNames(t *testing.T) {
	s := &Spec{Nodes: []NodeSpec{{Machine: "comet", Count: 3}}}
	c := mustNew(t, s)
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	for i, want := range []string{"comet-0", "comet-1", "comet-2"} {
		if got := c.Info(i).Name; got != want {
			t.Errorf("node %d name = %q, want %q", i, got, want)
		}
	}
}

func TestInlineMachineResolution(t *testing.T) {
	s := &Spec{
		Machines: map[string]jsonRaw{
			"tiny": jsonRaw(`{"name": "tiny", "clock_ghz": 1, "cores": 2, "mem_gb": 4, "mem_bw_gbs": 10}`),
		},
		Nodes: []NodeSpec{{Machine: "tiny"}},
	}
	c := mustNew(t, s)
	if got := c.Info(0); got.Machine != "tiny" || got.Cores != 2 {
		t.Fatalf("inline machine node = %+v", got)
	}
	if len(c.Models()) != 1 || c.Models()[0].Name != "tiny" {
		t.Fatalf("Models = %v", c.Models())
	}
}

func TestNodeOverrides(t *testing.T) {
	s := &Spec{Nodes: []NodeSpec{{Machine: "stampede", Cores: 2, MemGB: 1}}}
	c := mustNew(t, s)
	info := c.Info(0)
	if info.Cores != 2 || info.MemBytes != 1<<30 {
		t.Fatalf("overrides ignored: %+v", info)
	}
	if c.Fits(Request{Cores: 3}) {
		t.Error("request wider than the overridden node should not fit")
	}
	if !c.Fits(Request{Cores: 2, MemBytes: 1 << 30}) {
		t.Error("exact-fit request rejected")
	}
}

func TestFirstFitPacksInOrder(t *testing.T) {
	c := mustNew(t, twoNodeSpec())
	r := Request{Cores: 2}
	idx, occ, ok := c.Place(r)
	if !ok || idx != 0 || occ != 0 {
		t.Fatalf("first placement = (%d, %g, %v), want node 0 at occ 0", idx, occ, ok)
	}
	idx, occ, ok = c.Place(r)
	if !ok || idx != 0 || occ != 0.5 {
		t.Fatalf("second placement = (%d, %g, %v), want node 0 at occ 0.5", idx, occ, ok)
	}
	// Node 0 (4 cores) is now full; spill to node 1.
	idx, occ, ok = c.Place(r)
	if !ok || idx != 1 || occ != 0 {
		t.Fatalf("third placement = (%d, %g, %v), want node 1 at occ 0", idx, occ, ok)
	}
}

func TestBestFitPrefersTightestNode(t *testing.T) {
	s := twoNodeSpec()
	s.Policy = PolicyBestFit
	c := mustNew(t, s)
	// 4-core node leaves 4-3=1 free; 16-core leaves 13: best fit is small.
	if idx, _, ok := c.Place(Request{Cores: 3}); !ok || idx != 0 {
		t.Fatalf("best fit chose node %d", idx)
	}
	// Now only the big node can host 3 more cores.
	if idx, _, ok := c.Place(Request{Cores: 3}); !ok || idx != 1 {
		t.Fatalf("best fit spill chose node %d", idx)
	}
}

func TestLeastLoadedSpreads(t *testing.T) {
	s := &Spec{
		Policy: PolicyLeastLoaded,
		Nodes:  []NodeSpec{{Name: "a", Machine: "comet"}, {Name: "b", Machine: "comet"}},
	}
	c := mustNew(t, s)
	seq := []int{0, 1, 0, 1} // alternating: equal occupancy ties break by order
	for i, want := range seq {
		idx, _, ok := c.Place(Request{Cores: 1})
		if !ok || idx != want {
			t.Fatalf("placement %d = node %d, want %d", i, idx, want)
		}
	}
}

func TestRandomPolicyIsSeedDeterministic(t *testing.T) {
	s := twoNodeSpec()
	s.Policy = PolicyRandom
	run := func(seed uint64) []int {
		c, err := New(s, stats.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		for i := 0; i < 8; i++ {
			idx, _, ok := c.Place(Request{Cores: 1})
			if !ok {
				t.Fatal("placement failed")
			}
			got = append(got, idx)
		}
		return got
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a, b)
		}
	}
}

func TestRandomPolicyNeedsRNG(t *testing.T) {
	s := twoNodeSpec()
	s.Policy = PolicyRandom
	if _, err := New(s, nil); err == nil {
		t.Fatal("random policy without generator accepted")
	}
}

func TestPlaceReleaseAccounting(t *testing.T) {
	c := mustNew(t, twoNodeSpec())
	r := Request{Cores: 4}
	idx, _, ok := c.Place(r)
	if !ok || idx != 0 {
		t.Fatalf("placement = (%d, %v)", idx, ok)
	}
	// Node 0 full: a 4-core request must go to node 1.
	if idx, _, _ := c.Place(r); idx != 1 {
		t.Fatalf("second placement = node %d, want 1", idx)
	}
	c.Release(0, r)
	if idx, _, _ := c.Place(r); idx != 0 {
		t.Fatalf("post-release placement = node %d, want 0", idx)
	}
	if got := c.Placements(); got != 3 {
		t.Errorf("placements = %d, want 3", got)
	}
	info := c.Info(0)
	if info.Placed != 2 || info.PeakCores != 4 {
		t.Errorf("node 0 accounting = %+v", info)
	}
}

func TestRejectionCounting(t *testing.T) {
	s := &Spec{Nodes: []NodeSpec{{Machine: "thinkie"}}} // 4 cores
	c := mustNew(t, s)
	if _, _, ok := c.Place(Request{Cores: 4}); !ok {
		t.Fatal("fill placement failed")
	}
	if _, _, ok := c.Place(Request{Cores: 1}); ok {
		t.Fatal("placement on a full node succeeded")
	}
	if c.Rejections() != 1 {
		t.Fatalf("rejections = %d, want 1", c.Rejections())
	}
}

func TestEffectiveLoad(t *testing.T) {
	half := 0.5
	s := twoNodeSpec()
	s.Contention = &half
	c := mustNew(t, s)
	if got := c.EffectiveLoad(0, 0.2, 0); got != 0.2 {
		t.Errorf("empty-node load = %g, want base 0.2", got)
	}
	// eff = 0.2 + (1-0.2)*0.5*0.5 = 0.4
	if got := c.EffectiveLoad(0, 0.2, 0.5); got != 0.4 {
		t.Errorf("contended load = %g, want 0.4", got)
	}
	// Machine-default contention when the spec leaves it nil.
	c2 := mustNew(t, twoNodeSpec())
	want := 0.2 + (1-0.2)*c2.Model(0).Threading.Contention*0.5
	if got := c2.EffectiveLoad(0, 0.2, 0.5); got != want {
		t.Errorf("default-contention load = %g, want %g", got, want)
	}
	// The result stays strictly below 1 even at the extremes.
	one := 1.0
	s3 := twoNodeSpec()
	s3.Contention = &one
	c3 := mustNew(t, s3)
	if got := c3.EffectiveLoad(0, 0.99, 0.75); got >= 1 {
		t.Errorf("effective load %g reached 1", got)
	}
}

func TestBusyAccounting(t *testing.T) {
	c := mustNew(t, twoNodeSpec())
	c.AddBusy(1, 3*time.Second)
	c.AddBusy(1, time.Second)
	if got := c.Info(1).Busy; got != 4*time.Second {
		t.Fatalf("busy = %v, want 4s", got)
	}
}

func TestParseSpecStrict(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"nodes": [{"machine": "comet"}], "polcy": "best_fit"}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	s, err := ParseSpec([]byte(`{"policy": "least_loaded", "nodes": [{"machine": "comet", "count": 2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Policy != PolicyLeastLoaded || len(s.Nodes) != 1 {
		t.Fatalf("parsed spec = %+v", s)
	}
}

func TestNodeLifecycle(t *testing.T) {
	c := mustNew(t, twoNodeSpec())
	if got := c.State(0); got != StateUp {
		t.Fatalf("fresh node state = %q, want up", got)
	}
	req := Request{Cores: 1}

	// Draining and down nodes refuse placements; first_fit falls through
	// to the next node.
	c.SetDrain(0)
	if idx, _, ok := c.Place(req); !ok || idx != 1 {
		t.Fatalf("placement on drained pool = %d/%v, want node 1", idx, ok)
	}
	c.SetDown(0)
	if got := c.State(0); got != StateDown {
		t.Fatalf("state after down = %q", got)
	}
	// Draining a down node is a no-op (nothing left to drain).
	c.SetDrain(0)
	if got := c.State(0); got != StateDown {
		t.Fatalf("drain resurrected a down node: %q", got)
	}
	c.SetUp(0)
	if idx, _, ok := c.Place(req); !ok || idx != 0 {
		t.Fatalf("placement after recovery = %d/%v, want node 0", idx, ok)
	}
	if got := c.LiveNodes(); got != 2 {
		t.Fatalf("live nodes = %d, want 2", got)
	}
	c.SetDown(1)
	if got := c.LiveNodes(); got != 1 {
		t.Fatalf("live nodes after one down = %d, want 1", got)
	}

	// Idle tracks current usage, not history.
	if c.Idle(0) {
		t.Fatal("node with a placement reported idle")
	}
	c.Release(0, req)
	if !c.Idle(0) {
		t.Fatal("emptied node not idle")
	}

	c.AddKilled(0)
	c.AddKilled(0)
	if got := c.Info(0).Killed; got != 2 {
		t.Fatalf("killed = %d, want 2", got)
	}
}

func TestAddNodesMidRun(t *testing.T) {
	c := mustNew(t, twoNodeSpec())
	idx, err := c.AddNodes(NodeSpec{Name: "spare", Machine: "comet", Count: 2, Cores: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 2 || idx[0] != 2 || idx[1] != 3 || c.Len() != 4 {
		t.Fatalf("added indices = %v, len = %d", idx, c.Len())
	}
	for _, i := range idx {
		info := c.Info(i)
		if info.State != StateUp || info.Cores != 3 || info.Machine != "comet" {
			t.Fatalf("added node %d = %+v", i, info)
		}
	}
	if c.Info(2).Name != "spare-0" || c.Info(3).Name != "spare-1" {
		t.Fatalf("added names = %q, %q", c.Info(2).Name, c.Info(3).Name)
	}
	// Name collisions fail without mutating the pool.
	if _, err := c.AddNodes(NodeSpec{Name: "spare-1", Machine: "comet"}); err == nil {
		t.Fatal("duplicate added name accepted")
	}
	if c.Len() != 4 {
		t.Fatalf("failed add mutated the pool: len = %d", c.Len())
	}
	if _, err := c.AddNodes(NodeSpec{Machine: "not-a-machine"}); err == nil {
		t.Fatal("unresolvable machine accepted")
	}

	// ShapeOf resolves capacity without adding.
	cores, mem, err := c.ShapeOf(NodeSpec{Machine: "comet", MemGB: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cores == 0 || mem != 2<<30 {
		t.Fatalf("shape = %d cores / %d bytes", cores, mem)
	}
	if c.Len() != 4 {
		t.Fatal("ShapeOf mutated the pool")
	}
}

func TestExpandNames(t *testing.T) {
	if got := ExpandNames(NodeSpec{Name: "n", Machine: "comet"}); len(got) != 1 || got[0] != "n" {
		t.Fatalf("single = %v", got)
	}
	if got := ExpandNames(NodeSpec{Machine: "comet"}); len(got) != 1 || got[0] != "comet" {
		t.Fatalf("machine default = %v", got)
	}
	got := ExpandNames(NodeSpec{Name: "n", Machine: "comet", Count: 3})
	if len(got) != 3 || got[0] != "n-0" || got[2] != "n-2" {
		t.Fatalf("expanded = %v", got)
	}
}

// TestMaxNodes pins the pool bound at its boundary, on both ways a pool
// grows: a spec whose counts sum to MaxNodes validates and one more node does
// not — refused before anything expands, so an absurd count costs nothing —
// and AddNodes fills a live pool exactly to MaxNodes, refusing the next node
// without mutating it.
func TestMaxNodes(t *testing.T) {
	full := &Spec{Nodes: []NodeSpec{
		{Name: "a", Machine: "comet", Count: MaxNodes - 1},
		{Name: "b", Machine: "comet"}, // count 0 is one node
	}}
	if err := full.Validate(); err != nil {
		t.Fatalf("a spec of exactly MaxNodes nodes refused: %v", err)
	}
	over := &Spec{Nodes: append(append([]NodeSpec{}, full.Nodes...), NodeSpec{Name: "c", Machine: "comet"})}
	if err := over.Validate(); err == nil || !strings.Contains(err.Error(), "node 2 (count 1) grows the pool past 65536") {
		t.Fatalf("a spec of MaxNodes+1 nodes: err = %v, want the cap named", err)
	}
	t0 := time.Now()
	huge := &Spec{Nodes: []NodeSpec{{Machine: "comet", Count: 1_000_000_000}}}
	if _, err := New(huge, nil); err == nil || !strings.Contains(err.Error(), "past 65536") {
		t.Fatalf("a 10⁹-node spec: err = %v, want the cap named", err)
	}
	if d := time.Since(t0); d > time.Second {
		t.Errorf("refusing a 10⁹-node spec took %v: it was expanded first", d)
	}

	c := mustNew(t, twoNodeSpec())
	if _, err := c.AddNodes(NodeSpec{Name: "fill", Machine: "comet", Count: MaxNodes - 2}); err != nil {
		t.Fatalf("growing a live pool to exactly MaxNodes refused: %v", err)
	}
	if c.Len() != MaxNodes {
		t.Fatalf("pool holds %d nodes, want %d", c.Len(), MaxNodes)
	}
	if _, err := c.AddNodes(NodeSpec{Name: "straw", Machine: "comet"}); err == nil || !strings.Contains(err.Error(), "past 65536") {
		t.Fatalf("node MaxNodes+1: err = %v, want the cap named", err)
	}
	if c.Len() != MaxNodes {
		t.Fatalf("refused add mutated the pool: %d nodes", c.Len())
	}
}
