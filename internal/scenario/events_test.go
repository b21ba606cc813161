package scenario

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"synapse/internal/cluster"
)

// eventSpec is a two-node mix whose first node fails mid-run: both md
// instances land on "a" (first_fit), die with it at 500ms, and retry on
// "b".
func eventSpec() *Spec {
	noContention := 0.0
	return &Spec{
		Version: SpecVersion,
		Name:    "failover",
		Seed:    42,
		Cluster: &cluster.Spec{
			Policy:     cluster.PolicyFirstFit,
			Contention: &noContention,
			Nodes: []cluster.NodeSpec{
				{Name: "a", Machine: "stampede", Cores: 4},
				{Name: "b", Machine: "stampede", Cores: 4},
			},
		},
		Events: &Events{
			Version: EventsVersion,
			Timeline: []ClusterEvent{
				{At: Duration(500 * time.Millisecond), Kind: EventNodeDown, Node: "a"},
				{At: Duration(10 * time.Second), Kind: EventNodeUp, Node: "a"},
			},
		},
		Workloads: []Workload{{
			Name:      "md",
			Profile:   ProfileRef{Command: "mdsim", Tags: mdTags},
			Arrival:   Arrival{Process: ArrivalBurst, Burst: 2, Every: Duration(time.Second), Bursts: 1},
			Resources: &Resources{Cores: 2},
		}},
	}
}

// TestNodeDownKillsAndRetries: a failing node's instances are killed,
// re-queued, and complete on the surviving node; nothing is lost.
func TestNodeDownKillsAndRetries(t *testing.T) {
	rep := runReport(t, eventSpec(), 0)
	if rep.Emulations != 2 {
		t.Fatalf("emulations = %d, want 2 (kill-and-retry must not lose work)", rep.Emulations)
	}
	if rep.Killed != 2 {
		t.Fatalf("killed = %d, want 2 (both ran on the failed node)", rep.Killed)
	}
	if rep.Dropped != 0 {
		t.Fatalf("dropped = %d, want 0", rep.Dropped)
	}
	cr := rep.Cluster
	if cr.Placements != rep.Emulations+rep.Killed {
		t.Fatalf("placements %d != emulations %d + killed %d", cr.Placements, rep.Emulations, rep.Killed)
	}
	if cr.Events != 2 {
		t.Fatalf("events_applied = %d, want 2", cr.Events)
	}
	var a, b NodeReport
	for _, n := range cr.Nodes {
		if n.Name == "a" {
			a = n
		} else {
			b = n
		}
	}
	if a.Killed != 2 || a.Placed != 2 {
		t.Fatalf("failed node a = %+v, want 2 placed / 2 killed", a)
	}
	// The node came back at 10s (after the retries completed) — final
	// state up, reported as empty.
	if a.State != "" {
		t.Fatalf("node a final state = %q, want up (omitted)", a.State)
	}
	if b.Placed != 2 || b.Killed != 0 {
		t.Fatalf("survivor node b = %+v, want 2 placed / 0 killed", b)
	}
	// Retried sojourn covers the lost partial service: latency exceeds
	// one service time by at least the 500ms spent on the dead node.
	wr := rep.Workloads[0]
	if wr.Killed != 2 {
		t.Fatalf("workload killed = %d, want 2", wr.Killed)
	}
	if wr.Latency.Max.D() < wr.Service.Max.D()+500*time.Millisecond {
		t.Fatalf("latency max %v does not cover the lost 500ms before service %v", wr.Latency.Max, wr.Service.Max)
	}
}

// TestNodeDownStrandsWithoutCapacity: killing the only node with no
// recovery strands the retries; they are accounted as dropped, not lost.
func TestNodeDownStrandsWithoutCapacity(t *testing.T) {
	spec := eventSpec()
	spec.Cluster.Nodes = spec.Cluster.Nodes[:1] // only node "a"
	spec.Events.Timeline = spec.Events.Timeline[:1]
	rep := runReport(t, spec, 0)
	if rep.Emulations != 0 || rep.Killed != 2 || rep.Dropped != 2 {
		t.Fatalf("emulations/killed/dropped = %d/%d/%d, want 0/2/2", rep.Emulations, rep.Killed, rep.Dropped)
	}
	if rep.Cluster.Nodes[0].State != cluster.StateDown {
		t.Fatalf("node state = %q, want down", rep.Cluster.Nodes[0].State)
	}
}

// TestNodeDownCutsStrandedClosedChains: a stranded closed-loop instance
// drops the rest of its chain with it, keeping conservation exact.
func TestNodeDownCutsStrandedClosedChains(t *testing.T) {
	spec := eventSpec()
	spec.Cluster.Nodes = spec.Cluster.Nodes[:1]
	spec.Events.Timeline = spec.Events.Timeline[:1]
	spec.Workloads[0].Arrival = Arrival{Process: ArrivalClosed, Clients: 1, Iterations: 5}
	rep := runReport(t, spec, 0)
	if got := rep.Emulations + rep.Dropped; got != 5 {
		t.Fatalf("emulations %d + dropped %d = %d, want 5 (chain must drop with its stranded head)",
			rep.Emulations, rep.Dropped, got)
	}
	if rep.Killed != 1 {
		t.Fatalf("killed = %d, want 1 (only the first iteration ever ran)", rep.Killed)
	}
}

// TestNodeDrainFinishesRunning: draining refuses new placements but lets
// running instances finish — no kills, and the drained node takes nothing
// after the drain point.
func TestNodeDrainFinishesRunning(t *testing.T) {
	spec := eventSpec()
	spec.Events.Timeline = []ClusterEvent{
		{At: Duration(500 * time.Millisecond), Kind: EventNodeDrain, Node: "a"},
	}
	// A second burst arrives after the drain: it must all land on "b".
	spec.Workloads[0].Arrival.Bursts = 2
	rep := runReport(t, spec, 0)
	if rep.Killed != 0 {
		t.Fatalf("drain killed %d instances", rep.Killed)
	}
	if rep.Emulations != 4 {
		t.Fatalf("emulations = %d, want 4", rep.Emulations)
	}
	for _, n := range rep.Cluster.Nodes {
		switch n.Name {
		case "a":
			if n.Placed != 2 || n.State != cluster.StateDraining {
				t.Fatalf("drained node = %+v, want 2 placed, draining", n)
			}
		case "b":
			if n.Placed != 2 {
				t.Fatalf("survivor = %+v, want 2 placed", n)
			}
		}
	}
}

// TestAddNodesEnablesWideWorkload: a request too wide for every initial
// node compiles (an event will add a node it fits) and waits for that
// node to join.
func TestAddNodesEnablesWideWorkload(t *testing.T) {
	noContention := 0.0
	spec := &Spec{
		Version: SpecVersion,
		Name:    "grow",
		Cluster: &cluster.Spec{
			Contention: &noContention,
			Nodes:      []cluster.NodeSpec{{Name: "small", Machine: "stampede", Cores: 1}},
		},
		Events: &Events{
			Version: EventsVersion,
			Timeline: []ClusterEvent{
				{At: Duration(2 * time.Second), Kind: EventAddNodes,
					Add: &cluster.NodeSpec{Name: "big", Machine: "stampede", Cores: 4}},
			},
		},
		Workloads: []Workload{{
			Name:      "wide",
			Profile:   ProfileRef{Command: "mdsim", Tags: mdTags},
			Arrival:   Arrival{Process: ArrivalBurst, Burst: 2, Every: Duration(time.Second), Bursts: 1},
			Resources: &Resources{Cores: 4},
		}},
	}
	rep := runReport(t, spec, 0)
	if rep.Emulations != 2 {
		t.Fatalf("emulations = %d, want 2", rep.Emulations)
	}
	wr := rep.Workloads[0]
	// Arrived at 0, the node only joined at 2s: everything waited for it.
	if wr.Wait.Max.D() < 2*time.Second {
		t.Fatalf("wait max = %v, want >= 2s (blocked until add_nodes)", wr.Wait.Max)
	}
	if len(rep.Cluster.Nodes) != 2 {
		t.Fatalf("nodes = %d, want 2 after add_nodes", len(rep.Cluster.Nodes))
	}
	big := rep.Cluster.Nodes[1]
	if big.Name != "big" || big.Placed != 2 {
		t.Fatalf("added node = %+v, want name big with 2 placed", big)
	}
}

// TestAutoscaleRelievesPressure: queue pressure grows the pool, cutting
// the makespan versus the fixed pool, and the report says how many nodes
// the rule added.
func TestAutoscaleRelievesPressure(t *testing.T) {
	noContention := 0.0
	mk := func(auto *Autoscale) *Spec {
		s := &Spec{
			Version: SpecVersion,
			Name:    "autoscale",
			Cluster: &cluster.Spec{
				Contention: &noContention,
				Nodes:      []cluster.NodeSpec{{Name: "base", Machine: "stampede", Cores: 1}},
			},
			Workloads: []Workload{{
				Name:      "burst",
				Profile:   ProfileRef{Command: "mdsim", Tags: mdTags},
				Arrival:   Arrival{Process: ArrivalBurst, Burst: 6, Every: Duration(time.Second), Bursts: 1},
				Resources: &Resources{Cores: 1},
			}},
		}
		if auto != nil {
			s.Events = &Events{Version: EventsVersion, Autoscale: auto}
		}
		return s
	}
	fixed := runReport(t, mk(nil), 0)
	scaled := runReport(t, mk(&Autoscale{
		CheckEvery: Duration(500 * time.Millisecond),
		QueueHigh:  2,
		Add:        cluster.NodeSpec{Name: "as", Machine: "stampede", Cores: 1},
		MaxNodes:   4,
	}), 0)
	if scaled.Emulations != 6 || fixed.Emulations != 6 {
		t.Fatalf("emulations = %d/%d, want 6/6", scaled.Emulations, fixed.Emulations)
	}
	if scaled.Cluster.Autoscaled == 0 {
		t.Fatal("autoscale added no nodes under queue pressure")
	}
	if scaled.Makespan.D() >= fixed.Makespan.D() {
		t.Fatalf("autoscale did not help: %v vs fixed %v", scaled.Makespan, fixed.Makespan)
	}
	if got := len(scaled.Cluster.Nodes); got != 1+scaled.Cluster.Autoscaled {
		t.Fatalf("nodes = %d, want base + %d autoscaled", got, scaled.Cluster.Autoscaled)
	}
	for _, n := range scaled.Cluster.Nodes[1:] {
		if !strings.HasPrefix(n.Name, "as-") {
			t.Fatalf("autoscaled node name = %q, want as-N", n.Name)
		}
	}
}

// TestEventDeterminism: events, kills, retries and autoscaling stay
// inside the (spec, seed) contract — byte-identical reports at any worker
// count, different seeds diverge (jitter makes seed reach the report).
func TestEventDeterminism(t *testing.T) {
	mk := func(seed uint64) *Spec {
		s := eventSpec()
		s.Seed = seed
		s.Cluster.Policy = cluster.PolicyRandom
		s.Workloads[0].Arrival = Arrival{Process: ArrivalPoisson, Rate: 2, Count: 12}
		s.Workloads[0].Emulation.Load = 0.1
		s.Workloads[0].Emulation.LoadJitter = 0.05
		s.Events.Autoscale = &Autoscale{
			CheckEvery: Duration(time.Second),
			QueueHigh:  3,
			Add:        cluster.NodeSpec{Name: "as", Machine: "comet", Cores: 2},
			MaxNodes:   4,
		}
		return s
	}
	a := marshal(t, runReport(t, mk(42), 1))
	b := marshal(t, runReport(t, mk(42), 8))
	if !bytes.Equal(a, b) {
		t.Fatalf("worker count changed an event-driven report:\n%s\n---\n%s", a, b)
	}
	c := marshal(t, runReport(t, mk(43), 1))
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical event-driven reports")
	}
}

// TestEventValidation: malformed events are rejected with positional
// errors naming the offending entry.
func TestEventValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"unknown version", func(s *Spec) { s.Events.Version = 9 }, "unknown events version 9"},
		{"no cluster", func(s *Spec) { s.Cluster = nil; s.Workloads[0].Resources = nil }, "events need a cluster block"},
		{"negative time", func(s *Spec) { s.Events.Timeline[1].At = Duration(-time.Second) }, "timeline[1]: negative time"},
		{"missing kind", func(s *Spec) { s.Events.Timeline[1].Kind = "" }, "timeline[1]: missing event kind"},
		{"unknown kind", func(s *Spec) { s.Events.Timeline[1].Kind = "reboot" }, `timeline[1]: unknown event kind "reboot"`},
		{"missing target", func(s *Spec) { s.Events.Timeline[0].Node = "" }, "timeline[0]: node_down needs a target node"},
		{"unknown target", func(s *Spec) { s.Events.Timeline[1].Node = "ghost" }, `timeline[1]: node_up: unknown node "ghost"`},
		{"add on node event", func(s *Spec) {
			s.Events.Timeline[0].Add = &cluster.NodeSpec{Machine: "comet"}
		}, "timeline[0]: node_down does not take an add block"},
		{"add without block", func(s *Spec) {
			s.Events.Timeline[0] = ClusterEvent{Kind: EventAddNodes}
		}, "timeline[0]: add_nodes needs an add block"},
		{"add without machine", func(s *Spec) {
			s.Events.Timeline[0] = ClusterEvent{Kind: EventAddNodes, Add: &cluster.NodeSpec{}}
		}, "timeline[0]: add_nodes: missing machine"},
		{"add duplicate name", func(s *Spec) {
			s.Events.Timeline[0] = ClusterEvent{Kind: EventAddNodes, Add: &cluster.NodeSpec{Name: "b", Machine: "comet"}}
		}, `timeline[0]: add_nodes: duplicate node name "b"`},
		{"add past the node cap", func(s *Spec) {
			// eventSpec starts with two nodes; the refusal must come before
			// a billion names are expanded.
			s.Events.Timeline[0] = ClusterEvent{Kind: EventAddNodes, Add: &cluster.NodeSpec{Name: "c", Machine: "comet", Count: 1_000_000_000}}
		}, "timeline[0]: add_nodes: 1000000000 more nodes grow the pool past 65536"},
		{"adds sum past the node cap", func(s *Spec) {
			s.Events.Timeline = []ClusterEvent{
				{Kind: EventAddNodes, Add: &cluster.NodeSpec{Name: "c", Machine: "comet", Count: cluster.MaxNodes - 2}},
				{Kind: EventAddNodes, Add: &cluster.NodeSpec{Name: "d", Machine: "comet"}},
			}
		}, "timeline[1]: add_nodes: 1 more nodes grow the pool past 65536"},
		{"autoscale bad cadence", func(s *Spec) {
			s.Events.Autoscale = &Autoscale{QueueHigh: 1, Add: cluster.NodeSpec{Machine: "comet"}}
		}, "autoscale: check_every must be positive"},
		{"autoscale bad thresholds", func(s *Spec) {
			s.Events.Autoscale = &Autoscale{CheckEvery: Duration(time.Second), QueueHigh: 2, QueueLow: 2,
				Add: cluster.NodeSpec{Machine: "comet"}}
		}, "autoscale: queue_low 2 outside [0, queue_high 2)"},
		{"autoscale missing machine", func(s *Spec) {
			s.Events.Autoscale = &Autoscale{CheckEvery: Duration(time.Second), QueueHigh: 2}
		}, "autoscale: add: missing machine"},
		{"autoscale name squats on a node", func(s *Spec) {
			s.Cluster.Nodes[0].Name = "as-3"
			s.Events.Timeline = nil
			s.Events.Autoscale = &Autoscale{CheckEvery: Duration(time.Second), QueueHigh: 2,
				Add: cluster.NodeSpec{Name: "as", Machine: "comet"}}
		}, `autoscale: add name "as" collides with node "as-3"`},
		{"autoscale name squats on an added node", func(s *Spec) {
			s.Events.Timeline = []ClusterEvent{{At: Duration(time.Second), Kind: EventAddNodes,
				Add: &cluster.NodeSpec{Name: "as", Machine: "comet", Count: 2}}}
			s.Events.Autoscale = &Autoscale{CheckEvery: Duration(time.Second), QueueHigh: 2,
				Add: cluster.NodeSpec{Name: "as", Machine: "comet"}}
		}, `autoscale: add name "as" collides with node "as-0"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := eventSpec()
			tc.mut(s)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not contain %q", err, tc.want)
			}
		})
	}

	// Ordering context: a target added later in virtual time is unknown
	// when an earlier event fires, even if add_nodes comes first in the
	// list.
	s := eventSpec()
	s.Events.Timeline = []ClusterEvent{
		{At: Duration(5 * time.Second), Kind: EventAddNodes,
			Add: &cluster.NodeSpec{Name: "late", Machine: "comet"}},
		{At: Duration(time.Second), Kind: EventNodeDown, Node: "late"},
	}
	err := s.Validate()
	if err == nil || !strings.Contains(err.Error(), `timeline[1]: node_down: unknown node "late"`) {
		t.Fatalf("future-node target accepted: %v", err)
	}
}

// TestEventMachineResolution: an event that references an unresolvable
// machine fails at compile with the event's index.
func TestEventMachineResolution(t *testing.T) {
	spec := eventSpec()
	spec.Events.Timeline = append(spec.Events.Timeline, ClusterEvent{
		At: Duration(time.Second), Kind: EventAddNodes,
		Add: &cluster.NodeSpec{Name: "x", Machine: "warp-drive"},
	})
	st := seedStore(t, "mdsim")
	_, err := Run(context.Background(), spec, st, RunOptions{})
	if err == nil || !strings.Contains(err.Error(), "timeline[2]") {
		t.Fatalf("expected positional machine error, got %v", err)
	}
}

// TestTimelineSeries: the bucketed time-series accounts every arrival and
// completion, bounds occupancy by capacity, and shows the failure's kill.
func TestTimelineSeries(t *testing.T) {
	spec := eventSpec()
	spec.Timeline = &TimelineSpec{Bucket: Duration(time.Second)}
	rep := runReport(t, spec, 0)
	tl := rep.Timeline
	if tl == nil {
		t.Fatal("no timeline in report")
	}
	if tl.Bucket.D() != time.Second {
		t.Fatalf("bucket = %v", tl.Bucket)
	}
	var arrivals, completions, kills int
	for _, b := range tl.Buckets {
		arrivals += b.Arrivals
		completions += b.Completions
		kills += b.Kills
		for _, n := range b.Nodes {
			if n.Occupancy < 0 || n.Occupancy > 1.000001 {
				t.Fatalf("bucket %v node %s occupancy %g outside [0, 1]", b.Start, n.Node, n.Occupancy)
			}
		}
	}
	if completions != rep.Emulations {
		t.Fatalf("timeline completions %d != emulations %d", completions, rep.Emulations)
	}
	if kills != rep.Killed {
		t.Fatalf("timeline kills %d != killed %d", kills, rep.Killed)
	}
	// Arrivals include the two originals; kills re-queue but do not
	// re-arrive.
	if arrivals != 2 {
		t.Fatalf("timeline arrivals = %d, want 2", arrivals)
	}
	if got, want := len(tl.Buckets), int(rep.Makespan.D()/time.Second)+1; got != want {
		t.Fatalf("buckets = %d, want %d over makespan %v", got, want, rep.Makespan)
	}

	// CSV rendering: header + one row per bucket, stable columns.
	var csv bytes.Buffer
	if err := rep.TimelineCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != len(tl.Buckets)+1 {
		t.Fatalf("csv rows = %d, want %d", len(lines), len(tl.Buckets)+1)
	}
	header := lines[0]
	for _, col := range []string{"start_s", "queue_peak", "done:md", "queue:md", "occ:a", "occ:b"} {
		if !strings.Contains(header, col) {
			t.Fatalf("csv header %q missing %q", header, col)
		}
	}

	// The timeline is part of the determinism contract too.
	a := marshal(t, runReport(t, spec, 1))
	b := marshal(t, runReport(t, spec, 8))
	if !bytes.Equal(a, b) {
		t.Fatal("worker count changed the timeline")
	}
}

// TestTimelineCoversPostMakespanKills: a kill (and the resulting strand)
// landing after the last completion must still appear in the timeline —
// clipping at the makespan would hide exactly the failure the
// time-series exists to show.
func TestTimelineCoversPostMakespanKills(t *testing.T) {
	noContention := 0.0
	spec := &Spec{
		Version:  SpecVersion,
		Name:     "late-kill",
		Timeline: &TimelineSpec{Bucket: Duration(time.Second)},
		Cluster: &cluster.Spec{
			Contention: &noContention,
			Nodes:      []cluster.NodeSpec{{Name: "solo", Machine: "stampede", Cores: 4}},
		},
		Events: &Events{
			Version: EventsVersion,
			Timeline: []ClusterEvent{
				{At: Duration(5 * time.Second), Kind: EventNodeDown, Node: "solo"},
			},
		},
		Workloads: []Workload{
			{
				// Completes around 1s — the run's only completion.
				Name:      "quick",
				Profile:   ProfileRef{Command: "sleep", Tags: sleepTags},
				Arrival:   Arrival{Process: ArrivalBurst, Burst: 1, Every: Duration(time.Second), Bursts: 1},
				Resources: &Resources{Cores: 1},
			},
			{
				// Still running at 5s: killed, then stranded forever.
				Name:      "doomed",
				Profile:   ProfileRef{Command: "mdsim", Tags: mdTags},
				Arrival:   Arrival{Process: ArrivalBurst, Burst: 1, Every: Duration(time.Second), Bursts: 1},
				Resources: &Resources{Cores: 2},
				Emulation: Emulation{Load: 0.8}, // slow it well past 5s
			},
		},
	}
	rep := runReport(t, spec, 0)
	if rep.Killed != 1 || rep.Emulations != 1 || rep.Dropped != 1 {
		t.Fatalf("killed/emulations/dropped = %d/%d/%d, want 1/1/1",
			rep.Killed, rep.Emulations, rep.Dropped)
	}
	if rep.Makespan.D() >= 5*time.Second {
		t.Fatalf("makespan %v not before the 5s failure; the test needs a post-makespan kill", rep.Makespan)
	}
	kills := 0
	for _, b := range rep.Timeline.Buckets {
		kills += b.Kills
	}
	if kills != rep.Killed {
		t.Fatalf("timeline kills %d != report killed %d (post-makespan kill clipped)", kills, rep.Killed)
	}
	if got, want := len(rep.Timeline.Buckets), 6; got != want {
		t.Fatalf("buckets = %d, want %d (through the 5s kill)", got, want)
	}
}

// TestTimelineWithoutCluster: the time-series works for plain mixes —
// throughput and queue depth only, no node columns.
func TestTimelineWithoutCluster(t *testing.T) {
	spec := mixSpec()
	spec.Timeline = &TimelineSpec{Bucket: Duration(5 * time.Second)}
	rep := runReport(t, spec, 0)
	if rep.Timeline == nil {
		t.Fatal("no timeline")
	}
	total := 0
	for _, b := range rep.Timeline.Buckets {
		total += b.Completions
		if len(b.Nodes) != 0 {
			t.Fatal("unclustered timeline grew node series")
		}
	}
	if total != rep.Emulations {
		t.Fatalf("timeline completions %d != emulations %d", total, rep.Emulations)
	}
	var csv bytes.Buffer
	if err := rep.TimelineCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.Split(csv.String(), "\n")[0], "occ:") {
		t.Fatal("unclustered csv has occupancy columns")
	}
}

// TestTimelineBucketTooFine: a bucket that would explode the report fails
// loudly instead of ballooning memory.
func TestTimelineBucketTooFine(t *testing.T) {
	spec := mixSpec()
	spec.Timeline = &TimelineSpec{Bucket: Duration(time.Nanosecond)}
	st := seedStore(t, "mdsim", "sleep")
	_, err := Run(context.Background(), spec, st, RunOptions{})
	if err == nil || !strings.Contains(err.Error(), "buckets") {
		t.Fatalf("expected bucket-overflow error, got %v", err)
	}
}
