package dist

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"synapse/internal/cluster"
	"synapse/internal/scenario"
)

// randomDistSpec draws a bounded random scenario — 1-3 workloads over the
// profiled commands, every arrival process, jittered loads, and usually a
// random cluster with a random fault timeline — mirroring the scenario
// package's property generator so the distributed invariants face the same
// adversarial inputs the local engine does.
func randomDistSpec(rng *rand.Rand) *scenario.Spec {
	machines := []string{"stampede", "comet", "thinkie"}
	spec := &scenario.Spec{
		Version:       scenario.SpecVersion,
		Name:          "dist-property",
		Seed:          rng.Uint64(),
		MaxConcurrent: rng.Intn(4), // 0 = unlimited
	}
	clustered := rng.Intn(4) > 0 // 3 in 4 draws get a cluster + events
	if clustered {
		policies := []string{
			cluster.PolicyFirstFit, cluster.PolicyBestFit,
			cluster.PolicyLeastLoaded, cluster.PolicyRandom,
		}
		contention := rng.Float64()
		spec.Cluster = &cluster.Spec{
			Policy:     policies[rng.Intn(len(policies))],
			Contention: &contention,
		}
		nodes := 1 + rng.Intn(3)
		for n := 0; n < nodes; n++ {
			spec.Cluster.Nodes = append(spec.Cluster.Nodes, cluster.NodeSpec{
				Name:    string(rune('a' + n)),
				Machine: machines[rng.Intn(len(machines))],
				Cores:   1 + rng.Intn(4),
			})
		}
	}
	cmds := []string{"mdsim", "sleep"}
	tags := []map[string]string{{"steps": "10000"}, {"seconds": "1"}}
	wls := 1 + rng.Intn(3)
	for i := 0; i < wls; i++ {
		pick := rng.Intn(len(cmds))
		w := scenario.Workload{
			Name:          fmt.Sprintf("w%d", i),
			Profile:       scenario.ProfileRef{Command: cmds[pick], Tags: tags[pick]},
			MaxConcurrent: rng.Intn(3),
		}
		if clustered {
			w.Resources = &scenario.Resources{Cores: 1} // always fits the smallest node
		} else {
			w.Emulation.Machine = machines[rng.Intn(len(machines))]
		}
		if rng.Intn(2) == 0 {
			w.Emulation.Load = 0.3 * rng.Float64()
			w.Emulation.LoadJitter = 0.2 * rng.Float64()
		}
		switch rng.Intn(4) {
		case 0:
			w.Arrival = scenario.Arrival{Process: scenario.ArrivalClosed, Clients: 1 + rng.Intn(3), Iterations: 1 + rng.Intn(3)}
		case 1:
			w.Arrival = scenario.Arrival{Process: scenario.ArrivalPoisson, Rate: 0.1 + rng.Float64(), Count: 1 + rng.Intn(8)}
		case 2:
			w.Arrival = scenario.Arrival{Process: scenario.ArrivalConstant, Rate: 0.1 + rng.Float64(), Count: 1 + rng.Intn(8)}
		case 3:
			w.Arrival = scenario.Arrival{Process: scenario.ArrivalBurst, Burst: 1 + rng.Intn(4),
				Every: scenario.Duration(time.Duration(1+rng.Intn(4)) * time.Second), Bursts: 1 + rng.Intn(3)}
		}
		spec.Workloads = append(spec.Workloads, w)
	}
	if clustered && rng.Intn(2) == 0 {
		ev := &scenario.Events{Version: scenario.EventsVersion}
		var names []string
		for i := range spec.Cluster.Nodes {
			names = append(names, cluster.ExpandNames(spec.Cluster.Nodes[i])...)
		}
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			at := scenario.Duration(time.Duration(rng.Intn(8000)) * time.Millisecond)
			switch rng.Intn(3) {
			case 0, 1: // failures dominate: they exercise kill-and-retry
				ev.Timeline = append(ev.Timeline, scenario.ClusterEvent{
					At: at, Kind: scenario.EventNodeDown, Node: names[rng.Intn(len(names))]})
			case 2:
				ev.Timeline = append(ev.Timeline, scenario.ClusterEvent{
					At: at, Kind: scenario.EventNodeUp, Node: names[rng.Intn(len(names))]})
			}
		}
		spec.Events = ev
	}
	return spec
}

// totalArrivals is the spec's total instance count, including everything
// the horizon may drop.
func totalArrivals(spec *scenario.Spec) int {
	total := 0
	for i := range spec.Workloads {
		a := &spec.Workloads[i].Arrival
		switch a.Process {
		case scenario.ArrivalClosed:
			total += a.Clients * a.Iterations
		case scenario.ArrivalPoisson, scenario.ArrivalConstant:
			total += a.Count
		case scenario.ArrivalBurst:
			total += a.Burst * a.Bursts
		}
	}
	return total
}

// TestDistConservation is the distributed property test: across random
// (spec, fleet size, scheduling config, injected worker failure) draws,
//
//   - identity: the distributed report is byte-identical to the local
//     single-process run — fleet size, chunk size and mid-run worker
//     deaths all invisible;
//   - conservation: emulations + dropped == total arrivals, and (when
//     clustered) placements == emulations + killed — distribution loses
//     and duplicates nothing.
func TestDistConservation(t *testing.T) {
	st := seedStore(t, "mdsim", "sleep")
	trials := 15
	if testing.Short() {
		trials = 4
	}
	rng := rand.New(rand.NewSource(20260808))
	ctx := context.Background()
	for trial := 0; trial < trials; trial++ {
		spec := randomDistSpec(rng)
		if err := spec.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid spec: %v", trial, err)
		}
		local, err := scenario.Run(ctx, spec, st, scenario.RunOptions{})
		if err != nil {
			t.Fatalf("trial %d: local run: %v", trial, err)
		}
		want := marshalReport(t, local)

		fleetSize := 1 + rng.Intn(4)
		cfg := Config{
			Workers: localFleet(fleetSize),
			Retry:   fastRetry(),
			// The whole scheduling config space must be invisible in the
			// report: chunked / unchunked, speculation off / adaptive /
			// hair-trigger.
			ChunkSize:  []int{0, -1, 1 + rng.Intn(4)}[rng.Intn(3)],
			StealAfter: []time.Duration{-1, 0, 5 * time.Millisecond}[rng.Intn(3)],
		}
		injected := false
		if fleetSize > 1 && rng.Intn(2) == 0 {
			// Replace one worker with one that dies after a few chunks.
			injected = true
			idx := rng.Intn(fleetSize)
			cfg.Workers[idx] = &dyingWorker{Worker: cfg.Workers[idx], dieAfter: rng.Intn(3)}
		}
		rep, co := runDist(t, spec, st, cfg)
		if got := marshalReport(t, rep); !bytes.Equal(got, want) {
			t.Fatalf("trial %d (fleet %d, chunk %d, failure %v): distributed report diverged\ngot:\n%s\nwant:\n%s",
				trial, fleetSize, cfg.ChunkSize, injected, got, want)
		}

		if got, want := rep.Emulations+rep.Dropped, totalArrivals(spec); got != want {
			t.Errorf("trial %d: emulations %d + dropped %d = %d, want %d arrivals",
				trial, rep.Emulations, rep.Dropped, got, want)
		}
		if rep.Cluster != nil && rep.Cluster.Placements != rep.Emulations+rep.Killed {
			t.Errorf("trial %d: placements %d != emulations %d + killed %d",
				trial, rep.Cluster.Placements, rep.Emulations, rep.Killed)
		}
		// An injected death may or may not fire (the draw controls how many
		// chunks the worker survives), but a death with no recomputation
		// would mean its chunks were silently lost.
		if s := co.Stats(); s.WorkerFailures > 0 && s.RecomputedChunks == 0 {
			t.Errorf("trial %d: worker died but no chunks were recomputed: %+v", trial, s)
		}
	}
}
