package main

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"time"

	"synapse/internal/cluster"
	"synapse/internal/scenario"
	"synapse/internal/sim"
)

// profileGen is one application profile the generator creates through the
// real `synapse profile` CLI.
type profileGen struct {
	command string
	tags    map[string]string
	rate    float64 // sampling rate, Hz
}

var (
	// ~12 samples: per-emulation fixed cost dominates its replay.
	profSmall = profileGen{"mdsim", map[string]string{"steps": "100000"}, 2}
	// ~10k samples, 5.6 MB on disk: per-sample replay cost dominates.
	profDeep = profileGen{"mdsim", map[string]string{"steps": "20000000"}, 10}
	// Consumes almost nothing; a third request shape for the cluster mix.
	profSleep = profileGen{"sleep", map[string]string{"seconds": "2"}, 1}
)

// profileNoiseSeed is the `synapse profile -seed` every run uses. It is held
// fixed on purpose: the noise seed moves the profiled Tx and with it the
// sample count (9,957 to 10,763 samples over ten seeds of profDeep), which
// would change the work of a run by several percent from seed to seed. The
// profile is the application being emulated; -seed varies the traffic.
const profileNoiseSeed = 20160523

func (p profileGen) ref() scenario.ProfileRef {
	return scenario.ProfileRef{Command: p.command, Tags: p.tags}
}

// workload is one benchmark workload. Scenario workloads run synapse-sim on
// a generated spec; the store workload (spec == nil) drives synapsed.
type workload struct {
	name     string
	remote   bool // replay through a two-worker loopback fleet
	profiles []profileGen
	spec     func(seed uint64, scale float64) *scenario.Spec
}

// Sizes are chosen so one run takes about a second on two cores: the driver
// allows ~25 s per invocation, and a steady median needs several runs in it.
var workloads = []workload{
	{name: "eager", profiles: []profileGen{profSmall},
		spec: func(seed uint64, scale float64) *scenario.Spec { return eagerSpec("eager", seed, scaled(4000, scale)) }},
	{name: "cluster-events", profiles: []profileGen{profSmall, profSleep},
		spec: func(seed uint64, scale float64) *scenario.Spec {
			return clusterSpec("cluster-events", seed, scaled(330, scale), scaled(66000, scale), scaled(264, scale))
		}},
	{name: "deep-profile", profiles: []profileGen{profDeep},
		spec: func(seed uint64, scale float64) *scenario.Spec {
			return &scenario.Spec{
				Version: scenario.SpecVersion, Name: "deep-profile", Seed: sim.Stream(seed, "bench/deep-profile"),
				Workloads: []scenario.Workload{{
					Name: "md-deep", Profile: profDeep.ref(),
					Arrival:   scenario.Arrival{Process: scenario.ArrivalPoisson, Rate: 2, Count: scaled(1000, scale)},
					Emulation: jittered("stampede"),
				}},
			}
		}},
	{name: "dist-eager", remote: true, profiles: []profileGen{profSmall},
		spec: func(seed uint64, scale float64) *scenario.Spec {
			return eagerSpec("dist-eager", seed, scaled(2000, scale))
		}},
	{name: "dist-cluster", remote: true, profiles: []profileGen{profSmall, profSleep},
		spec: func(seed uint64, scale float64) *scenario.Spec {
			return clusterSpec("dist-cluster", seed, scaled(10, scale), scaled(2000, scale), scaled(8, scale))
		}},
	{name: "store-mix"},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scaled shrinks a size for the smoke test; it never reaches zero.
func scaled(n int, scale float64) int {
	return max(1, int(math.Round(float64(n)*scale)))
}

// jittered is the emulation block that makes every instance a distinct
// replay: load 0.2 ± 0.15 draws a fresh load per instance, so nothing is
// deduplicated away.
func jittered(machine string) scenario.Emulation {
	return scenario.Emulation{Machine: machine, Load: 0.2, LoadJitter: 0.15}
}

// eagerSpec is the clusterless closed loop: 64 clients, all instances known
// up front, one executor call for the whole run.
func eagerSpec(name string, seed uint64, iterations int) *scenario.Spec {
	return &scenario.Spec{
		Version: scenario.SpecVersion, Name: name, Seed: sim.Stream(seed, "bench/"+name),
		Workloads: []scenario.Workload{{
			Name: "md", Profile: profSmall.ref(),
			Arrival:   scenario.Arrival{Process: scenario.ArrivalClosed, Clients: 64, Iterations: iterations},
			Emulation: jittered("stampede"),
		}},
	}
}

// clusterSpec is the placement scenario: a 64-node two-machine pool under
// least_loaded with contention, four scheduled events, an autoscale rule and
// a timeline, fed by a closed loop, a Poisson stream and bursts. Event times
// follow the closed loop's expected length (~8 s of virtual time per
// iteration) so they land inside the run at any size.
func clusterSpec(name string, seed uint64, iterations, count, bursts int) *scenario.Spec {
	span := time.Duration(iterations) * 8 * time.Second
	at := func(frac float64) scenario.Duration { return scenario.Duration(float64(span) * frac) }
	contention := 0.4
	return &scenario.Spec{
		Version: scenario.SpecVersion, Name: name, Seed: sim.Stream(seed, "bench/"+name),
		Cluster: &cluster.Spec{
			Policy: cluster.PolicyLeastLoaded, Contention: &contention,
			Nodes: []cluster.NodeSpec{
				{Name: "st", Machine: "stampede", Count: 32, Cores: 16},
				{Name: "co", Machine: "comet", Count: 32, Cores: 24},
			},
		},
		Events: &scenario.Events{
			Version: scenario.EventsVersion,
			Timeline: []scenario.ClusterEvent{
				{At: at(0.20), Kind: scenario.EventNodeDown, Node: "st-0"},
				{At: at(0.30), Kind: scenario.EventNodeDrain, Node: "co-1"},
				{At: at(0.45), Kind: scenario.EventAddNodes, Add: &cluster.NodeSpec{Name: "spare", Machine: "comet", Count: 2, Cores: 24}},
				{At: at(0.70), Kind: scenario.EventNodeUp, Node: "st-0"},
			},
			Autoscale: &scenario.Autoscale{
				CheckEvery: at(1.0 / 80), QueueHigh: 64, QueueLow: 4,
				Add: cluster.NodeSpec{Name: "as", Machine: "comet", Cores: 24}, MaxNodes: 80,
			},
		},
		Timeline: &scenario.TimelineSpec{Bucket: at(1.0 / 132)},
		Workloads: []scenario.Workload{
			{Name: "md-closed", Profile: profSmall.ref(), Resources: &scenario.Resources{Cores: 2},
				Arrival:   scenario.Arrival{Process: scenario.ArrivalClosed, Clients: 256, Iterations: iterations},
				Emulation: jittered("")},
			{Name: "md-poisson", Profile: profSmall.ref(),
				Arrival:   scenario.Arrival{Process: scenario.ArrivalPoisson, Rate: 40, Count: count},
				Emulation: jittered("")},
			{Name: "sleep-bursts", Profile: profSleep.ref(),
				Arrival: scenario.Arrival{Process: scenario.ArrivalBurst, Burst: 64, Every: at(1.0 / float64(bursts)), Bursts: bursts}},
		},
	}
}

// arrivals is the number of instances a spec generates: no spec here sets a
// horizon, so every one of them must end as an emulation or a drop.
func arrivals(s *scenario.Spec) int {
	n := 0
	for _, w := range s.Workloads {
		switch a := w.Arrival; a.Process {
		case scenario.ArrivalClosed:
			n += a.Clients * a.Iterations
		case scenario.ArrivalBurst:
			n += a.Burst * a.Bursts
		default:
			n += a.Count
		}
	}
	return n
}

// profileArgs is the `synapse profile` command line that creates p in store.
func (p profileGen) profileArgs(store string) []string {
	args := []string{"profile", "-store", store, "-machine", "thinkie",
		"-rate", strconv.FormatFloat(p.rate, 'g', -1, 64),
		"-seed", strconv.Itoa(profileNoiseSeed)}
	for _, k := range slices.Sorted(maps.Keys(p.tags)) {
		args = append(args, "-tag", k+"="+p.tags[k])
	}
	return append(args, "--", p.command)
}
