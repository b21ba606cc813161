package scenario

import (
	"context"
	"fmt"
	"math"
	"time"

	"synapse/internal/atoms"
	"synapse/internal/cluster"
	"synapse/internal/emulator"
	"synapse/internal/machine"
	"synapse/internal/profile"
	"synapse/internal/sim"
	"synapse/internal/stats"
	"synapse/internal/store"
)

// instance is one emulation of one workload in the mix.
type instance struct {
	w    int // workload index in the spec
	idx  int // enumeration index within the workload
	iter int // closed-loop iteration (client encoded by enumeration)
	load float64
	// arrival is fixed at enumeration time for open-loop processes;
	// closed-loop arrivals chain off completions in the scheduler.
	arrival time.Duration
	// node and eff are assigned at placement in cluster mode: the host
	// node index and the contention-adjusted effective load.
	node int
	eff  float64
	// job is the position of the instance's replay in the run's job table
	// and tx its emulation time — both known eagerly without a cluster, set
	// at each placement with one; start/done are assigned by the scheduler.
	job   int
	tx    time.Duration
	start time.Duration
	done  time.Duration
	// ran marks a (currently or finally) placed instance; running marks
	// one between placement and completion. gen invalidates the pending
	// completion when a node failure kills the instance mid-run.
	ran     bool
	running bool
	gen     int
}

// workloadState is the per-workload compilation product.
type workloadState struct {
	spec    *Workload
	machine string
	// prof is the resolved profile — kept so distributed coordinators can
	// ship the exact emulation inputs to workers without store access.
	prof *profile.Profile
	// run replays instances without a cluster; runs holds one handle per
	// node machine with one (instances replay on the node they land on —
	// including nodes that only join the pool through events).
	run  *emulator.Run
	runs map[string]*emulator.Run
	// req is the per-instance resource demand on a cluster node.
	req cluster.Request
	// insts indexes this workload's instances in the global table:
	// insts[idx] is the global id of enumeration index idx. Closed-loop
	// instance (client c, iteration k) lives at idx c*Iterations+k.
	insts   []int
	dropped int
	killed  int
}

// compiled is a spec resolved against a store: emulation handles built,
// cluster constructed and — once enumerate has run, which only scheduling
// needs — instances enumerated.
type compiled struct {
	spec  *Spec
	wls   []*workloadState
	insts []*instance
	cl    *cluster.Cluster
}

// compile resolves the spec: the cluster (when modeled) with its seeded
// placement stream, and each workload's profile and reusable emulation
// handles — one per machine the workload could land on, which with an
// events block includes machines only event-added nodes bring. It draws no
// instances, so its cost follows the spec's text, not its instance count —
// a worker compiles whatever a coordinator sends. With buildRuns false the
// emulation handles are skipped: an external Executor owns the compute, and
// this process only needs the scheduling view (cluster, resolved profiles).
func compile(ctx context.Context, spec *Spec, st store.Store, buildRuns bool) (*compiled, error) {
	c := &compiled{spec: spec}

	// Build the cluster, if the spec models one. The random policy's
	// generator derives from the scenario seed's "cluster" stream, so
	// placement is part of the (spec, seed) determinism contract.
	if spec.Cluster != nil {
		var err error
		c.cl, err = cluster.New(spec.Cluster, stats.NewRNG(sim.Stream(spec.Seed, "cluster")))
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
	}

	// Machines that join the pool only through events still need
	// emulation handles and count toward "could this request ever fit".
	models := map[string]*machine.Model{}
	var shapes []cluster.Request
	if c.cl != nil {
		for _, m := range c.cl.Models() {
			models[m.Name] = m
		}
		if spec.Events != nil {
			for i := range spec.Events.Timeline {
				ev := &spec.Events.Timeline[i]
				if ev.Kind != EventAddNodes {
					continue
				}
				if err := c.eventMachine(models, &shapes, *ev.Add); err != nil {
					return nil, fmt.Errorf("scenario: events: timeline[%d]: add_nodes: %w", i, err)
				}
			}
			if a := spec.Events.Autoscale; a != nil {
				if err := c.eventMachine(models, &shapes, a.Add); err != nil {
					return nil, fmt.Errorf("scenario: events: autoscale: add: %w", err)
				}
			}
		}
	}

	// Compile: resolve each workload's profile and build its reusable
	// emulation handles — one per reachable machine with a cluster, one
	// total without.
	c.wls = make([]*workloadState, len(spec.Workloads))
	for i := range spec.Workloads {
		w := &spec.Workloads[i]
		set, err := store.FindCtx(ctx, st, w.Profile.Command, w.Profile.Tags)
		if err != nil {
			return nil, fmt.Errorf("scenario: workload %q: resolve profile: %w", w.Name, err)
		}
		p := set[len(set)-1]
		ws := &workloadState{spec: w, prof: p}
		if c.cl == nil {
			machineName := w.Emulation.Machine
			if machineName == "" {
				machineName = p.Machine
			}
			ws.machine = machineName
			if buildRuns {
				if machineName == "" {
					return nil, fmt.Errorf("scenario: workload %q: emulation needs a machine name", w.Name)
				}
				m, err := machine.Get(machineName)
				if err == nil {
					ws.run, err = emulator.NewRun(p, w.emulateOptions(m))
				}
				if err != nil {
					return nil, fmt.Errorf("scenario: workload %q: %w", w.Name, err)
				}
			}
		} else {
			ws.machine = "cluster"
			ws.req = w.request()
			if !c.fits(ws.req, shapes) {
				return nil, fmt.Errorf("scenario: workload %q: an instance needs %d cores and %d bytes but fits no cluster node",
					w.Name, ws.req.Cores, ws.req.MemBytes)
			}
			if buildRuns {
				ws.runs = make(map[string]*emulator.Run)
				for _, m := range models {
					run, err := emulator.NewRun(p, w.emulateOptions(m))
					if err != nil {
						return nil, fmt.Errorf("scenario: workload %q on %q: %w", w.Name, m.Name, err)
					}
					ws.runs[m.Name] = run
				}
			}
		}
		c.wls[i] = ws
	}
	return c, nil
}

// enumerate draws every workload's instances (arrival times for open loops,
// per-instance load) from its seeded named stream — the half of compilation
// only a scheduling run needs. Instances live in chunked arenas — pointers
// into a chunk stay valid because a full chunk is retired, never regrown —
// so a million-instance mix costs thousands of allocations instead of one
// per instance. The batched reader serves the stream's exact draw sequence,
// so the enumeration stays bit-identical to per-draw RNG calls.
func (c *compiled) enumerate() {
	var chunk []instance
	alloc := func(in instance) *instance {
		if len(chunk) == cap(chunk) {
			chunk = make([]instance, 0, instChunk)
		}
		chunk = append(chunk, in)
		return &chunk[len(chunk)-1]
	}
	for i, ws := range c.wls {
		rng := stats.NewBatch(stats.NewRNG(sim.Stream(c.spec.Seed, "workload/"+ws.spec.Name)))
		ws.enumerate(c.spec, i, rng, func(v instance) {
			in := alloc(v)
			in.idx = len(ws.insts)
			in.node = -1
			ws.insts = append(ws.insts, len(c.insts))
			c.insts = append(c.insts, in)
		})
	}
}

// instChunk is the instance-arena chunk capacity: large enough that arena
// bookkeeping is noise, small enough that a tiny mix doesn't overcommit.
const instChunk = 1024

// eventMachine resolves one event node template's machine, recording its
// model for emulation-handle construction and its capacity shape for the
// could-it-ever-fit check.
func (c *compiled) eventMachine(models map[string]*machine.Model, shapes *[]cluster.Request, ns cluster.NodeSpec) error {
	m, err := c.cl.ResolveModel(ns.Machine)
	if err != nil {
		return err
	}
	models[m.Name] = m
	cores, mem, err := c.cl.ShapeOf(ns)
	if err != nil {
		return err
	}
	*shapes = append(*shapes, cluster.Request{Cores: cores, MemBytes: mem})
	return nil
}

// fits reports whether the request fits some empty node of the initial
// pool or some node an event could add — anything else would queue
// forever.
func (c *compiled) fits(r cluster.Request, shapes []cluster.Request) bool {
	if c.cl.Fits(r) {
		return true
	}
	for _, s := range shapes {
		if r.Cores <= s.Cores && r.MemBytes <= s.MemBytes {
			return true
		}
	}
	return false
}

// emulateOptions maps the workload's emulation knobs onto emulator options
// for the resolved machine m. Scenario reports read aggregates only, so no
// per-sample trace is kept.
func (w *Workload) emulateOptions(m *machine.Model) emulator.Options {
	e := &w.Emulation
	opts := emulator.Options{
		Atoms: atoms.Config{
			Machine: m,
			Kernel:  e.Kernel,
			Workers: e.Workers,
			Load:    e.Load,
		},
		TraceLevel: emulator.TraceNone,
	}
	switch e.Mode {
	case "openmp":
		opts.Atoms.Mode = machine.ModeOpenMP
	case "mpi":
		opts.Atoms.Mode = machine.ModeMPI
	}
	for _, a := range e.DisableAtoms {
		switch a {
		case "storage":
			opts.DisableStorage = true
		case "memory":
			opts.DisableMemory = true
		case "network":
			opts.DisableNetwork = true
		}
	}
	return opts
}

// enumerate emits the workload's instances in deterministic order: clients ×
// iterations for the closed loop, arrival order for open loops. Open-loop
// arrivals past the scenario horizon are dropped here; closed-loop chains
// are cut by the scheduler when a completion lands past the horizon.
func (ws *workloadState) enumerate(spec *Spec, w int, rng *stats.Batch, emit func(instance)) {
	a := &ws.spec.Arrival
	horizon := spec.Duration.D()
	jitter := func() float64 {
		e := &ws.spec.Emulation
		if e.LoadJitter <= 0 {
			return e.Load
		}
		// Draws stay below 1 by validation (Load + LoadJitter < 1);
		// only the lower bound needs clamping.
		return math.Max(e.Load+e.LoadJitter*(2*rng.Float64()-1), 0)
	}
	switch a.Process {
	case ArrivalClosed:
		for c := 0; c < a.Clients; c++ {
			for k := 0; k < a.Iterations; k++ {
				emit(instance{w: w, iter: k, load: jitter()})
			}
		}
	case ArrivalConstant, ArrivalPoisson:
		step := time.Duration(float64(time.Second) / a.Rate)
		var t time.Duration
		for i := 0; a.Count == 0 || i < a.Count; i++ {
			if i > 0 {
				if a.Process == ArrivalConstant {
					t += step
				} else {
					u := rng.Float64()
					t += time.Duration(-math.Log(1-u) / a.Rate * float64(time.Second))
				}
			}
			if horizon > 0 && t > horizon {
				if a.Count > 0 {
					ws.dropped += a.Count - i
				}
				return
			}
			emit(instance{w: w, arrival: t, load: jitter()})
		}
	case ArrivalBurst:
		for b := 0; a.Bursts == 0 || b < a.Bursts; b++ {
			t := time.Duration(b) * a.Every.D()
			if horizon > 0 && t > horizon {
				if a.Bursts > 0 {
					ws.dropped += (a.Bursts - b) * a.Burst
				}
				return
			}
			for j := 0; j < a.Burst; j++ {
				emit(instance{w: w, arrival: t, load: jitter()})
			}
		}
	}
}
