package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"synapse/internal/cluster"
)

// SpecVersion is the scenario spec schema version this build understands.
const SpecVersion = 1

// EventsVersion is the events block schema version this build understands.
// The block is versioned independently of the spec so event semantics can
// evolve without forcing a spec-wide version bump.
const EventsVersion = 1

// Duration is a time.Duration that marshals as a Go duration string
// ("1.5s", "200ms") and additionally decodes bare JSON numbers as seconds,
// so hand-written specs can say either "duration": "90s" or "duration": 90.
type Duration time.Duration

// D returns the wrapped time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// String formats like time.Duration.
func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		td, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %w", s, err)
		}
		*d = Duration(td)
		return nil
	}
	var secs float64
	if err := json.Unmarshal(b, &secs); err != nil {
		return fmt.Errorf("scenario: duration must be a string or seconds: %w", err)
	}
	*d = Duration(time.Duration(secs * float64(time.Second)))
	return nil
}

// Spec is a declarative workload mix: which profiles run, how instances of
// each arrive over virtual time, and what resources bound them. Specs are
// versioned JSON, loadable from a file (Load), raw bytes (Parse), or built
// directly in Go.
type Spec struct {
	// Version is the schema version; must equal SpecVersion.
	Version int `json:"version"`
	// Name labels the scenario in reports.
	Name string `json:"name,omitempty"`
	// Seed bases every random draw in the scenario (arrival processes,
	// per-instance load jitter). The same spec with the same seed
	// produces a byte-identical report.
	Seed uint64 `json:"seed,omitempty"`
	// Duration bounds the scenario's virtual time: arrivals after the
	// horizon are dropped (admitted work still runs to completion).
	// Zero means unbounded — every workload must then bound itself by
	// count or iterations.
	Duration Duration `json:"duration,omitempty"`
	// MaxConcurrent caps concurrently-running emulations across all
	// workloads (the shared resource's slot count). Zero = unlimited.
	MaxConcurrent int `json:"max_concurrent,omitempty"`
	// Cluster, when present, replaces the infinitely wide machine with a
	// finite pool of nodes: instances are placed by the cluster's policy
	// (queueing when no node fits), replay on the machine of the node
	// they land on, and slow down with colocation via the contention
	// model. Without it, every instance runs on the workload's own
	// emulation machine as before.
	Cluster *cluster.Spec `json:"cluster,omitempty"`
	// Events, when present, mutates the cluster mid-run: a timeline of
	// node failures, recoveries, drains and additions, plus an optional
	// queue-threshold autoscale rule. Requires a cluster block.
	Events *Events `json:"events,omitempty"`
	// Timeline, when present, adds a time-series view to the report:
	// fixed-width buckets of throughput, queue depth and per-node
	// occupancy (Report.Timeline, synapse-sim -timeline).
	Timeline *TimelineSpec `json:"timeline,omitempty"`
	// Workloads are the mix components, scheduled together.
	Workloads []Workload `json:"workloads"`
}

// Events is the versioned dynamic-cluster block: what the static pool
// description cannot express — the pool changing underneath the mix.
type Events struct {
	// Version is the events schema version; must equal EventsVersion.
	Version int `json:"version"`
	// Timeline is the list of scheduled pool mutations. Events at the
	// same virtual time apply in list order; all of them apply before
	// that instant's placement decisions.
	Timeline []ClusterEvent `json:"timeline,omitempty"`
	// Autoscale, when present, grows and shrinks the pool from queue
	// pressure instead of a fixed schedule.
	Autoscale *Autoscale `json:"autoscale,omitempty"`
}

// Cluster event kinds.
const (
	// EventNodeDown takes a node out of the pool; instances running on it
	// are killed and re-queued (kill-and-retry), keeping their original
	// arrival time.
	EventNodeDown = "node_down"
	// EventNodeUp returns a down or draining node to the pool.
	EventNodeUp = "node_up"
	// EventNodeDrain stops new placements on a node; running instances
	// finish normally.
	EventNodeDrain = "node_drain"
	// EventAddNodes expands the pool with new nodes mid-run.
	EventAddNodes = "add_nodes"
)

// ClusterEvent is one scheduled pool mutation.
type ClusterEvent struct {
	// At is the virtual time the event fires.
	At Duration `json:"at"`
	// Kind is one of the Event* constants.
	Kind string `json:"kind"`
	// Node names the target node for node_down/node_up/node_drain (the
	// expanded node name, e.g. "big-1" for a count-expanded spec).
	Node string `json:"node,omitempty"`
	// Add describes the nodes an add_nodes event appends, in the same
	// format (and with the same count expansion and naming) as the
	// cluster block's nodes.
	Add *cluster.NodeSpec `json:"add,omitempty"`
}

// Autoscale grows the pool when the queue backs up and shrinks it when
// the queue empties. The rule is evaluated every CheckEvery of virtual
// time: with QueueHigh or more instances queued, Add's nodes join the
// pool (revived from earlier scale-downs before new ones are created,
// named add.name-0, add.name-1, ... — while MaxNodes, when set, bounds
// the live pool); with at most QueueLow queued, idle autoscaled nodes
// leave it. Everything derives from the virtual timeline, so autoscaled
// runs stay deterministic per (spec, seed).
type Autoscale struct {
	CheckEvery Duration `json:"check_every"`
	QueueHigh  int      `json:"queue_high"`
	QueueLow   int      `json:"queue_low,omitempty"`
	// Add is the node template one scale-up step appends; count is the
	// number of nodes per step (default 1).
	Add cluster.NodeSpec `json:"add"`
	// MaxNodes bounds live (non-down) nodes; 0 = unbounded.
	MaxNodes int `json:"max_nodes,omitempty"`
}

// TimelineSpec configures the report's time-series sink.
type TimelineSpec struct {
	// Bucket is the fixed bucket width; required, positive.
	Bucket Duration `json:"bucket"`
}

// Workload is one component of the mix: a stored profile, an arrival
// process generating emulation instances, and per-workload emulation
// options and limits.
type Workload struct {
	// Name identifies the workload in reports; unique within the spec.
	Name string `json:"name"`
	// Profile locates the profile in the store (command + tags, the
	// store's native key).
	Profile ProfileRef `json:"profile"`
	// Arrival describes how instances arrive over virtual time.
	Arrival Arrival `json:"arrival"`
	// MaxConcurrent caps this workload's concurrently-running instances,
	// inside the scenario-wide cap. Zero = unlimited.
	MaxConcurrent int `json:"max_concurrent,omitempty"`
	// Resources is each instance's demand on a cluster node. It is inert
	// without a cluster — specs may carry it and gain a pool later (e.g.
	// synapse-sim -cluster).
	Resources *Resources `json:"resources,omitempty"`
	// Emulation tunes how each instance replays.
	Emulation Emulation `json:"emulation,omitempty"`
}

// Resources is one instance's demand on the node that hosts it.
type Resources struct {
	// Cores is the core count an instance occupies while running; 0
	// defaults to the emulation worker count (at least 1).
	Cores int `json:"cores,omitempty"`
	// MemGB is the memory an instance reserves; 0 reserves none.
	MemGB float64 `json:"mem_gb,omitempty"`
}

// ProfileRef names a stored profile.
type ProfileRef struct {
	Command string            `json:"command"`
	Tags    map[string]string `json:"tags,omitempty"`
}

// Arrival processes supported by the scheduler.
const (
	// ArrivalClosed is a closed loop: Clients concurrent clients, each
	// issuing its next instance the moment the previous one completes,
	// Iterations times.
	ArrivalClosed = "closed"
	// ArrivalPoisson is an open loop with exponentially distributed
	// inter-arrival times at Rate per second.
	ArrivalPoisson = "poisson"
	// ArrivalConstant is an open loop with fixed inter-arrival times
	// (1/Rate seconds).
	ArrivalConstant = "constant"
	// ArrivalBurst releases Burst instances at once every Every, Bursts
	// times — a ramp of load spikes.
	ArrivalBurst = "burst"
)

// Arrival configures a workload's arrival process.
type Arrival struct {
	// Process is one of the Arrival* constants.
	Process string `json:"process"`
	// Clients and Iterations configure the closed loop.
	Clients    int `json:"clients,omitempty"`
	Iterations int `json:"iterations,omitempty"`
	// Rate (per second) drives the poisson and constant processes; Count
	// bounds their total arrivals (0 = bounded by the scenario duration).
	Rate  float64 `json:"rate,omitempty"`
	Count int     `json:"count,omitempty"`
	// Burst/Every/Bursts configure the burst process (Bursts 0 = bounded
	// by the scenario duration).
	Burst  int      `json:"burst,omitempty"`
	Every  Duration `json:"every,omitempty"`
	Bursts int      `json:"bursts,omitempty"`
}

// Emulation carries the per-workload replay options — the subset of the
// library's emulation knobs that matter for mixes.
type Emulation struct {
	// Machine is the emulation resource; empty replays on the machine
	// the profile was taken on.
	Machine string `json:"machine,omitempty"`
	// Kernel selects the compute kernel ("asm" when empty).
	Kernel string `json:"kernel,omitempty"`
	// Load adds artificial background CPU load in [0, 1).
	Load float64 `json:"load,omitempty"`
	// LoadJitter perturbs Load per instance, uniformly in ±LoadJitter
	// (clamped at 0; Load+LoadJitter must stay below 1) — run-to-run
	// variation inside one mix.
	LoadJitter float64 `json:"load_jitter,omitempty"`
	// Workers/Mode inject OpenMP- or MPI-style parallelism; Mode is
	// "serial", "openmp" or "mpi".
	Workers int    `json:"workers,omitempty"`
	Mode    string `json:"mode,omitempty"`
	// DisableAtoms turns off the named atoms ("storage", "memory",
	// "network") for this workload.
	DisableAtoms []string `json:"disable_atoms,omitempty"`
}

// request is the workload's per-instance resource demand on a cluster node:
// the resources block, defaulting cores to the emulation worker count (at
// least one core — an instance always occupies something).
func (w *Workload) request() cluster.Request {
	cores := 0
	var mem int64
	if w.Resources != nil {
		cores = w.Resources.Cores
		mem = int64(w.Resources.MemGB * float64(1<<30))
	}
	if cores == 0 {
		cores = w.Emulation.Workers
	}
	if cores < 1 {
		cores = 1
	}
	return cluster.Request{Cores: cores, MemBytes: mem}
}

// Parse decodes and validates a JSON scenario spec. Unknown fields are
// rejected — a misspelled knob in a declarative spec should fail loudly,
// not silently fall back to a default.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and parses a scenario spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: read spec: %w", err)
	}
	return Parse(data)
}

// Validate reports the first structural problem with the spec.
func (s *Spec) Validate() error {
	if s.Version != SpecVersion {
		return fmt.Errorf("scenario: unknown spec version %d (this build supports version %d)", s.Version, SpecVersion)
	}
	if s.Duration < 0 {
		return fmt.Errorf("scenario: negative duration %v", s.Duration)
	}
	if s.MaxConcurrent < 0 {
		return fmt.Errorf("scenario: negative max_concurrent %d", s.MaxConcurrent)
	}
	if len(s.Workloads) == 0 {
		return fmt.Errorf("scenario: no workloads")
	}
	if s.Cluster != nil {
		if err := s.Cluster.Validate(); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	if s.Events != nil {
		if err := s.Events.validate(s.Cluster); err != nil {
			return fmt.Errorf("scenario: events: %w", err)
		}
	}
	if s.Timeline != nil && s.Timeline.Bucket <= 0 {
		return fmt.Errorf("scenario: timeline: bucket must be positive, got %v", s.Timeline.Bucket)
	}
	seen := make(map[string]bool, len(s.Workloads))
	for i := range s.Workloads {
		w := &s.Workloads[i]
		if w.Name == "" {
			return fmt.Errorf("scenario: workload %d has no name", i)
		}
		if seen[w.Name] {
			return fmt.Errorf("scenario: duplicate workload name %q", w.Name)
		}
		seen[w.Name] = true
		if err := w.validate(s.Duration > 0, s.Cluster != nil); err != nil {
			return fmt.Errorf("scenario: workload %q: %w", w.Name, err)
		}
	}
	return nil
}

// validate checks the events block against the cluster it mutates. Every
// timeline error is positional — "timeline[3]: ..." — so a bad entry in a
// long schedule is findable. Node targets are checked against the pool as
// it exists when the event fires: the initial nodes plus everything
// earlier add_nodes events (in (at, list order) order) have created.
func (e *Events) validate(cl *cluster.Spec) error {
	if e.Version != EventsVersion {
		return fmt.Errorf("unknown events version %d (this build supports version %d)", e.Version, EventsVersion)
	}
	if cl == nil {
		return fmt.Errorf("events need a cluster block to mutate")
	}
	names := make(map[string]bool)
	for i := range cl.Nodes {
		for _, n := range cluster.ExpandNames(cl.Nodes[i]) {
			names[n] = true
		}
	}
	// Walk events in the order they will apply: by time, list order
	// breaking ties — the same order the scheduler posts them in.
	order := make([]int, len(e.Timeline))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return e.Timeline[order[a]].At < e.Timeline[order[b]].At
	})
	for _, i := range order {
		ev := &e.Timeline[i]
		if ev.At < 0 {
			return fmt.Errorf("timeline[%d]: negative time %v", i, ev.At)
		}
		switch ev.Kind {
		case EventNodeDown, EventNodeUp, EventNodeDrain:
			if ev.Node == "" {
				return fmt.Errorf("timeline[%d]: %s needs a target node", i, ev.Kind)
			}
			if !names[ev.Node] {
				return fmt.Errorf("timeline[%d]: %s: unknown node %q", i, ev.Kind, ev.Node)
			}
			if ev.Add != nil {
				return fmt.Errorf("timeline[%d]: %s does not take an add block", i, ev.Kind)
			}
		case EventAddNodes:
			if ev.Node != "" {
				return fmt.Errorf("timeline[%d]: add_nodes does not take a target node", i)
			}
			if ev.Add == nil {
				return fmt.Errorf("timeline[%d]: add_nodes needs an add block", i)
			}
			if err := validateNodeSpec(ev.Add); err != nil {
				return fmt.Errorf("timeline[%d]: add_nodes: %w", i, err)
			}
			// Checked before the names are expanded: validation must not
			// cost what the refused pool would have.
			if count := max(ev.Add.Count, 1); count > cluster.MaxNodes-len(names) {
				return fmt.Errorf("timeline[%d]: add_nodes: %d more nodes grow the pool past %d", i, count, cluster.MaxNodes)
			}
			for _, n := range cluster.ExpandNames(*ev.Add) {
				if names[n] {
					return fmt.Errorf("timeline[%d]: add_nodes: duplicate node name %q", i, n)
				}
				names[n] = true
			}
		case "":
			return fmt.Errorf("timeline[%d]: missing event kind", i)
		default:
			return fmt.Errorf("timeline[%d]: unknown event kind %q (node_down, node_up, node_drain, add_nodes)", i, ev.Kind)
		}
	}
	if a := e.Autoscale; a != nil {
		if a.CheckEvery <= 0 {
			return fmt.Errorf("autoscale: check_every must be positive, got %v", a.CheckEvery)
		}
		if a.QueueHigh < 1 {
			return fmt.Errorf("autoscale: queue_high must be >= 1, got %d", a.QueueHigh)
		}
		if a.QueueLow < 0 || a.QueueLow >= a.QueueHigh {
			return fmt.Errorf("autoscale: queue_low %d outside [0, queue_high %d)", a.QueueLow, a.QueueHigh)
		}
		if err := validateNodeSpec(&a.Add); err != nil {
			return fmt.Errorf("autoscale: add: %w", err)
		}
		if a.MaxNodes < 0 {
			return fmt.Errorf("autoscale: negative max_nodes %d", a.MaxNodes)
		}
		// Autoscaled nodes are named base-0, base-1, ... as pressure
		// demands; a static node squatting on that pattern would only
		// collide (and abort the run) when the rule first fires, on a
		// load- and seed-dependent path — reject it up front instead.
		base := a.Add.Name
		if base == "" {
			base = a.Add.Machine
		}
		// Report the first collision in name order: the same spec must
		// always fail with the same message.
		sorted := make([]string, 0, len(names))
		for name := range names {
			sorted = append(sorted, name)
		}
		sort.Strings(sorted)
		for _, name := range sorted {
			if rest, ok := strings.CutPrefix(name, base+"-"); ok && isDigits(rest) {
				return fmt.Errorf("autoscale: add name %q collides with node %q (autoscale owns %s-0, %s-1, ...)",
					base, name, base, base)
			}
		}
	}
	return nil
}

// isDigits reports whether s is a non-empty run of ASCII digits.
func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// validateNodeSpec checks a node template's structure (the machine
// reference resolves later, at compile, where the cluster's inline models
// are in scope).
func validateNodeSpec(ns *cluster.NodeSpec) error {
	if ns.Machine == "" {
		return fmt.Errorf("missing machine")
	}
	if ns.Count < 0 {
		return fmt.Errorf("negative count %d", ns.Count)
	}
	if ns.Cores < 0 {
		return fmt.Errorf("negative cores %d", ns.Cores)
	}
	if ns.MemGB < 0 || ns.MemGB >= cluster.MaxMemGB {
		return fmt.Errorf("mem_gb %g outside [0, %g)", ns.MemGB, float64(cluster.MaxMemGB))
	}
	return nil
}

func (w *Workload) validate(hasHorizon, hasCluster bool) error {
	if w.Profile.Command == "" {
		return fmt.Errorf("missing profile command")
	}
	if w.MaxConcurrent < 0 {
		return fmt.Errorf("negative max_concurrent %d", w.MaxConcurrent)
	}
	a := &w.Arrival
	switch a.Process {
	case ArrivalClosed:
		if a.Clients < 1 {
			return fmt.Errorf("closed loop needs clients >= 1, got %d", a.Clients)
		}
		if a.Iterations < 1 {
			return fmt.Errorf("closed loop needs iterations >= 1, got %d", a.Iterations)
		}
	case ArrivalPoisson, ArrivalConstant:
		if a.Rate <= 0 {
			return fmt.Errorf("%s arrivals need a positive rate, got %g", a.Process, a.Rate)
		}
		if a.Count < 0 {
			return fmt.Errorf("negative count %d", a.Count)
		}
		if a.Count == 0 && !hasHorizon {
			return fmt.Errorf("%s arrivals need a count or a scenario duration", a.Process)
		}
	case ArrivalBurst:
		if a.Burst < 1 {
			return fmt.Errorf("burst arrivals need burst >= 1, got %d", a.Burst)
		}
		if a.Every <= 0 {
			return fmt.Errorf("burst arrivals need a positive every, got %v", a.Every)
		}
		if a.Bursts < 0 {
			return fmt.Errorf("negative bursts %d", a.Bursts)
		}
		if a.Bursts == 0 && !hasHorizon {
			return fmt.Errorf("burst arrivals need bursts or a scenario duration")
		}
	case "":
		return fmt.Errorf("missing arrival process")
	default:
		return fmt.Errorf("unknown arrival process %q", a.Process)
	}
	if r := w.Resources; r != nil {
		if r.Cores < 0 {
			return fmt.Errorf("negative resources.cores %d", r.Cores)
		}
		if r.MemGB < 0 || r.MemGB >= cluster.MaxMemGB {
			return fmt.Errorf("resources.mem_gb %g outside [0, %g)", r.MemGB, float64(cluster.MaxMemGB))
		}
	}
	e := &w.Emulation
	if hasCluster && e.Machine != "" {
		return fmt.Errorf("emulation.machine %q conflicts with the cluster block (the node's machine decides)", e.Machine)
	}
	if e.Load < 0 || e.Load >= 1 {
		return fmt.Errorf("load %g outside [0, 1)", e.Load)
	}
	if e.LoadJitter < 0 || e.LoadJitter >= 1 {
		return fmt.Errorf("load_jitter %g outside [0, 1)", e.LoadJitter)
	}
	if e.Load+e.LoadJitter >= 1 {
		return fmt.Errorf("load %g + load_jitter %g must stay below 1", e.Load, e.LoadJitter)
	}
	if e.Workers < 0 {
		return fmt.Errorf("negative workers %d", e.Workers)
	}
	switch e.Mode {
	case "", "serial", "openmp", "mpi":
	default:
		return fmt.Errorf("unknown mode %q (serial, openmp, mpi)", e.Mode)
	}
	for _, a := range e.DisableAtoms {
		switch a {
		case "storage", "memory", "network":
		default:
			return fmt.Errorf("unknown atom %q in disable_atoms (storage, memory, network)", a)
		}
	}
	return nil
}
