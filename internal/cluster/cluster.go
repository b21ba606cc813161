// Package cluster models a finite pool of machines for scenario placement.
//
// The scenario engine alone replays every workload instance on an infinitely
// wide machine: concurrency caps bound how many instances run, but nothing
// says *where* they run or what colocation costs. This package adds the
// missing half of the placement question (Merzky & Jha, "Bridging the Gap
// Towards Predictable Workload Placement"): a cluster is a list of nodes —
// each a machine model from the catalog or an inline JSON description, with
// finite cores and memory — plus a placement policy deciding which node an
// arriving instance lands on, and a contention model that maps a node's
// occupancy onto the artificial background load of colocated replays.
//
// Everything is deterministic: policies break ties by node order, the random
// policy draws from a caller-seeded generator, and occupancy-derived loads
// are pure functions of the placement history. The scenario scheduler drives
// Place/Release serially on its virtual timeline, so a fixed (spec, seed)
// yields an identical placement sequence at any worker count.
package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"synapse/internal/machine"
	"synapse/internal/stats"
)

// Placement policies.
const (
	// PolicyFirstFit places on the first node (in spec order) with enough
	// free cores and memory.
	PolicyFirstFit = "first_fit"
	// PolicyBestFit places on the feasible node that would be left with
	// the fewest free cores — packing tightly, keeping big nodes free.
	PolicyBestFit = "best_fit"
	// PolicyLeastLoaded places on the feasible node with the lowest core
	// occupancy — spreading load, minimizing contention.
	PolicyLeastLoaded = "least_loaded"
	// PolicyRandom places on a uniformly random feasible node, drawn from
	// the scenario-seeded generator (deterministic per seed).
	PolicyRandom = "random"
)

// MaxNodes bounds a pool. Node counts — a spec's, and what events and
// autoscaling add at run time — expand node by node, so unbounded, one count
// field in a request body asks for arbitrary memory. Three orders of
// magnitude above the largest pool any workload here models.
const MaxNodes = 1 << 16

// Spec is the declarative cluster description inside a scenario spec (the
// "cluster" block), or a standalone JSON file loaded via synapse-sim
// -cluster. Like the scenario spec it is strict JSON: unknown fields are
// rejected, including inside inline machine models.
type Spec struct {
	// Policy is one of the Policy* constants; empty means first_fit.
	Policy string `json:"policy,omitempty"`
	// Contention scales how strongly colocated instances slow each other
	// down: an instance placed on a node at core occupancy occ replays
	// with effective load base + (1-base)·Contention·occ. Nil uses each
	// node machine's own Threading.Contention; the value must be in
	// [0, 1], which keeps every effective load below 1.
	Contention *float64 `json:"contention,omitempty"`
	// Machines holds inline machine models (the JSON description format
	// of internal/machine), usable by Nodes in addition to the catalog.
	// Inline models are local to the cluster — they are not registered
	// globally.
	Machines map[string]json.RawMessage `json:"machines,omitempty"`
	// Nodes are the cluster's machines, in placement-tiebreak order.
	Nodes []NodeSpec `json:"nodes"`
}

// NodeSpec describes one kind of node in the cluster.
type NodeSpec struct {
	// Name labels the node in reports; empty defaults to the machine
	// name. With Count > 1, nodes are named name-0, name-1, ….
	Name string `json:"name,omitempty"`
	// Machine names the node's model: an inline Machines entry, a catalog
	// machine, or a registered user model.
	Machine string `json:"machine"`
	// Count expands this spec into that many identical nodes (default 1).
	Count int `json:"count,omitempty"`
	// Cores overrides the machine model's core count (0 keeps it).
	Cores int `json:"cores,omitempty"`
	// MemGB overrides the machine model's memory in GB (0 keeps it).
	MemGB float64 `json:"mem_gb,omitempty"`
}

// ParseSpec decodes and validates a standalone cluster spec (strict JSON).
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("cluster: parse spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate reports the first structural problem with the spec. Inline
// machine models are fully parsed and validated; catalog references are
// resolved later, by New.
func (s *Spec) Validate() error {
	if err := s.validateStructure(); err != nil {
		return err
	}
	_, err := s.parseInline()
	return err
}

// validateStructure checks everything except the inline machine models.
func (s *Spec) validateStructure() error {
	switch s.Policy {
	case "", PolicyFirstFit, PolicyBestFit, PolicyLeastLoaded, PolicyRandom:
	default:
		return fmt.Errorf("cluster: unknown policy %q (first_fit, best_fit, least_loaded, random)", s.Policy)
	}
	if c := s.Contention; c != nil && (*c < 0 || *c > 1) {
		return fmt.Errorf("cluster: contention %g outside [0, 1]", *c)
	}
	if len(s.Nodes) == 0 {
		return fmt.Errorf("cluster: no nodes")
	}
	total := 0
	for i := range s.Nodes {
		n := &s.Nodes[i]
		if n.Machine == "" {
			return fmt.Errorf("cluster: node %d has no machine", i)
		}
		if n.Count < 0 {
			return fmt.Errorf("cluster: node %d has negative count %d", i, n.Count)
		}
		count := max(n.Count, 1)
		if count > MaxNodes-total {
			return fmt.Errorf("cluster: node %d (count %d) grows the pool past %d nodes", i, count, MaxNodes)
		}
		total += count
		if n.Cores < 0 {
			return fmt.Errorf("cluster: node %d has negative cores %d", i, n.Cores)
		}
		if n.MemGB < 0 || n.MemGB >= MaxMemGB {
			return fmt.Errorf("cluster: node %d mem_gb %g outside [0, %g)", i, n.MemGB, float64(MaxMemGB))
		}
	}
	return nil
}

// parseInline parses and validates the inline machine models. Every model's
// name must equal its map key: nodes reference models by key, but emulation
// handles and replay-memoization downstream are keyed by model name — a
// mismatch would let two different models share a name and silently replay
// instances on the wrong machine.
func (s *Spec) parseInline() (map[string]*machine.Model, error) {
	inline := make(map[string]*machine.Model, len(s.Machines))
	for name, raw := range s.Machines {
		if name == "" {
			return nil, fmt.Errorf("cluster: inline machine with empty name")
		}
		m, err := machine.FromJSONStrict(raw)
		if err != nil {
			return nil, fmt.Errorf("cluster: inline machine %q: %w", name, err)
		}
		if m.Name != name {
			return nil, fmt.Errorf("cluster: inline machine %q: model name %q must match its key", name, m.Name)
		}
		if m.Threading.Contention < 0 {
			return nil, fmt.Errorf("cluster: inline machine %q: negative contention", name)
		}
		inline[name] = m
	}
	return inline, nil
}

// MaxMemGB bounds every mem_gb field (node capacities and instance
// demands): above 2^33 GB the GB→bytes conversion would overflow int64,
// silently inverting the constraint, so validation rejects it first.
const MaxMemGB = 1 << 33

// Request is one instance's resource demand.
type Request struct {
	Cores    int
	MemBytes int64
}

// Node lifecycle states. A node accepts placements only while up; draining
// keeps running instances but refuses new ones; down nodes are out of the
// pool (the scheduler kills and re-queues whatever was running on them).
const (
	StateUp       = "up"
	StateDraining = "draining"
	StateDown     = "down"
)

// node is one expanded cluster machine and its live accounting.
type node struct {
	name  string
	model *machine.Model
	cores int
	mem   int64
	state string

	usedCores int
	usedMem   int64
	placed    int
	peakCores int
	killed    int
	busy      time.Duration // Σ service time × cores over placed instances
}

// Cluster is the runtime placement state. It is not safe for concurrent
// use — the scenario scheduler drives it serially on the virtual timeline.
// The pool is no longer fixed for a run's lifetime: nodes change state
// (SetDown/SetUp/SetDrain) and new nodes join (AddNodes) as the scenario's
// event timeline plays out.
type Cluster struct {
	policy     string
	contention *float64
	nodes      []*node
	inline     map[string]*machine.Model
	seen       map[string]bool
	rng        *stats.Batch
	// feas backs the random policy's feasible-set scan: one buffer reused
	// across Place calls, so the steady state never allocates.
	feas []int

	placements int
	rejections int
}

// New resolves the spec's machine references (inline models first, then the
// catalog and registered user models), expands node counts, and returns a
// fresh cluster. rng seeds the random policy; it may be nil for any other
// policy.
func New(s *Spec, rng *stats.RNG) (*Cluster, error) {
	if err := s.validateStructure(); err != nil {
		return nil, err
	}
	inline, err := s.parseInline()
	if err != nil {
		return nil, err
	}
	policy := s.Policy
	if policy == "" {
		policy = PolicyFirstFit
	}
	if policy == PolicyRandom && rng == nil {
		return nil, fmt.Errorf("cluster: random policy needs a seeded generator")
	}
	c := &Cluster{
		policy:     policy,
		contention: s.Contention,
		inline:     inline,
		seen:       map[string]bool{},
	}
	if rng != nil {
		// Draws batch through stats.Batch: the served sequence is exactly
		// the generator's, so seeded placement streams are unchanged.
		c.rng = stats.NewBatch(rng)
	}
	for i := range s.Nodes {
		if _, err := c.AddNodes(s.Nodes[i]); err != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
	}
	return c, nil
}

// ExpandNames returns the node names ns expands to: the spec name (or the
// machine name) as-is for a single node, suffixed -0..count-1 when count
// expands it. New, AddNodes and spec-level validation all share this rule.
func ExpandNames(ns NodeSpec) []string {
	count := ns.Count
	if count == 0 {
		count = 1
	}
	base := ns.Name
	if base == "" {
		base = ns.Machine
	}
	if count == 1 {
		return []string{base}
	}
	names := make([]string, count)
	for k := range names {
		names[k] = fmt.Sprintf("%s-%d", base, k)
	}
	return names
}

// ResolveModel resolves a machine reference the way node expansion does:
// the cluster's inline models first, then the catalog and registered user
// models.
func (c *Cluster) ResolveModel(name string) (*machine.Model, error) {
	if m := c.inline[name]; m != nil {
		return m, nil
	}
	return machine.Get(name)
}

// ShapeOf resolves the capacity one node expanded from ns would have,
// without adding it — used to decide whether a resource request could fit
// a node an event will add later.
func (c *Cluster) ShapeOf(ns NodeSpec) (cores int, mem int64, err error) {
	m, err := c.ResolveModel(ns.Machine)
	if err != nil {
		return 0, 0, err
	}
	cores = ns.Cores
	if cores == 0 {
		cores = m.Cores
	}
	mem = int64(ns.MemGB * float64(1<<30))
	if mem == 0 {
		mem = m.MemBytes
	}
	return cores, mem, nil
}

// AddNodes expands ns into nodes and appends them to the pool (named like
// New names them: name-0..count-1 when count > 1). New nodes start up and
// empty. It returns the new node indices; duplicate names, and growth past
// MaxNodes, fail without mutating the pool.
func (c *Cluster) AddNodes(ns NodeSpec) ([]int, error) {
	if count := max(ns.Count, 1); count > MaxNodes-len(c.nodes) {
		return nil, fmt.Errorf("adding %d nodes to %d grows the pool past %d nodes", count, len(c.nodes), MaxNodes)
	}
	m, err := c.ResolveModel(ns.Machine)
	if err != nil {
		return nil, err
	}
	cores, mem, err := c.ShapeOf(ns)
	if err != nil {
		return nil, err
	}
	names := ExpandNames(ns)
	for _, name := range names {
		if c.seen[name] {
			return nil, fmt.Errorf("duplicate node name %q", name)
		}
	}
	idx := make([]int, len(names))
	for k, name := range names {
		c.seen[name] = true
		idx[k] = len(c.nodes)
		c.nodes = append(c.nodes, &node{name: name, model: m, cores: cores, mem: mem, state: StateUp})
	}
	return idx, nil
}

// Len returns the number of nodes.
func (c *Cluster) Len() int { return len(c.nodes) }

// Fits reports whether the request could ever be placed — i.e. fits an
// *empty* node of the current pool, in any state. Requests that fail this
// (and fit no node an event could add) would queue forever.
func (c *Cluster) Fits(r Request) bool {
	for _, n := range c.nodes {
		if r.Cores <= n.cores && r.MemBytes <= n.mem {
			return true
		}
	}
	return false
}

// feasible reports whether the request fits node n right now. Only up
// nodes accept placements: draining and down nodes are out of the pool.
func (n *node) feasible(r Request) bool {
	return n.state == StateUp && n.usedCores+r.Cores <= n.cores && n.usedMem+r.MemBytes <= n.mem
}

// Place runs the policy for one request. On success it reserves the
// resources and returns the chosen node index plus the node's core occupancy
// *before* this placement (the contention input). On failure — no node can
// currently host the request — it records a rejection and returns ok=false.
func (c *Cluster) Place(r Request) (idx int, occ float64, ok bool) {
	best := -1
	switch c.policy {
	case PolicyFirstFit:
		for i, n := range c.nodes {
			if n.feasible(r) {
				best = i
				break
			}
		}
	case PolicyBestFit:
		bestFree := 0
		for i, n := range c.nodes {
			if !n.feasible(r) {
				continue
			}
			free := n.cores - n.usedCores - r.Cores
			if best < 0 || free < bestFree {
				best, bestFree = i, free
			}
		}
	case PolicyLeastLoaded:
		bestOcc := 0.0
		for i, n := range c.nodes {
			if !n.feasible(r) {
				continue
			}
			o := float64(n.usedCores) / float64(n.cores)
			if best < 0 || o < bestOcc {
				best, bestOcc = i, o
			}
		}
	case PolicyRandom:
		feas := c.feas[:0]
		for i, n := range c.nodes {
			if n.feasible(r) {
				feas = append(feas, i)
			}
		}
		c.feas = feas
		if len(feas) > 0 {
			best = feas[c.rng.Intn(len(feas))]
		}
	}
	if best < 0 {
		c.rejections++
		return 0, 0, false
	}
	n := c.nodes[best]
	occ = float64(n.usedCores) / float64(n.cores)
	n.usedCores += r.Cores
	n.usedMem += r.MemBytes
	n.placed++
	if n.usedCores > n.peakCores {
		n.peakCores = n.usedCores
	}
	c.placements++
	return best, occ, true
}

// Release returns a placed request's resources to node idx.
func (c *Cluster) Release(idx int, r Request) {
	n := c.nodes[idx]
	n.usedCores -= r.Cores
	n.usedMem -= r.MemBytes
}

// AddBusy charges d of core-time (service time × cores) to node idx.
func (c *Cluster) AddBusy(idx int, d time.Duration) { c.nodes[idx].busy += d }

// AddKilled counts one instance killed on node idx (its host went down
// mid-run).
func (c *Cluster) AddKilled(idx int) { c.nodes[idx].killed++ }

// State returns node idx's lifecycle state.
func (c *Cluster) State(idx int) string { return c.nodes[idx].state }

// SetDown takes node idx out of the pool. The caller is responsible for
// releasing (and re-queueing or killing) whatever was running on it.
func (c *Cluster) SetDown(idx int) { c.nodes[idx].state = StateDown }

// SetUp returns node idx to the pool (from down or draining).
func (c *Cluster) SetUp(idx int) { c.nodes[idx].state = StateUp }

// SetDrain stops new placements on node idx; running instances stay.
// Down nodes are unaffected (there is nothing left to drain).
func (c *Cluster) SetDrain(idx int) {
	if c.nodes[idx].state == StateUp {
		c.nodes[idx].state = StateDraining
	}
}

// Idle reports whether node idx currently hosts nothing.
func (c *Cluster) Idle(idx int) bool {
	n := c.nodes[idx]
	return n.usedCores == 0 && n.usedMem == 0
}

// FindNode returns the index of the node with the given name, or -1.
func (c *Cluster) FindNode(name string) int {
	for i, n := range c.nodes {
		if n.name == name {
			return i
		}
	}
	return -1
}

// LiveNodes counts nodes that are not down — the autoscaler's notion of
// current pool size.
func (c *Cluster) LiveNodes() int {
	live := 0
	for _, n := range c.nodes {
		if n.state != StateDown {
			live++
		}
	}
	return live
}

// EffectiveLoad maps a node's occupancy at placement time onto the replay's
// background CPU load: base + (1-base)·contention·occ. With contention ≤ 1
// and occ < 1 (the instance itself needs at least one core) the result stays
// strictly below 1, as the emulator requires.
func (c *Cluster) EffectiveLoad(idx int, base, occ float64) float64 {
	ct := c.nodes[idx].model.Threading.Contention
	if c.contention != nil {
		ct = *c.contention
	}
	if ct > 1 {
		ct = 1
	}
	if ct <= 0 || occ <= 0 {
		return base
	}
	return base + (1-base)*ct*occ
}

// MachineName returns the model name of node idx's machine.
func (c *Cluster) MachineName(idx int) string { return c.nodes[idx].model.Name }

// Model returns node idx's machine model.
func (c *Cluster) Model(idx int) *machine.Model { return c.nodes[idx].model }

// Models returns the distinct machine models across the cluster, in node
// order — the set of emulation targets a workload may land on.
func (c *Cluster) Models() []*machine.Model {
	var models []*machine.Model
	seen := map[string]bool{}
	for _, n := range c.nodes {
		if !seen[n.model.Name] {
			seen[n.model.Name] = true
			models = append(models, n.model)
		}
	}
	return models
}

// Policy returns the normalized policy name.
func (c *Cluster) Policy() string { return c.policy }

// Placements and Rejections are the placement-decision counters: successful
// placements, and admission probes that found no feasible node (counted at
// most once per workload per scheduling instant).
func (c *Cluster) Placements() int { return c.placements }

// Rejections returns the failed-placement-probe counter.
func (c *Cluster) Rejections() int { return c.rejections }

// NodeInfo is the per-node accounting snapshot for reports.
type NodeInfo struct {
	Name      string
	Machine   string
	Cores     int
	MemBytes  int64
	State     string
	Placed    int
	PeakCores int
	Killed    int
	Busy      time.Duration
}

// Info returns node idx's accounting snapshot.
func (c *Cluster) Info(idx int) NodeInfo {
	n := c.nodes[idx]
	return NodeInfo{
		Name:      n.name,
		Machine:   n.model.Name,
		Cores:     n.cores,
		MemBytes:  n.mem,
		State:     n.state,
		Placed:    n.placed,
		PeakCores: n.peakCores,
		Killed:    n.killed,
		Busy:      n.busy,
	}
}
