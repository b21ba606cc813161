package scenario

import (
	"fmt"
	"time"

	"synapse/internal/cluster"
	"synapse/internal/sim"
)

// Priority bands on the kernel: at one virtual instant, completions land
// first (freeing capacity and chaining closed loops), then arrivals join
// the queues, then the event timeline mutates the pool, then the
// autoscaler reads the resulting pressure — and only after all of that
// does the instant's admission (the kernel's per-instant hook) place
// work, so each instant's placements resolve as one batch against the
// instant's final pool.
const (
	prioComplete sim.Priority = iota
	prioArrive
	prioEvent
	prioAutoscale
)

// Sink events: the typed observations the scheduler emits through the
// kernel to whatever sinks are attached (the report aggregator, the
// time-series sink). All of them fire on the kernel's timeline, so sinks
// see one deterministic sequence.
type (
	// evArrived: an instance joined its workload's queue.
	evArrived struct{ w int }
	// evStarted: an instance was placed and began service. node is -1
	// without a cluster. id is the global instance index — stable across
	// kill-and-retry, so sinks can pair starts with completions/kills.
	evStarted struct{ w, node, cores, id int }
	// evCompleted: an instance finished service.
	evCompleted struct{ w, node, cores, id int }
	// evKilled: a node failure killed a running instance; it re-joined
	// its queue (kill-and-retry).
	evKilled struct{ w, node, cores, id int }
	// evDropped: n instances of workload w were dropped — queued ones
	// (stranded) or unarrived closed-loop successors (horizon cuts).
	evDropped struct {
		w, n   int
		queued bool
	}
	// evNode: a node changed lifecycle state (including joining the
	// pool, which arrives as state "up").
	evNode struct {
		node  int
		name  string
		cores int
		state string
	}
)

// resolver assigns job and tx to a scheduling instant's freshly placed
// instances. Nil means both are already known (eager mode).
type resolver func(placed []int) error

// sched plays a compiled scenario on the sim kernel: arrivals, placement,
// queueing, completions, pool events and autoscaling on the virtual
// timeline.
type sched struct {
	k       *sim.Kernel
	spec    *Spec
	wls     []*workloadState
	insts   []*instance
	cl      *cluster.Cluster
	resolve resolver

	horizon time.Duration
	gmax    int

	// Pending instances queue FIFO per workload (append-only with a head
	// cursor — no splicing); enq stamps global arrival order. Admission
	// picks the earliest-enqueued eligible head across workloads, which
	// is exactly a global FIFO scan that skips entries of saturated
	// workloads (everything behind a blocked head in its own queue
	// belongs to the same saturated workload), in O(workloads) per
	// admission instead of O(pending) per event.
	queues [][]int
	heads  []int
	enq    []int
	enqSeq int

	// blocked caches, per instant, workloads whose resource request found
	// no feasible node: within admission capacity only shrinks (events
	// that grow it run earlier in the instant), so one failed probe per
	// workload per instant suffices.
	blocked []bool

	running  int
	wrunning []int

	completed   int
	killed      int
	outstanding int // enumerated instances not yet completed or dropped

	// Event/autoscale accounting.
	eventsApplied int
	autoNodes     []int // node indices the autoscaler manages
	autoAdded     int   // distinct nodes the autoscaler created
	autoSeq       int   // monotone name counter for autoscaled nodes
	lastAuto      [4]int

	// Scratch event values, reused across Emit calls so the hot path
	// (arrive/start/complete per instance) never boxes into the heap.
	// Sinks see pointers and must copy anything they keep.
	scrArrived   evArrived
	scrStarted   evStarted
	scrCompleted evCompleted
	scrKilled    evKilled
	scrDropped   evDropped
	scrNode      evNode

	// Pre-bound kernel handlers, created once in newSched: posting an
	// arrival or completion then costs no closure allocation — the
	// instance id (and generation) travel inline in the heap entry.
	hArrive    sim.Handler // a = instance id
	hComplete  sim.Handler // a = instance id, b = generation
	hEvent     sim.Handler // a = timeline event index
	hAutoscale sim.Handler // a = the check's virtual time in ns

	// placedBuf backs admit's result: one buffer reused every instant.
	placedBuf []int

	err error
}

func (s *sched) emitArrived(w int) {
	s.scrArrived = evArrived{w: w}
	s.k.Emit(&s.scrArrived)
}

func (s *sched) emitStarted(w, node, cores, id int) {
	s.scrStarted = evStarted{w: w, node: node, cores: cores, id: id}
	s.k.Emit(&s.scrStarted)
}

func (s *sched) emitCompleted(w, node, cores, id int) {
	s.scrCompleted = evCompleted{w: w, node: node, cores: cores, id: id}
	s.k.Emit(&s.scrCompleted)
}

func (s *sched) emitKilled(w, node, cores, id int) {
	s.scrKilled = evKilled{w: w, node: node, cores: cores, id: id}
	s.k.Emit(&s.scrKilled)
}

func (s *sched) emitDropped(w, n int, queued bool) {
	s.scrDropped = evDropped{w: w, n: n, queued: queued}
	s.k.Emit(&s.scrDropped)
}

// newSched wires a compiled scenario onto a kernel.
func newSched(k *sim.Kernel, c *compiled, resolve resolver) *sched {
	s := &sched{
		k:        k,
		spec:     c.spec,
		wls:      c.wls,
		insts:    c.insts,
		cl:       c.cl,
		resolve:  resolve,
		horizon:  c.spec.Duration.D(),
		gmax:     c.spec.MaxConcurrent,
		queues:   make([][]int, len(c.wls)),
		heads:    make([]int, len(c.wls)),
		enq:      make([]int, len(c.insts)),
		blocked:  make([]bool, len(c.wls)),
		wrunning: make([]int, len(c.wls)),

		outstanding: len(c.insts),
	}
	// Bind the kernel handlers once; every post after this is
	// allocation-free (the ids travel inline in the heap entries).
	s.hArrive = func(a, _ int64) { s.arrive(int(a)) }
	s.hComplete = func(a, b int64) { s.complete(int(a), int(b)) }
	s.hEvent = func(a, _ int64) { s.applyEvent(&s.spec.Events.Timeline[a]) }
	s.hAutoscale = func(a, _ int64) { s.autoscale(time.Duration(a)) }
	return s
}

// run seeds the timeline and drains it. It returns the first resolver (or
// runtime event) error; whatever is still queued when the timeline dries
// up — possible only when events shrank the pool for good — is counted
// dropped, chains included.
func (s *sched) run() error {
	// Pre-size the event arena: at most one pending arrival per instance
	// plus the event timeline and one autoscale check coexist in the heap,
	// so the steady state never grows it.
	events := 0
	if ev := s.spec.Events; ev != nil {
		events = len(ev.Timeline) + 1
	}
	s.k.Reserve(len(s.insts) + events + 1)
	// Seed the timeline: open-loop arrivals are known; every closed-loop
	// client's first iteration arrives at t=0.
	for _, ws := range s.wls {
		if ws.spec.Arrival.Process == ArrivalClosed {
			iters := ws.spec.Arrival.Iterations
			for c := 0; c < ws.spec.Arrival.Clients; c++ {
				id := ws.insts[c*iters]
				s.k.PostHandler(0, prioArrive, s.hArrive, int64(id), 0)
			}
		} else {
			for _, id := range ws.insts {
				s.k.PostHandler(s.insts[id].arrival, prioArrive, s.hArrive, int64(id), 0)
			}
		}
	}
	// The event timeline and the autoscaler's first check.
	if ev := s.spec.Events; ev != nil {
		for i := range ev.Timeline {
			s.k.PostHandler(ev.Timeline[i].At.D(), prioEvent, s.hEvent, int64(i), 0)
		}
		if a := ev.Autoscale; a != nil {
			t := a.CheckEvery.D()
			s.k.PostHandler(t, prioAutoscale, s.hAutoscale, int64(t), 0)
		}
	}

	s.k.Run(s.instant)
	if s.err != nil {
		return s.err
	}
	s.strandDrops()
	return nil
}

// arrive enqueues an instance at the current instant.
func (s *sched) arrive(id int) {
	in := s.insts[id]
	in.arrival = s.k.Now()
	s.enqSeq++
	s.enq[id] = s.enqSeq
	s.queues[in.w] = append(s.queues[in.w], id)
	s.emitArrived(in.w)
}

// complete finishes an instance's service — unless gen says a node
// failure killed this placement, making the pending completion stale.
func (s *sched) complete(id, gen int) {
	in := s.insts[id]
	if in.gen != gen || !in.running {
		return
	}
	now := s.k.Now()
	in.running = false
	s.running--
	s.wrunning[in.w]--
	s.completed++
	s.outstanding--
	ws := s.wls[in.w]
	cores := 0
	if s.cl != nil {
		cores = ws.req.Cores
		s.cl.Release(in.node, ws.req)
		s.cl.AddBusy(in.node, time.Duration(cores)*in.tx)
	}
	s.emitCompleted(in.w, in.node, cores, id)
	a := &ws.spec.Arrival
	if a.Process == ArrivalClosed && in.iter+1 < a.Iterations {
		// The client issues its next iteration the moment this one
		// completes — unless the horizon has passed, which cuts the
		// rest of the chain.
		if s.horizon > 0 && now > s.horizon {
			n := a.Iterations - (in.iter + 1)
			ws.dropped += n
			s.outstanding -= n
			s.emitDropped(in.w, n, false)
		} else {
			next := ws.insts[in.idx+1]
			s.k.PostHandler(now, prioArrive, s.hArrive, int64(next), 0)
		}
	}
}

// applyEvent mutates the pool per one timeline event. Already-satisfied
// transitions (downing a down node, reviving an up one) are no-ops.
func (s *sched) applyEvent(e *ClusterEvent) {
	s.eventsApplied++
	switch e.Kind {
	case EventNodeDown, EventNodeUp, EventNodeDrain:
		idx := s.cl.FindNode(e.Node)
		if idx < 0 {
			// Validation pins targets to the pool as scheduled; an
			// unresolvable one here is a programming error upstream.
			s.fail(fmt.Errorf("scenario: events: %s: unknown node %q", e.Kind, e.Node))
			return
		}
		switch e.Kind {
		case EventNodeDown:
			s.downNode(idx)
		case EventNodeUp:
			s.upNode(idx)
		case EventNodeDrain:
			if s.cl.State(idx) == cluster.StateUp {
				s.cl.SetDrain(idx)
				s.emitNode(idx)
			}
		}
	case EventAddNodes:
		added, err := s.cl.AddNodes(*e.Add)
		if err != nil {
			s.fail(fmt.Errorf("scenario: events: add_nodes %q: %w", e.Add.Machine, err))
			return
		}
		for _, idx := range added {
			s.emitNode(idx)
		}
	}
}

// downNode takes a node out of the pool, killing and re-queueing whatever
// ran on it: each victim releases its resources, charges the node for the
// service it consumed before dying, and re-joins its workload queue (in
// global instance order — deterministic) to retry from scratch.
func (s *sched) downNode(idx int) {
	if s.cl.State(idx) == cluster.StateDown {
		return
	}
	now := s.k.Now()
	for id, in := range s.insts {
		if !in.running || in.node != idx {
			continue
		}
		ws := s.wls[in.w]
		in.running = false
		in.ran = false
		in.gen++ // the pending completion is now stale
		s.running--
		s.wrunning[in.w]--
		s.killed++
		ws.killed++
		s.cl.Release(idx, ws.req)
		s.cl.AddBusy(idx, time.Duration(ws.req.Cores)*(now-in.start))
		s.cl.AddKilled(idx)
		s.emitKilled(in.w, idx, ws.req.Cores, id)
		// Retry: back of the workload's queue, original arrival kept.
		s.enqSeq++
		s.enq[id] = s.enqSeq
		s.queues[in.w] = append(s.queues[in.w], id)
	}
	s.cl.SetDown(idx)
	s.emitNode(idx)
}

// upNode returns a node to the pool.
func (s *sched) upNode(idx int) {
	if s.cl.State(idx) == cluster.StateUp {
		return
	}
	s.cl.SetUp(idx)
	s.emitNode(idx)
}

// autoscale is the recurring queue-threshold check. It reschedules itself
// while the run can still make progress; a run that is provably stuck
// (nothing running, nothing scheduled, no pool change since the last
// check, and this check did nothing) lets the timeline dry up so the
// stranded queue is accounted and the run terminates.
func (s *sched) autoscale(t time.Duration) {
	a := s.spec.Events.Autoscale
	queued := 0
	for w := range s.queues {
		queued += len(s.queues[w]) - s.heads[w]
	}
	acted := false
	if queued >= a.QueueHigh {
		acted = s.scaleUp(a)
	} else if queued <= a.QueueLow {
		for _, idx := range s.autoNodes {
			if s.cl.State(idx) == cluster.StateUp && s.cl.Idle(idx) {
				s.cl.SetDown(idx)
				s.emitNode(idx)
			}
		}
	}
	if s.err != nil {
		return
	}
	snap := [4]int{s.completed, s.killed, s.cl.Placements(), s.cl.LiveNodes()}
	stuck := snap == s.lastAuto && !acted && s.running == 0 && s.k.Len() == 0
	s.lastAuto = snap
	if s.outstanding > 0 && !stuck {
		next := t + a.CheckEvery.D()
		s.k.PostHandler(next, prioAutoscale, s.hAutoscale, int64(next), 0)
	}
}

// scaleUp revives autoscaled nodes taken down by earlier scale-downs,
// then creates new ones ("name-0", "name-1", ... off the template), up to
// the template count per step and MaxNodes live overall.
func (s *sched) scaleUp(a *Autoscale) bool {
	want := a.Add.Count
	if want == 0 {
		want = 1
	}
	if a.MaxNodes > 0 {
		if room := a.MaxNodes - s.cl.LiveNodes(); room < want {
			want = room
		}
	}
	acted := false
	for _, idx := range s.autoNodes {
		if want <= 0 {
			break
		}
		if s.cl.State(idx) == cluster.StateDown {
			s.cl.SetUp(idx)
			s.emitNode(idx)
			want--
			acted = true
		}
	}
	base := a.Add.Name
	if base == "" {
		base = a.Add.Machine
	}
	for ; want > 0; want-- {
		ns := a.Add
		ns.Name = fmt.Sprintf("%s-%d", base, s.autoSeq)
		ns.Count = 1
		s.autoSeq++
		added, err := s.cl.AddNodes(ns)
		if err != nil {
			s.fail(fmt.Errorf("scenario: events: autoscale: %w", err))
			return acted
		}
		s.autoNodes = append(s.autoNodes, added[0])
		s.autoAdded++
		s.emitNode(added[0])
		acted = true
	}
	return acted
}

// emitNode reports a node's current shape and state to the sinks.
func (s *sched) emitNode(idx int) {
	info := s.cl.Info(idx)
	s.scrNode = evNode{node: idx, name: info.Name, cores: info.Cores, state: info.State}
	s.k.Emit(&s.scrNode)
}

// fail records the first error and stops the kernel.
func (s *sched) fail(err error) {
	if s.err == nil {
		s.err = err
		s.k.Stop()
	}
}

// instant is the kernel's per-instant hook: admit everything the instant's
// final capacity allows, resolve the fresh placements' emulations as one
// batch, and schedule their completions.
func (s *sched) instant() {
	if s.err != nil {
		return
	}
	now := s.k.Now()
	placed := s.admit()
	if len(placed) == 0 {
		return
	}
	if s.resolve != nil {
		if err := s.resolve(placed); err != nil {
			s.fail(err)
			return
		}
	}
	for _, id := range placed {
		in := s.insts[id]
		cores := 0
		if s.cl != nil {
			cores = s.wls[in.w].req.Cores
		}
		s.emitStarted(in.w, in.node, cores, id)
		in.done = now + in.tx
		s.k.PostHandler(in.done, prioComplete, s.hComplete, int64(id), int64(in.gen))
	}
}

// admit places queued instances until capacity or the queues run out:
// FIFO by arrival with skip-ahead — an instance blocked only by its own
// workload's cap (or, with a cluster, by its workload's resource request
// not fitting any node right now) does not block other workloads behind
// it.
func (s *sched) admit() []int {
	now := s.k.Now()
	placed := s.placedBuf[:0]
	if s.cl != nil {
		for w := range s.blocked {
			s.blocked[w] = false
		}
	}
	for {
		if s.gmax > 0 && s.running >= s.gmax {
			break
		}
		best := -1
		for w := range s.queues {
			if s.heads[w] >= len(s.queues[w]) {
				continue
			}
			wmax := s.wls[w].spec.MaxConcurrent
			if wmax > 0 && s.wrunning[w] >= wmax {
				continue
			}
			if s.blocked[w] {
				continue
			}
			id := s.queues[w][s.heads[w]]
			if best < 0 || s.enq[id] < s.enq[best] {
				best = id
			}
		}
		if best < 0 {
			break
		}
		in := s.insts[best]
		if s.cl != nil {
			node, occ, ok := s.cl.Place(s.wls[in.w].req)
			if !ok {
				s.blocked[in.w] = true
				continue
			}
			in.node = node
			in.eff = s.cl.EffectiveLoad(node, in.load, occ)
		}
		in.start = now
		in.ran = true
		in.running = true
		s.running++
		s.wrunning[in.w]++
		s.heads[in.w]++
		placed = append(placed, best)
	}
	s.placedBuf = placed
	return placed
}

// strandDrops accounts instances still queued when the timeline dried up:
// only a pool that shrank for good (events, autoscale) strands work, and
// a stranded closed-loop instance strands the rest of its chain with it.
func (s *sched) strandDrops() {
	for w, ws := range s.wls {
		a := &ws.spec.Arrival
		stranded := 0
		for _, id := range s.queues[w][s.heads[w]:] {
			in := s.insts[id]
			n := 1
			if a.Process == ArrivalClosed && in.iter+1 < a.Iterations {
				n += a.Iterations - (in.iter + 1)
			}
			ws.dropped += n
			s.outstanding -= n
			stranded += n
		}
		if stranded > 0 {
			s.emitDropped(w, stranded, true)
		}
	}
}
