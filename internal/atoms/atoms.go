// Package atoms implements Synapse's emulation atoms (paper §3.3, §4.2):
// fine-grained, tunable consumers of one system resource each. The emulator
// feeds profile samples to the atoms; within a sample every atom runs
// concurrently, and the sample ends when the last atom finishes.
//
// Each atom exists in two backends sharing one interface: simulated atoms
// model their consumption against a machine.Model (deterministic, used by
// every experiment), and real atoms actually consume host resources (burn
// CPU with internal/kernels, read/write files, allocate memory, move bytes
// over loopback sockets).
package atoms

import (
	"context"
	"fmt"
	"math"
	"time"

	"synapse/internal/machine"
	"synapse/internal/perfcount"
)

// DefaultIOBlock is the static I/O granularity used when the emulation is
// not configured otherwise. The paper's default atoms use block sizes "not
// related to the recorded profiles" (§4.2).
const DefaultIOBlock = 1 << 20

// Request is the resource consumption demanded of the atoms by one profile
// sample.
type Request struct {
	Cycles float64
	FLOPs  float64

	ReadBytes  float64
	WriteBytes float64
	ReadOps    float64 // profiled operation counts (optional)
	WriteOps   float64

	AllocBytes float64
	FreeBytes  float64

	NetReadBytes  float64
	NetWriteBytes float64
}

// IsZero reports whether the request demands nothing.
func (r Request) IsZero() bool { return r == Request{} }

// Result is what an atom consumed and how long it took.
type Result struct {
	// Dur is the modeled (sim) or measured (real) time the consumption
	// took in the atom's thread.
	Dur time.Duration
	// Consumed are the resources actually consumed, which may exceed the
	// request (kernel calibration bias, chunk granularity).
	Consumed perfcount.Counters
}

// Atom consumes one type of system resource.
type Atom interface {
	// Name identifies the atom ("compute", "memory", "storage", "network").
	Name() string
	// Consume executes (or models) the atom's share of the request.
	Consume(ctx context.Context, req Request) (Result, error)
}

// Config tunes a set of atoms. The tunability knobs mirror the paper's:
// kernel selection (E.3), I/O block sizes and target filesystem (E.5),
// thread/process parallelism (E.4).
type Config struct {
	// Machine models the resource being emulated on (required for
	// simulated atoms; used by real atoms only for its nominal clock).
	Machine *machine.Model
	// Kernel selects the compute kernel ("asm" default, "c", user ones).
	Kernel string
	// ReadBlock/WriteBlock set static I/O granularity in bytes
	// (DefaultIOBlock when zero).
	ReadBlock, WriteBlock int64
	// UseProfiledBlocks derives I/O granularity from the profiled
	// operation counts when available, instead of the static blocks —
	// the blktrace-informed mode the paper plans (§6).
	UseProfiledBlocks bool
	// Filesystem overrides the machine's default filesystem.
	Filesystem string
	// NetBlock sets network write granularity.
	NetBlock int64
	// Workers/Mode inject parallelism into the compute emulation
	// (paper E.4). Workers <= 1 means serial.
	Workers int
	Mode    machine.Mode
	// Load adds artificial background CPU load (paper's stress mode,
	// §4.3: "Synapse is able to force an artificial CPU, disk and memory
	// load onto the system while emulating"). Fraction in [0, 1).
	Load float64
	// DiskLoad adds artificial background storage load: I/O slows by
	// 1/(1-DiskLoad).
	DiskLoad float64
	// MemLoad adds artificial background memory-bandwidth load.
	MemLoad float64
}

// kernelName returns the configured kernel, defaulting to the paper's
// default ASM kernel.
func (c *Config) kernelName() string {
	if c.Kernel == "" {
		return machine.KernelASM
	}
	return c.Kernel
}

func (c *Config) readBlock() int64 {
	if c.ReadBlock > 0 {
		return c.ReadBlock
	}
	return DefaultIOBlock
}

func (c *Config) writeBlock() int64 {
	if c.WriteBlock > 0 {
		return c.WriteBlock
	}
	return DefaultIOBlock
}

// Validate reports the first problem with the configuration, or nil.
func (c *Config) Validate() error {
	if c.Machine == nil {
		return fmt.Errorf("atoms: config needs a machine model")
	}
	if c.Workers < 0 {
		return fmt.Errorf("atoms: negative workers")
	}
	for _, l := range []struct {
		name string
		v    float64
	}{{"load", c.Load}, {"disk load", c.DiskLoad}, {"memory load", c.MemLoad}} {
		if l.v != 0 && (l.v < 0 || l.v >= 1) {
			return fmt.Errorf("atoms: %s %g outside [0,1)", l.name, l.v)
		}
	}
	if _, err := c.Machine.Kernel(c.kernelName()); err != nil {
		return err
	}
	if _, err := c.Machine.Filesystem(c.Filesystem); err != nil {
		return err
	}
	return nil
}

// --- Simulated atoms ---

// SimCompute models the compute atom: it consumes the requested cycles in
// whole kernel chunks, biased by the kernel's calibration error, and spreads
// the work across workers according to the machine's threading model.
//
// The atom carries a surplus across samples: dispatching whole chunks
// overshoots each sample's target, and the driver discounts the overshoot
// from the next sample (the emulator tracks cumulative consumption, like the
// paper's tight atom-feeding loop). Whole-run consumption therefore exceeds
// the directed amount by at most one chunk plus the calibration bias, which
// is exactly the E.3 error shape: decaying with problem size, converging to
// the bias.
type SimCompute struct {
	cfg *Config
	kp  machine.KernelPerf
	// surplus is work (in the kernel's own estimated cycles) already
	// performed beyond the cumulative directed target.
	surplus float64
}

// NewSimCompute builds the simulated compute atom.
func NewSimCompute(cfg *Config) (*SimCompute, error) {
	kp, err := cfg.Machine.Kernel(cfg.kernelName())
	if err != nil {
		return nil, err
	}
	return &SimCompute{cfg: cfg, kp: kp}, nil
}

// Name implements Atom.
func (a *SimCompute) Name() string { return "compute" }

// Consume implements Atom.
func (a *SimCompute) Consume(ctx context.Context, req Request) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	var res Result
	res.Dur = a.model(&req, &res.Consumed)
	return res, nil
}

// ConsumeBatch implements BatchConsumer: the whole run of requests is modeled
// with one context check and no per-sample interface dispatch.
func (a *SimCompute) ConsumeBatch(ctx context.Context, reqs []Request, durs []time.Duration, dst []*perfcount.Counters) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for i := range reqs {
		durs[i] = a.model(&reqs[i], dst[i])
	}
	return nil
}

// model is the atom's one model, shared by Consume and ConsumeBatch so the
// two cannot drift: it returns the modeled duration and adds what was
// consumed into the fields the compute atom owns (Cycles, Instructions,
// FLOPs) of dst.
func (a *SimCompute) model(req *Request, dst *perfcount.Counters) time.Duration {
	if req.Cycles <= 0 && req.FLOPs <= 0 {
		return 0
	}
	// Discount work already performed beyond earlier targets.
	target := req.Cycles - a.surplus
	if target <= 0 {
		a.surplus -= req.Cycles
		dst.FLOPs += req.FLOPs
		return 0
	}
	chunk := a.kp.Chunk()
	chunks := math.Ceil(target / chunk)
	if chunks < 1 {
		chunks = 1
	}
	a.surplus = chunks*chunk - target
	consumed := chunks * chunk * a.kp.CalibBias
	dur := a.cfg.Machine.ComputeTime(consumed)
	if a.cfg.Load > 0 {
		dur = time.Duration(float64(dur) / (1 - a.cfg.Load))
	}
	if a.cfg.Workers > 1 && a.cfg.Mode != machine.ModeSerial {
		// Per-sample work distribution; the one-time worker-pool setup
		// cost is accounted by the emulator's startup, not per sample.
		dur = a.cfg.Machine.Threading.ScaleWork(dur, a.cfg.Workers, a.cfg.Machine.Cores, a.cfg.Mode)
	}
	dst.Cycles += consumed
	// The conversion rounds the product before the add: without it the
	// compiler may fuse the two into one FMA on architectures that have it,
	// and the total would no longer be the sum of the per-sample values.
	dst.Instructions += float64(consumed * a.kp.IPC)
	dst.FLOPs += req.FLOPs
	return dur
}

// SimStorage models the storage atom: block-granular reads and writes
// against the configured filesystem.
type SimStorage struct {
	cfg *Config
	fs  machine.FSPerf
}

// NewSimStorage builds the simulated storage atom.
func NewSimStorage(cfg *Config) (*SimStorage, error) {
	fs, err := cfg.Machine.Filesystem(cfg.Filesystem)
	if err != nil {
		return nil, err
	}
	return &SimStorage{cfg: cfg, fs: fs}, nil
}

// Name implements Atom.
func (a *SimStorage) Name() string { return "storage" }

// blockFor derives the effective block size for a transfer.
func (a *SimStorage) blockFor(bytes, ops float64, static int64) int64 {
	if a.cfg.UseProfiledBlocks && ops > 0 && bytes > 0 {
		return int64(bytes / ops)
	}
	return static
}

// Consume implements Atom.
func (a *SimStorage) Consume(ctx context.Context, req Request) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	var res Result
	res.Dur = a.model(&req, &res.Consumed)
	return res, nil
}

// ConsumeBatch implements BatchConsumer.
func (a *SimStorage) ConsumeBatch(ctx context.Context, reqs []Request, durs []time.Duration, dst []*perfcount.Counters) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for i := range reqs {
		durs[i] = a.model(&reqs[i], dst[i])
	}
	return nil
}

// model is the atom's one model, shared by Consume and ConsumeBatch; it
// owns ReadBytes, WriteBytes, ReadOps and WriteOps.
func (a *SimStorage) model(req *Request, dst *perfcount.Counters) time.Duration {
	if req.ReadBytes <= 0 && req.WriteBytes <= 0 {
		return 0
	}
	rb := a.blockFor(req.ReadBytes, req.ReadOps, a.cfg.readBlock())
	wb := a.blockFor(req.WriteBytes, req.WriteOps, a.cfg.writeBlock())
	dur := a.fs.ReadTime(int64(req.ReadBytes), rb) + a.fs.WriteTime(int64(req.WriteBytes), wb)
	if a.cfg.DiskLoad > 0 {
		dur = time.Duration(float64(dur) / (1 - a.cfg.DiskLoad))
	}
	dst.ReadBytes += req.ReadBytes
	dst.WriteBytes += req.WriteBytes
	if req.ReadBytes > 0 && rb > 0 {
		dst.ReadOps += math.Ceil(req.ReadBytes / float64(rb))
	}
	if req.WriteBytes > 0 && wb > 0 {
		dst.WriteOps += math.Ceil(req.WriteBytes / float64(wb))
	}
	return dur
}

// SimMemory models the memory atom (malloc/free traffic).
type SimMemory struct {
	cfg *Config
}

// NewSimMemory builds the simulated memory atom.
func NewSimMemory(cfg *Config) *SimMemory { return &SimMemory{cfg: cfg} }

// Name implements Atom.
func (a *SimMemory) Name() string { return "memory" }

// Consume implements Atom.
func (a *SimMemory) Consume(ctx context.Context, req Request) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	var res Result
	res.Dur = a.model(&req, &res.Consumed)
	return res, nil
}

// ConsumeBatch implements BatchConsumer.
func (a *SimMemory) ConsumeBatch(ctx context.Context, reqs []Request, durs []time.Duration, dst []*perfcount.Counters) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for i := range reqs {
		durs[i] = a.model(&reqs[i], dst[i])
	}
	return nil
}

// model is the atom's one model, shared by Consume and ConsumeBatch; it
// owns AllocBytes and FreeBytes.
func (a *SimMemory) model(req *Request, dst *perfcount.Counters) time.Duration {
	total := req.AllocBytes + req.FreeBytes
	if total <= 0 {
		return 0
	}
	dur := a.cfg.Machine.MemTime(int64(total))
	if a.cfg.MemLoad > 0 {
		dur = time.Duration(float64(dur) / (1 - a.cfg.MemLoad))
	}
	dst.AllocBytes += req.AllocBytes
	dst.FreeBytes += req.FreeBytes
	return dur
}

// SimNetwork models the network atom.
type SimNetwork struct {
	cfg *Config
}

// NewSimNetwork builds the simulated network atom.
func NewSimNetwork(cfg *Config) *SimNetwork { return &SimNetwork{cfg: cfg} }

// Name implements Atom.
func (a *SimNetwork) Name() string { return "network" }

// Consume implements Atom.
func (a *SimNetwork) Consume(ctx context.Context, req Request) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	var res Result
	res.Dur = a.model(&req, &res.Consumed)
	return res, nil
}

// ConsumeBatch implements BatchConsumer.
func (a *SimNetwork) ConsumeBatch(ctx context.Context, reqs []Request, durs []time.Duration, dst []*perfcount.Counters) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for i := range reqs {
		durs[i] = a.model(&reqs[i], dst[i])
	}
	return nil
}

// model is the atom's one model, shared by Consume and ConsumeBatch; it
// owns NetReadBytes and NetWriteBytes.
func (a *SimNetwork) model(req *Request, dst *perfcount.Counters) time.Duration {
	total := req.NetReadBytes + req.NetWriteBytes
	if total <= 0 {
		return 0
	}
	dst.NetReadBytes += req.NetReadBytes
	dst.NetWriteBytes += req.NetWriteBytes
	return a.cfg.Machine.NetTime(int64(total), a.cfg.NetBlock)
}

// Reset clears the cross-sample surplus, restoring the just-built state.
func (a *SimCompute) Reset() { a.surplus = 0 }

// ResetSim restores a simulated atom set to its just-built state, so a
// pooled set replays as if freshly constructed. Only the compute atom
// carries cross-sample state (its chunk-overshoot surplus); the other
// simulated atoms are pure functions of their config.
func ResetSim(set []Atom) {
	for _, a := range set {
		if c, ok := a.(*SimCompute); ok {
			c.Reset()
		}
	}
}

// NewSimSet builds the full simulated atom set for a configuration.
func NewSimSet(cfg *Config) ([]Atom, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	compute, err := NewSimCompute(cfg)
	if err != nil {
		return nil, err
	}
	storage, err := NewSimStorage(cfg)
	if err != nil {
		return nil, err
	}
	return []Atom{compute, storage, NewSimMemory(cfg), NewSimNetwork(cfg)}, nil
}
