// synapse-worker is the Synapse fleet worker daemon: it serves the
// distributed scenario-execution protocol (internal/dist), compiling specs
// a coordinator ships to it and executing chunks of replay jobs on the
// batched emulation engine.
//
//	synapse-worker -addr :9191
//	synapse-worker -addr :9191 -workers 8 -max-inflight 16 -queue 8
//	synapse-worker -addr 127.0.0.1:9191 -pprof
//	synapse-worker -log-format json -log-level debug
//
// A synapse-sim run points at a fleet with -workers-remote
// host:9191,host2:9191. Workers need no profile store: the coordinator
// resolves profiles and ships them inline with the spec, so a worker
// deployment is one static binary and one port. Outcomes are pure
// functions of the compiled (spec, profiles) — any worker can serve any
// chunk, any number of times (the coordinator speculatively re-executes
// straggler chunks), and the coordinator's merged report is byte-identical
// to a single-process run. A chunk is computed, then answered as NDJSON,
// 64 packed outcomes per line. /v1/healthz reports liveness plus the
// admission counters, GET /v1/metrics renders Prometheus text exposition
// (RED middleware plus worker series), and the daemon sheds new chunks and
// drains in-flight ones on SIGINT/SIGTERM. See docs/distributed.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

	"synapse/internal/dist"
	"synapse/internal/httpsvc"
)

// stdout is the daemon's log stream, replaceable in tests.
var stdout io.Writer = os.Stdout

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "synapse-worker:", err)
		os.Exit(1)
	}
}

// options are the daemon's flags: the shared set httpsvc binds plus the
// worker's own.
type options struct {
	*httpsvc.Daemon
	workers, maxSessions int
}

func bindFlags(fs *flag.FlagSet) *options {
	o := &options{Daemon: httpsvc.NewDaemon(fs, stdout, ":9191")}
	fs.IntVar(&o.workers, "workers", 0, "parallel emulation workers per execute request (0 = all cores)")
	fs.IntVar(&o.maxSessions, "max-sessions", 4, "compile sessions held before evicting the oldest")
	return o
}

// run starts the daemon and blocks until a signal drains it. ready, when
// non-nil, receives the bound address once the server is listening.
func run(args []string, ready chan<- string) error {
	o := bindFlags(flag.NewFlagSet("synapse-worker", flag.ExitOnError))
	if done, err := o.Parse(args); done || err != nil {
		return err
	}
	srv := dist.NewServer(dist.ServerConfig{
		Config:      o.Config,
		Workers:     o.workers,
		MaxSessions: o.maxSessions,
	})
	return o.Serve(srv, ready, slog.Int("workers", o.workers))
}
