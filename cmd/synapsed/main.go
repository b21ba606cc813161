// synapsed is the Synapse profile-store daemon: it serves a profile store
// over HTTP so many profiling and emulation hosts share one database — the
// paper's shared MongoDB service (§4), "profile once, emulate anywhere".
//
//	synapsed -addr :8181 -backend sharded -shards 16
//	synapsed -addr :8181 -backend file -dir /var/lib/synapse
//	synapsed -addr 127.0.0.1:8181 -pprof      # mounts /debug/pprof/
//	synapsed -max-inflight 256 -queue 64 -request-timeout 5s
//	synapsed -read-only                       # degraded: shed writes
//	synapsed -log-format json -log-level debug
//
// Clients connect with synapse.NewRemoteStore("http://host:8181") or any
// CLI -store flag given as an http:// URL. Overload protection (bounded
// in-flight requests, admission queue, 429 shedding with Retry-After) is
// configured with -max-inflight/-queue/-request-timeout; /v1/healthz
// reports the shed and in-flight counters plus build identity, and
// GET /v1/metrics renders the daemon's instruments in Prometheus text
// exposition (see docs/observability.md). Logs are structured (log/slog):
// -log-format picks text or json, -log-level sets the floor (per-request
// lines log at debug). The daemon sheds new requests and drains in-flight
// ones on SIGINT/SIGTERM.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

	"synapse/internal/httpsvc"
	"synapse/internal/store"
	"synapse/internal/storesrv"
)

// stdout is the daemon's log stream, replaceable in tests.
var stdout io.Writer = os.Stdout

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "synapsed:", err)
		os.Exit(1)
	}
}

// options are the daemon's flags: the shared set httpsvc binds plus the
// store's own.
type options struct {
	*httpsvc.Daemon
	backend, dir string
	shards       int
	readOnly     bool
}

func bindFlags(fs *flag.FlagSet) *options {
	o := &options{Daemon: httpsvc.NewDaemon(fs, stdout, ":8181")}
	fs.StringVar(&o.backend, "backend", "sharded", "storage backend: mem, file, sharded")
	fs.StringVar(&o.dir, "dir", "synapse-store", "profile directory (backend=file)")
	fs.IntVar(&o.shards, "shards", store.DefaultShards, "lock stripes (backend=sharded)")
	fs.BoolVar(&o.readOnly, "read-only", false, "degraded mode: shed writes, serve reads")
	return o
}

// run starts the daemon and blocks until a signal drains it. ready, when
// non-nil, receives the bound address once the server is listening.
func run(args []string, ready chan<- string) error {
	o := bindFlags(flag.NewFlagSet("synapsed", flag.ExitOnError))
	if done, err := o.Parse(args); done || err != nil {
		return err
	}

	var backend store.Store
	switch o.backend {
	case "mem":
		backend = store.NewMem()
	case "sharded":
		backend = store.NewSharded(o.shards)
	case "file":
		f, err := store.NewFile(o.dir)
		if err != nil {
			return err
		}
		backend = f
	default:
		return fmt.Errorf("unknown backend %q (want mem, file, or sharded)", o.backend)
	}

	srv := storesrv.New(backend, storesrv.Config{Config: o.Config, ReadOnly: o.readOnly})
	return o.Serve(srv, ready,
		slog.String("backend", o.backend),
		slog.Bool("read_only", o.readOnly))
}
