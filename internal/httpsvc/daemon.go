package httpsvc

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"synapse/internal/telemetry"
)

// Daemon is the main() plumbing the daemons share: the common flags, their
// validation, the logger, and the serve-until-signal lifecycle. A command
// binds its own flags on the same FlagSet, calls Parse, builds its service
// around d.Config, and hands it to Serve.
type Daemon struct {
	// Config is the stack configuration the flags describe; after Parse it
	// also carries the logger.
	Config Config

	fs  *flag.FlagSet
	out io.Writer

	addr                string
	grace               time.Duration
	version             bool
	logFormat, logLevel string
}

// Lifecycle is the slice of a service that Serve drives.
type Lifecycle interface {
	Start(addr string) (net.Addr, error)
	Shutdown(ctx context.Context) error
}

// NewDaemon binds the shared flags onto fs. out is the daemon's log (and
// -version) stream.
func NewDaemon(fs *flag.FlagSet, out io.Writer, defaultAddr string) *Daemon {
	d := &Daemon{fs: fs, out: out}
	fs.StringVar(&d.addr, "addr", defaultAddr, "listen address")
	fs.BoolVar(&d.Config.Pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	fs.DurationVar(&d.grace, "grace", 10*time.Second, "graceful shutdown drain timeout")
	fs.IntVar(&d.Config.MaxInFlight, "max-inflight", 0, "max concurrently-executing requests (0 = unbounded)")
	fs.IntVar(&d.Config.Queue, "queue", 0, "admission queue depth at capacity (0 = shed)")
	fs.DurationVar(&d.Config.RequestTimeout, "request-timeout", 0, "server-side per-request deadline (0 = none)")
	fs.StringVar(&d.logFormat, "log-format", "text", "log output format: text or json")
	fs.StringVar(&d.logLevel, "log-level", "info", "log level floor: debug, info, warn, error (request lines log at debug)")
	fs.BoolVar(&d.version, "version", false, "print version and build information, then exit")
	return d
}

// Parse parses args and runs the shared pre-flight. done reports that
// -version was handled and the command should exit cleanly; otherwise the
// logger is built, the admission flags are validated, and d.Config is
// complete.
func (d *Daemon) Parse(args []string) (done bool, err error) {
	if err := d.fs.Parse(args); err != nil {
		return false, err
	}
	if d.version {
		telemetry.PrintVersion(d.out, d.fs.Name())
		return true, nil
	}
	d.Config.Logger, err = telemetry.NewLogger(d.out, d.logFormat, d.logLevel)
	if err != nil {
		return false, err
	}
	if d.Config.MaxInFlight < 0 || d.Config.Queue < 0 {
		return false, fmt.Errorf("-max-inflight and -queue must be >= 0")
	}
	if d.Config.Queue > 0 && d.Config.MaxInFlight == 0 {
		return false, fmt.Errorf("-queue requires -max-inflight > 0")
	}
	return false, nil
}

// Serve starts svc on the -addr flag and blocks until SIGINT/SIGTERM, then
// drains: new requests shed while in-flight ones finish, bounded by -grace.
// attrs extend the "serving" log line. ready, when non-nil, receives the
// bound address once the server is listening (tests).
func (d *Daemon) Serve(svc Lifecycle, ready chan<- string, attrs ...any) error {
	// Subscribe before anyone can learn the address: a signal sent the
	// moment the daemon reports ready must drain it, not kill it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	bound, err := svc.Start(d.addr)
	if err != nil {
		return err
	}
	log := d.Config.Logger
	log.Info("serving", append(attrs,
		slog.String("addr", "http://"+bound.String()),
		slog.String("version", telemetry.BuildInfo().String()))...)
	if ready != nil {
		ready <- bound.String()
	}
	s := <-sig
	log.Info("draining", slog.String("signal", s.String()), slog.Duration("grace", d.grace))
	ctx, cancel := context.WithTimeout(context.Background(), d.grace)
	defer cancel()
	return svc.Shutdown(ctx)
}
