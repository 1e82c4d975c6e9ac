// Command profiserve serves one shared profirt.Engine over HTTP/JSON:
// schedulability analysis, simulation and campaign endpoints whose
// request bodies reuse the configfile JSON schemas, NDJSON streaming
// of campaign table rows, and /metrics exposing the Engine's pool and
// cache counters (Prometheus text or JSON).
//
// Every request becomes one Engine call on one bounded worker pool,
// so any number of clients share the machine fairly (round-robin
// admission at job granularity) and responses are byte-identical to
// direct library calls. SIGINT/SIGTERM drain gracefully: intake
// stops, in-flight requests finish, the Engine closes, exit 0.
//
// Observability: -log emits one structured (JSON, log/slog) access
// record per request; -trace-dir writes one Chrome trace_event JSON
// file per request (open in chrome://tracing or Perfetto); -debug-addr
// opens a second, separate listener exposing net/http/pprof — keep it
// off the service port and bound to localhost. /metrics always carries
// the Engine's latency histograms. All of it is observational only:
// responses stay byte-identical.
//
// Usage:
//
//	profiserve [-addr HOST:PORT] [-parallel N] [-cache] \
//	           [-max-inflight-per-client N] [-drain-timeout D] \
//	           [-log] [-trace-dir DIR] [-debug-addr HOST:PORT]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"profirt"
	"profirt/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stderr))
}

// run is main minus process plumbing, for in-process tests: it serves
// until ctx is cancelled (SIGINT/SIGTERM in production), then drains
// and returns the exit code. The listen address is printed to stderr
// as "listening on http://HOST:PORT" once the socket is open.
func run(ctx context.Context, args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("profiserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7494", "listen address (use :0 for an ephemeral port)")
	parallel := fs.Int("parallel", 0, "engine worker pool width (0 = GOMAXPROCS)")
	cache := fs.Bool("cache", true, "enable the shared analysis cache")
	maxInFlight := fs.Int("max-inflight-per-client", 16, "per-client in-flight request cap (0 = unlimited)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long a drain waits for in-flight requests")
	logAccess := fs.Bool("log", false, "emit structured (JSON) access logs to stderr")
	traceDir := fs.String("trace-dir", "", "write one Chrome trace_event JSON file per request into this directory")
	debugAddr := fs.String("debug-addr", "", "optional second listener exposing net/http/pprof (keep it private)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "profiserve: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "profiserve: trace dir: %v\n", err)
			return 1
		}
	}

	opts := []profirt.EngineOption{profirt.WithParallelism(*parallel)}
	if *cache {
		opts = append(opts, profirt.WithCache(profirt.NewAnalysisCache(0)))
	}
	eng := profirt.NewEngine(opts...)

	sopts := serve.Options{MaxInFlightPerClient: *maxInFlight, TraceDir: *traceDir}
	if *logAccess {
		sopts.Logger = slog.New(slog.NewJSONHandler(stderr, nil))
	}
	srv := serve.New(eng, sopts)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		eng.Close()
		fmt.Fprintf(stderr, "profiserve: %v\n", err)
		return 1
	}
	hs := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(stderr, "profiserve: listening on http://%s\n", ln.Addr())

	// The pprof listener is deliberately separate from the service
	// socket: profiling endpoints leak internals and must never be
	// reachable through whatever exposes -addr.
	var ds *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			ln.Close()
			eng.Close()
			fmt.Fprintf(stderr, "profiserve: debug listener: %v\n", err)
			return 1
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ds = &http.Server{Handler: dmux}
		fmt.Fprintf(stderr, "profiserve: pprof on http://%s/debug/pprof/\n", dln.Addr())
		go ds.Serve(dln)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	closeDebug := func() {
		if ds != nil {
			ds.Close()
		}
	}

	select {
	case err := <-serveErr:
		closeDebug()
		eng.Close()
		fmt.Fprintf(stderr, "profiserve: serve: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	// Drain: Shutdown stops intake and waits for in-flight handlers;
	// only then does the Engine release its pool, so every admitted
	// request completes against a live Engine.
	fmt.Fprintln(stderr, "profiserve: draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		fmt.Fprintf(stderr, "profiserve: drain: %v\n", err)
		hs.Close()
		closeDebug()
		eng.Close()
		return 1
	}
	closeDebug()
	eng.Close()
	fmt.Fprintln(stderr, "profiserve: drained cleanly")
	return 0
}
