// Package serve exposes one shared profirt.Engine over HTTP/JSON: the
// batch analyses, the simulators and the campaign runner as POST
// endpoints whose bodies reuse the configfile schemas, plus /metrics
// (Engine + server counters, Prometheus text or JSON) and /healthz.
//
// The server is a thin admission layer over the Engine's own sharing
// machinery: every request becomes one Engine call, so concurrent
// clients ride the shared pool's fair round-robin admission, request
// deadlines (the envelope's timeoutMs) and client disconnects map to
// context cancellation, and responses are byte-identical to direct
// Engine calls at any load. A per-client in-flight cap (keyed by the
// X-Client-ID header, else the client host) turns away floods with
// 429 before they reach the pool.
//
// Campaign responses stream: one NDJSON StreamEvent line per table
// row, released in grid order the moment the row's last job settles,
// then a final "done" line with the assembled table.
//
// Graceful drain is owned by the caller (cmd/profiserve):
// http.Server.Shutdown stops intake and waits for in-flight handlers,
// then Engine.Close releases the pool; requests arriving after Close
// get 503 ErrEngineClosed.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"profirt"
	"profirt/internal/configfile"
	"profirt/internal/obs"
)

// Options tunes a Server.
type Options struct {
	// MaxInFlightPerClient caps one client's concurrently served
	// requests; excess requests get 429 immediately. 0 means no cap.
	MaxInFlightPerClient int
	// MaxBodyBytes caps request bodies (413 beyond it). 0 selects the
	// default, 8 MiB.
	MaxBodyBytes int64
	// Logger, when non-nil, receives one structured access-log record
	// per v1 request (request id, method, path, client, status, bytes,
	// duration) plus trace-export failures.
	Logger *slog.Logger
	// TraceDir, when non-empty, enables per-request span tracing:
	// every v1 request runs under an obs.Tracer and its spans are
	// written to TraceDir as one Chrome trace_event JSON file per
	// request. The directory must exist. Tracing is observational
	// only: responses are byte-identical with and without it.
	TraceDir string
	// Clock substitutes a fake wall clock for tests; nil selects
	// obs.Wall.
	Clock obs.Clock
}

// defaultMaxBodyBytes bounds request bodies when Options does not.
const defaultMaxBodyBytes = 8 << 20

// endpointMetric is one v1 route's request-duration histogram.
type endpointMetric struct {
	path string
	hist obs.Histogram
}

// Server serves one Engine. Construct with New; safe for concurrent
// use by any number of connections.
type Server struct {
	eng  *profirt.Engine
	opts Options
	mux  *http.ServeMux

	clock obs.Clock
	// endpoints holds the per-route latency histograms in registration
	// order, so /metrics renders them in a fixed order.
	endpoints []*endpointMetric
	reqSeq    atomic.Uint64 // generated X-Request-ID counter
	traceSeq  atomic.Uint64 // trace file name disambiguator

	mu        sync.Mutex
	perClient map[string]int

	active   atomic.Int64
	requests atomic.Int64
	rejected atomic.Int64
}

// New builds a Server over eng. The Engine is caller-owned: the
// Server never closes it.
func New(eng *profirt.Engine, opts Options) *Server {
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = defaultMaxBodyBytes
	}
	if opts.Clock == nil {
		opts.Clock = obs.Wall
	}
	s := &Server{eng: eng, opts: opts, clock: opts.Clock, perClient: make(map[string]int)}
	s.mux = http.NewServeMux()
	s.route("/v1/analyze/networks", s.analyzeNetworks)
	s.route("/v1/analyze/topologies", s.analyzeTopologies)
	s.route("/v1/simulate/batch", s.simulateBatch)
	s.route("/v1/simulate/topology", s.simulateTopology)
	s.route("/v1/campaign", s.campaign)
	s.mux.HandleFunc("/metrics", s.metrics)
	s.mux.HandleFunc("/healthz", s.healthz)
	return s
}

// route registers one v1 endpoint with its latency histogram.
func (s *Server) route(path string, h func(http.ResponseWriter, *http.Request) error) {
	em := &endpointMetric{path: path}
	s.endpoints = append(s.endpoints, em)
	s.mux.HandleFunc(path, s.endpoint(em, h))
}

// Handler returns the Server's routing handler, ready for
// http.Server.Handler.
func (s *Server) Handler() http.Handler { return s.mux }

// httpError carries a status code through a handler's error return.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

// failf builds an httpError.
func failf(code int, format string, args ...any) error {
	return &httpError{code: code, msg: fmt.Sprintf(format, args...)}
}

// statusOf maps a handler error to its HTTP status: the Engine's
// drain sentinel is 503 (retry elsewhere), an expired request
// deadline is 504, a disconnected client 499 (never seen by anyone,
// but keeps the access log honest), explicit httpErrors keep their
// code, and anything else — malformed body, invalid configuration —
// is the client's fault: 400.
func statusOf(err error) int {
	var he *httpError
	switch {
	case errors.As(err, &he):
		return he.code
	case errors.Is(err, profirt.ErrEngineClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499
	default:
		return http.StatusBadRequest
	}
}

// writeError emits the JSON error body with its mapped status.
func writeError(w http.ResponseWriter, err error) {
	code := statusOf(err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorBody{Error: err.Error()})
}

// clientKey identifies the requesting client for the in-flight cap:
// the X-Client-ID header when present, else the connection's host.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// admit registers one in-flight request for key; false means the
// client is at its cap and the request must be turned away.
// Registration is unconditional — the cap only gates admission when
// positive — so the ActiveClients gauge is meaningful (and drains
// back to zero) whether or not a cap is configured.
func (s *Server) admit(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cap := s.opts.MaxInFlightPerClient; cap > 0 && s.perClient[key] >= cap {
		return false
	}
	s.perClient[key]++
	return true
}

// release settles an admitted request. Must mirror admit exactly:
// every true admit gets one release under the same lock, so the
// per-client table never leaks entries after the last request drains.
func (s *Server) release(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.perClient[key] <= 1 {
		delete(s.perClient, key)
	} else {
		s.perClient[key]--
	}
}

// responseRecorder captures the status and body size flowing to the
// client, for the access log and the endpoint histograms. It passes
// Flush through so the campaign endpoint's NDJSON streaming keeps
// working behind it.
type responseRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (rec *responseRecorder) WriteHeader(code int) {
	if rec.status == 0 {
		rec.status = code
	}
	rec.ResponseWriter.WriteHeader(code)
}

func (rec *responseRecorder) Write(p []byte) (int, error) {
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	n, err := rec.ResponseWriter.Write(p)
	rec.bytes += int64(n)
	return n, err
}

func (rec *responseRecorder) Flush() {
	if f, ok := rec.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// statusCode reports the logged status: 200 when the handler finished
// without ever writing (net/http's implicit default).
func (rec *responseRecorder) statusCode() int {
	if rec.status == 0 {
		return http.StatusOK
	}
	return rec.status
}

// requestID returns the request's trace/correlation id: the caller's
// X-Request-ID when present (truncated to 128 bytes), else a counter-
// generated one. Counter, not random: ids only need to be unique per
// process, and the repo bans nondeterministic sources outside tests.
func (s *Server) requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-ID"); id != "" {
		if len(id) > 128 {
			id = id[:128]
		}
		return id
	}
	return fmt.Sprintf("req-%08d", s.reqSeq.Add(1))
}

// endpoint wraps one POST handler with the shared plumbing: method
// check, per-client admission, body bound, request counters, the
// endpoint latency histogram, request-id propagation, optional span
// tracing and the access log, plus error mapping. The inner handler
// owns the success path (it writes the response itself) and returns an
// error for every failure.
func (s *Server) endpoint(em *endpointMetric, h func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		start := s.clock.Now()
		rid := s.requestID(r)
		w.Header().Set("X-Request-ID", rid)
		rec := &responseRecorder{ResponseWriter: w}
		defer func() {
			d := s.clock.Now().Sub(start)
			em.hist.Observe(d)
			if l := s.opts.Logger; l != nil {
				l.LogAttrs(r.Context(), slog.LevelInfo, "request",
					slog.String("id", rid),
					slog.String("method", r.Method),
					slog.String("path", r.URL.Path),
					slog.String("client", clientKey(r)),
					slog.Int("status", rec.statusCode()),
					slog.Int64("bytes", rec.bytes),
					slog.Duration("dur", d))
			}
		}()
		if r.Method != http.MethodPost {
			rec.Header().Set("Allow", http.MethodPost)
			writeError(rec, failf(http.StatusMethodNotAllowed, "use POST"))
			return
		}
		key := clientKey(r)
		if !s.admit(key) {
			s.rejected.Add(1)
			writeError(rec, failf(http.StatusTooManyRequests,
				"client %q is at its in-flight cap (%d)", key, s.opts.MaxInFlightPerClient))
			return
		}
		defer s.release(key)
		s.active.Add(1)
		defer s.active.Add(-1)
		if s.opts.TraceDir != "" {
			tr := obs.NewTracer(rid, s.clock)
			ctx := obs.WithTracer(r.Context(), tr)
			ctx, root := obs.StartSpan(ctx, "request "+r.URL.Path)
			r = r.WithContext(ctx)
			defer func() {
				root.End()
				s.writeTrace(tr, rid)
			}()
		}
		r.Body = http.MaxBytesReader(rec, r.Body, s.opts.MaxBodyBytes)
		if err := h(rec, r); err != nil {
			writeError(rec, err)
		}
	}
}

// writeTrace exports one request's spans to TraceDir as Chrome
// trace_event JSON. Export failures are logged, never surfaced to the
// client: tracing must not change responses.
func (s *Server) writeTrace(tr *obs.Tracer, rid string) {
	name := fmt.Sprintf("%s-%06d.trace.json", sanitizeID(rid), s.traceSeq.Add(1))
	f, err := os.Create(filepath.Join(s.opts.TraceDir, name))
	if err == nil {
		_, err = tr.WriteTo(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil && s.opts.Logger != nil {
		s.opts.Logger.Warn("trace export failed", "id", rid, "err", err)
	}
}

// sanitizeID maps a client-supplied request id to a safe file name
// fragment: anything outside [A-Za-z0-9._-] becomes '-'.
func sanitizeID(id string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		default:
			return '-'
		}
	}, id)
}

// decode unmarshals the request body into v with unknown fields and
// data after the envelope rejected, mapping an oversized body to 413.
func decode(r *http.Request, v any) error {
	if err := configfile.DecodeStrict(r.Body, v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return failf(http.StatusRequestEntityTooLarge, "request body over %d bytes", mbe.Limit)
		}
		return failf(http.StatusBadRequest, "decoding request: %v", err)
	}
	return nil
}

// workContext derives the request's work context: the connection
// context (cancelled on client disconnect) bounded by the envelope's
// timeoutMs when positive.
func workContext(r *http.Request, timeoutMs int64) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	if timeoutMs > 0 {
		return context.WithTimeout(ctx, time.Duration(timeoutMs)*time.Millisecond)
	}
	return ctx, func() {}
}

// respond writes the success JSON body.
func respond(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing useful left to send.
		return nil
	}
	return nil
}

func (s *Server) analyzeNetworks(w http.ResponseWriter, r *http.Request) error {
	var req AnalyzeNetworksRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	nets := make([]profirt.Network, len(req.Networks))
	for i := range req.Networks {
		net, _, err := req.Networks[i].Build()
		if err != nil {
			return failf(http.StatusBadRequest, "network %d: %v", i, err)
		}
		nets[i] = net
	}
	ctx, cancel := workContext(r, req.TimeoutMs)
	defer cancel()
	results, err := s.eng.AnalyzeNetworks(ctx, nets, profirt.AnalyzeOptions{})
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		// The batch ran out of time: partial output (Skipped entries)
		// would read as verdicts, so fail the request instead.
		return err
	}
	return respond(w, AnalyzeNetworksResponse{Results: results})
}

func (s *Server) analyzeTopologies(w http.ResponseWriter, r *http.Request) error {
	var req AnalyzeTopologiesRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	tops := make([]profirt.Topology, len(req.Topologies))
	for i := range req.Topologies {
		top, err := req.Topologies[i].Build()
		if err != nil {
			return failf(http.StatusBadRequest, "topology %d: %v", i, err)
		}
		tops[i] = top
	}
	ctx, cancel := workContext(r, req.TimeoutMs)
	defer cancel()
	results, err := s.eng.AnalyzeTopologies(ctx, tops, profirt.TopologyAnalyzeOptions{MaxIterations: req.MaxIterations})
	if err != nil {
		if errors.Is(err, profirt.ErrEngineClosed) {
			return err
		}
		return failf(http.StatusBadRequest, "%v", err)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return respond(w, AnalyzeTopologiesResponse{Results: TopologyResults(results)})
}

func (s *Server) simulateBatch(w http.ResponseWriter, r *http.Request) error {
	var req SimulateBatchRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	cfgs := make([]profirt.SimConfig, len(req.Networks))
	for i := range req.Networks {
		_, cfg, err := req.Networks[i].Build()
		if err != nil {
			return failf(http.StatusBadRequest, "network %d: %v", i, err)
		}
		cfgs[i] = cfg
	}
	ctx, cancel := workContext(r, req.TimeoutMs)
	defer cancel()
	results, err := s.eng.SimulateBatch(ctx, cfgs, profirt.SimulateOptions{
		Seed:        req.Seed,
		ConfigSeeds: req.ConfigSeeds,
	})
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return respond(w, SimulateBatchResponse{Results: SimResults(results)})
}

func (s *Server) simulateTopology(w http.ResponseWriter, r *http.Request) error {
	var req SimulateTopologyRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	top, err := req.Topology.Build()
	if err != nil {
		return failf(http.StatusBadRequest, "topology: %v", err)
	}
	ctx, cancel := workContext(r, req.TimeoutMs)
	defer cancel()
	result, err := s.eng.SimulateTopology(ctx, top, profirt.TopologySimulateOptions{MaxRounds: req.MaxRounds})
	if err != nil {
		// ctx errors (deadline, disconnect) surface here directly: the
		// fixed point stops at the next round barrier.
		if errors.Is(err, profirt.ErrEngineClosed) ||
			errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return err
		}
		return failf(http.StatusBadRequest, "%v", err)
	}
	return respond(w, SimulateTopologyResponse{Result: result})
}

func (s *Server) campaign(w http.ResponseWriter, r *http.Request) error {
	var req CampaignRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	c, err := profirt.ParseCampaign(req.Manifest)
	if err != nil {
		return failf(http.StatusBadRequest, "manifest: %v", err)
	}
	ctx, cancel := workContext(r, req.TimeoutMs)
	defer cancel()

	// From here the response streams: status is committed before the
	// campaign runs, so failures become "error" events on the stream.
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var wmu sync.Mutex
	emit := func(ev StreamEvent) {
		// Row events arrive from pool worker goroutines (in grid order,
		// serialized by the row streamer); the final event from the
		// handler goroutine. One writer at a time either way.
		wmu.Lock()
		defer wmu.Unlock()
		enc.Encode(ev)
		if flusher != nil {
			flusher.Flush()
		}
	}
	res, err := s.eng.RunCampaign(ctx, c, profirt.CampaignOptions{
		StopAfter: req.StopAfter,
		RowSink: func(ev profirt.TableRowEvent) {
			row := Row(ev)
			emit(StreamEvent{Type: "row", Row: &row})
		},
	})
	if err != nil {
		emit(StreamEvent{Type: "error", Error: err.Error()})
		return nil
	}
	emit(StreamEvent{Type: "done", Done: &CampaignDoneJSON{
		Jobs:     res.Jobs,
		Restored: res.Restored,
		Executed: res.Executed,
		Skipped:  res.Skipped,
		Table:    res.Table.String(),
	}})
	return nil
}

// healthz reports liveness: 200 while the Engine accepts work, 503
// once it is closed (draining or shut down).
func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	if s.eng.Stats().Closed {
		http.Error(w, "engine closed", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
