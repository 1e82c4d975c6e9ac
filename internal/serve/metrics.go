package serve

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"profirt"
)

// Metrics is the /metrics snapshot: the Engine's shared-resource
// counters plus the serving layer's own.
type Metrics struct {
	Engine profirt.EngineStats `json:"engine"`
	Server ServerStats         `json:"server"`
}

// ServerStats counts the serving layer's admission work.
type ServerStats struct {
	// ActiveRequests is the number of requests inside a handler right
	// now.
	ActiveRequests int64 `json:"activeRequests"`
	// RequestsTotal counts requests routed to the v1 endpoints since
	// start (including rejected ones).
	RequestsTotal int64 `json:"requestsTotal"`
	// RejectedOverLimit counts 429s from the per-client in-flight cap.
	RejectedOverLimit int64 `json:"rejectedOverLimit"`
	// ActiveClients is the number of clients with at least one
	// admitted in-flight request, whether or not a cap is configured.
	ActiveClients int `json:"activeClients"`
	// Endpoints holds per-route request-duration histograms in
	// registration order.
	Endpoints []EndpointLatency `json:"endpoints"`
}

// EndpointLatency is one route's request-duration histogram. The
// duration covers the whole wrapped handler: admission, decode, the
// Engine call and response encoding.
type EndpointLatency struct {
	Endpoint string                  `json:"endpoint"`
	Latency  profirt.LatencySnapshot `json:"latency"`
}

// Metrics snapshots the server and its Engine.
func (s *Server) Metrics() Metrics {
	s.mu.Lock()
	clients := len(s.perClient)
	s.mu.Unlock()
	eps := make([]EndpointLatency, len(s.endpoints))
	for i, em := range s.endpoints {
		eps[i] = EndpointLatency{Endpoint: em.path, Latency: em.hist.Snapshot()}
	}
	return Metrics{
		Engine: s.eng.Stats(),
		Server: ServerStats{
			ActiveRequests:    s.active.Load(),
			RequestsTotal:     s.requests.Load(),
			RejectedOverLimit: s.rejected.Load(),
			ActiveClients:     clients,
			Endpoints:         eps,
		},
	}
}

// metrics serves GET /metrics: Prometheus text by default, the JSON
// snapshot with ?format=json or an Accept: application/json header.
func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, failf(http.StatusMethodNotAllowed, "use GET"))
		return
	}
	m := s.Metrics()
	if r.URL.Query().Get("format") == "json" ||
		strings.Contains(r.Header.Get("Accept"), "application/json") {
		respond(w, m)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WritePrometheus(w, m)
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format. Metric order is fixed, so scrapes diff cleanly.
func WritePrometheus(w io.Writer, m Metrics) {
	b01 := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	gauge := func(name string, v any, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name string, v any, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %v\n", name, help, name, name, v)
	}

	p := m.Engine.Pool
	gauge("profiserve_pool_workers", p.Workers, "Worker pool width.")
	gauge("profiserve_pool_in_flight", p.InFlight, "Jobs executing on workers right now (pool occupancy).")
	gauge("profiserve_pool_queue_depth", p.QueueDepth, "Submissions waiting in the admission ring.")
	gauge("profiserve_pool_active_submissions", p.ActiveSubmissions, "Submissions admitted and not yet settled.")
	counter("profiserve_pool_submissions_total", p.Submissions, "Submissions ever admitted to the workers.")
	counter("profiserve_pool_inline_submissions_total", p.InlineSubmissions, "Submissions run inline on their caller.")
	counter("profiserve_pool_jobs_total", p.Jobs, "Jobs executed on the workers.")
	gauge("profiserve_engine_closed", b01(m.Engine.Closed), "1 once Engine.Close has been called.")
	gauge("profiserve_engine_calls_in_flight", m.Engine.InFlightCalls, "Engine method calls currently executing.")

	ops := []struct {
		op string
		n  int64
	}{
		{"analyze_networks", m.Engine.Ops.AnalyzeNetworks},
		{"analyze_topologies", m.Engine.Ops.AnalyzeTopologies},
		{"analyze_holistic", m.Engine.Ops.AnalyzeHolistic},
		{"simulate", m.Engine.Ops.Simulate},
		{"simulate_batch", m.Engine.Ops.SimulateBatch},
		{"simulate_topology", m.Engine.Ops.SimulateTopology},
		{"run_campaign", m.Engine.Ops.RunCampaign},
		{"run_experiments", m.Engine.Ops.RunExperiments},
	}
	fmt.Fprintf(w, "# HELP profiserve_engine_op_calls_total Engine method calls by op.\n# TYPE profiserve_engine_op_calls_total counter\n")
	for _, o := range ops {
		fmt.Fprintf(w, "profiserve_engine_op_calls_total{op=%q} %d\n", o.op, o.n)
	}

	c := m.Engine.Cache
	counter("profiserve_cache_hits_total", c.Hits, "Analysis cache hits.")
	counter("profiserve_cache_misses_total", c.Misses, "Analysis cache misses.")
	counter("profiserve_cache_evictions_total", c.Evictions, "Analysis cache evictions.")
	gauge("profiserve_cache_entries", c.Entries, "Resident analysis cache entries.")

	gauge("profiserve_server_active_requests", m.Server.ActiveRequests, "Requests inside a handler right now.")
	counter("profiserve_server_requests_total", m.Server.RequestsTotal, "Requests routed to the v1 endpoints.")
	counter("profiserve_server_rejected_over_limit_total", m.Server.RejectedOverLimit, "Requests rejected by the per-client in-flight cap.")
	gauge("profiserve_server_active_clients", m.Server.ActiveClients, "Clients with admitted in-flight requests.")

	lat := m.Engine.Latency
	gauge("profiserve_engine_latency_enabled", b01(lat.Enabled), "1 while the Engine records latency histograms.")
	opSeries := make([]histSeries, len(lat.Ops))
	for i, o := range lat.Ops {
		opSeries[i] = histSeries{label: fmt.Sprintf("op=%q", o.Op), snap: o.Latency}
	}
	writeHistogram(w, "profiserve_engine_op_duration_seconds", "Engine method call duration by op.", opSeries)
	writeHistogram(w, "profiserve_pool_queue_wait_seconds", "Time pool jobs spent queued before a worker picked them up.",
		[]histSeries{{snap: lat.PoolQueueWait}})
	writeHistogram(w, "profiserve_pool_job_duration_seconds", "Pool job execution time on a worker.",
		[]histSeries{{snap: lat.PoolRun}})
	writeHistogram(w, "profiserve_cache_lookup_duration_seconds", "Analysis cache lookup latency.",
		[]histSeries{{snap: lat.CacheLookup}})
	epSeries := make([]histSeries, len(m.Server.Endpoints))
	for i, ep := range m.Server.Endpoints {
		epSeries[i] = histSeries{label: fmt.Sprintf("endpoint=%q", ep.Endpoint), snap: ep.Latency}
	}
	writeHistogram(w, "profiserve_http_request_duration_seconds", "HTTP request duration by endpoint, wrapped handler end to end.", epSeries)
}

// histSeries is one labeled series of a histogram family. An empty
// label renders an unlabeled series.
type histSeries struct {
	label string // e.g. `op="simulate"`
	snap  profirt.LatencySnapshot
}

// writeHistogram renders one Prometheus histogram family: cumulative
// _bucket series with le bounds in seconds, then _sum and _count per
// series. The snapshot's Count is derived from its buckets, so
// le="+Inf" always equals _count — Prometheus's consistency rule —
// even for snapshots taken mid-traffic.
func writeHistogram(w io.Writer, name, help string, series []histSeries) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	bounds := profirt.LatencyBucketBounds()
	for _, sr := range series {
		sep := ""
		if sr.label != "" {
			sep = sr.label + ","
		}
		var cum uint64
		for i, b := range bounds {
			if i < len(sr.snap.Counts) {
				cum += sr.snap.Counts[i]
			}
			fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, sep, formatSeconds(b.Seconds()), cum)
		}
		fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, sep, sr.snap.Count)
		if sr.label != "" {
			fmt.Fprintf(w, "%s_sum{%s} %s\n", name, sr.label, formatSeconds(float64(sr.snap.SumNs)/1e9))
			fmt.Fprintf(w, "%s_count{%s} %d\n", name, sr.label, sr.snap.Count)
		} else {
			fmt.Fprintf(w, "%s_sum %s\n", name, formatSeconds(float64(sr.snap.SumNs)/1e9))
			fmt.Fprintf(w, "%s_count %d\n", name, sr.snap.Count)
		}
	}
}

// formatSeconds renders a seconds value the way Prometheus clients
// expect: shortest float form, e.g. "1e-06" or "0.004194304".
func formatSeconds(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
