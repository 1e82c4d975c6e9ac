package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"profirt"
	"profirt/internal/configfile"
)

// netFile is a small two-stream network description in the configfile
// schema — exactly the body a client would POST.
func netFile(seed int64) configfile.File {
	return configfile.File{
		TTR:     2_000,
		Horizon: 200_000,
		Seed:    seed,
		Masters: []configfile.MasterJSON{{
			Addr: 1,
			Streams: []configfile.StreamJSON{
				{Name: "a", Slave: 30, High: true, Period: 20_000, Deadline: 15_000},
				{Name: "b", Slave: 30, High: true, Period: 50_000, Deadline: 40_000},
			},
		}},
		Slaves: []configfile.SlaveJSON{{Addr: 30, TSDR: 30}},
	}
}

// topoFile couples two netFile segments with one relayed stream.
func topoFile() configfile.TopologyFile {
	return configfile.TopologyFile{
		Seed: 5,
		Segments: []configfile.TopologySegmentJSON{
			{Name: "A", Network: netFile(1)},
			{Name: "B", Network: netFile(2)},
		},
		Bridges: []profirt.Bridge{{
			Name: "br", From: "A", To: "B", Latency: 100,
			Relays: []profirt.Relay{
				{Name: "r1", FromStream: "a", ToStream: "b", Deadline: 60_000},
			},
		}},
	}
}

const testManifest = `{
  "name": "serve-test",
  "seed": 3,
  "trials": 2,
  "policies": ["fcfs", "dm"],
  "deadlineScales": [1.0, 0.4],
  "networks": [{"name": "cell", "network": {
    "ttr": 2000, "horizon": 300000,
    "masters": [
      {"addr": 1, "streams": [
        {"name": "a", "slave": 30, "high": true, "period": 20000, "deadline": 15000},
        {"name": "b", "slave": 30, "high": true, "period": 50000, "deadline": 40000}]}
    ],
    "slaves": [{"addr": 30, "tsdr": 30}]
  }}]
}`

// newTestServer wires an Engine + Server + httptest front end.
func newTestServer(t *testing.T, parallelism int, opts Options) (*httptest.Server, *Server, *profirt.Engine) {
	t.Helper()
	eng := profirt.NewEngine(
		profirt.WithParallelism(parallelism),
		profirt.WithCache(profirt.NewAnalysisCache(0)),
	)
	t.Cleanup(func() { eng.Close() })
	srv := New(eng, opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv, eng
}

// postJSON posts v and returns status + body.
func postJSON(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// encodeBody renders v exactly as the server's success path does, so
// served bytes can be compared to direct Engine results.
func encodeBody(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServeAnalyzeNetworksByteIdentical: the served response is
// byte-for-byte the direct Engine result pushed through the wire
// types.
func TestServeAnalyzeNetworksByteIdentical(t *testing.T) {
	ts, _, _ := newTestServer(t, 2, Options{})
	files := []configfile.File{netFile(1), netFile(2), netFile(3)}
	nets := make([]profirt.Network, len(files))
	for i := range files {
		n, _, err := files[i].Build()
		if err != nil {
			t.Fatal(err)
		}
		nets[i] = n
	}
	ref := profirt.NewEngine(profirt.WithParallelism(1))
	defer ref.Close()
	direct, err := ref.AnalyzeNetworks(context.Background(), nets, profirt.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := encodeBody(t, AnalyzeNetworksResponse{Results: direct})

	code, got := postJSON(t, ts.URL+"/v1/analyze/networks", AnalyzeNetworksRequest{Networks: files})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("served analyze response diverged from direct Engine call:\n--- served ---\n%s--- direct ---\n%s", got, want)
	}
}

func TestServeAnalyzeTopologiesByteIdentical(t *testing.T) {
	ts, _, _ := newTestServer(t, 2, Options{})
	file := topoFile()
	top, err := file.Build()
	if err != nil {
		t.Fatal(err)
	}
	ref := profirt.NewEngine(profirt.WithParallelism(1))
	defer ref.Close()
	direct, err := ref.AnalyzeTopologies(context.Background(), []profirt.Topology{top}, profirt.TopologyAnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := encodeBody(t, AnalyzeTopologiesResponse{Results: TopologyResults(direct)})

	code, got := postJSON(t, ts.URL+"/v1/analyze/topologies", AnalyzeTopologiesRequest{
		Topologies: []configfile.TopologyFile{file},
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("served topology analysis diverged from direct Engine call")
	}
}

func TestServeSimulateBatchByteIdentical(t *testing.T) {
	ts, _, _ := newTestServer(t, 2, Options{})
	files := []configfile.File{netFile(1), netFile(2)}
	cfgs := make([]profirt.SimConfig, len(files))
	for i := range files {
		_, cfg, err := files[i].Build()
		if err != nil {
			t.Fatal(err)
		}
		cfgs[i] = cfg
	}
	ref := profirt.NewEngine(profirt.WithParallelism(1))
	defer ref.Close()
	direct, err := ref.SimulateBatch(context.Background(), cfgs, profirt.SimulateOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := encodeBody(t, SimulateBatchResponse{Results: SimResults(direct)})

	code, got := postJSON(t, ts.URL+"/v1/simulate/batch", SimulateBatchRequest{Networks: files, Seed: 7})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("served simulation batch diverged from direct Engine call")
	}
}

func TestServeSimulateTopologyByteIdentical(t *testing.T) {
	ts, _, _ := newTestServer(t, 2, Options{})
	file := topoFile()
	top, err := file.Build()
	if err != nil {
		t.Fatal(err)
	}
	ref := profirt.NewEngine(profirt.WithParallelism(1))
	defer ref.Close()
	direct, err := ref.SimulateTopology(context.Background(), top, profirt.TopologySimulateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := encodeBody(t, SimulateTopologyResponse{Result: direct})

	code, got := postJSON(t, ts.URL+"/v1/simulate/topology", SimulateTopologyRequest{Topology: file})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("served topology simulation diverged from direct Engine call")
	}
}

// TestServeCampaignStreams: the campaign endpoint streams one NDJSON
// row event per table row in grid order, then a done event whose
// rendered table matches a direct run.
func TestServeCampaignStreams(t *testing.T) {
	ts, _, _ := newTestServer(t, 2, Options{})
	c, err := profirt.ParseCampaign([]byte(testManifest))
	if err != nil {
		t.Fatal(err)
	}
	ref := profirt.NewEngine(profirt.WithParallelism(1))
	defer ref.Close()
	direct, err := ref.RunCampaign(context.Background(), c, profirt.CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(CampaignRequest{Manifest: json.RawMessage(testManifest)})
	resp, err := http.Post(ts.URL+"/v1/campaign", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var rows []RowJSON
	var done *CampaignDoneJSON
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "row":
			rows = append(rows, *ev.Row)
		case "done":
			done = ev.Done
		case "error":
			t.Fatalf("stream error: %s", ev.Error)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if done == nil {
		t.Fatal("stream ended without a done event")
	}
	if done.Table != direct.Table.String() {
		t.Fatalf("streamed table diverged:\n--- served ---\n%s--- direct ---\n%s", done.Table, direct.Table.String())
	}
	if len(rows) != c.Rows() {
		t.Fatalf("streamed %d rows, want %d", len(rows), c.Rows())
	}
	for i, row := range rows {
		if row.Index != i {
			t.Fatalf("row %d arrived with index %d; rows must stream in grid order", i, row.Index)
		}
		if row.Cells[0] != direct.Table.Row(i)[0] {
			t.Fatalf("row %d cells diverged from direct run", i)
		}
	}
}

// TestServeStatusCodes walks the failure paths.
func TestServeStatusCodes(t *testing.T) {
	ts, _, eng := newTestServer(t, 2, Options{MaxBodyBytes: 2048})

	t.Run("method-not-allowed", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/analyze/networks")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET on POST endpoint: %d", resp.StatusCode)
		}
	})
	t.Run("malformed-json", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/analyze/networks", "application/json", strings.NewReader("{"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed body: %d", resp.StatusCode)
		}
	})
	t.Run("unknown-field", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/analyze/networks", "application/json",
			strings.NewReader(`{"networks": [], "bogus": 1}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("unknown field: %d", resp.StatusCode)
		}
	})
	t.Run("invalid-network", func(t *testing.T) {
		bad := netFile(1)
		bad.Masters[0].Streams[0].Period = 0
		code, body := postJSON(t, ts.URL+"/v1/analyze/networks", AnalyzeNetworksRequest{
			Networks: []configfile.File{bad},
		})
		if code != http.StatusBadRequest {
			t.Fatalf("invalid network: %d %s", code, body)
		}
	})
	t.Run("body-too-large", func(t *testing.T) {
		files := make([]configfile.File, 64)
		for i := range files {
			files[i] = netFile(int64(i))
		}
		code, _ := postJSON(t, ts.URL+"/v1/analyze/networks", AnalyzeNetworksRequest{Networks: files})
		if code != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized body: %d", code)
		}
	})
	t.Run("deadline-exceeded", func(t *testing.T) {
		// Own server: the shared one caps bodies at 2 KiB.
		ts2, _, _ := newTestServer(t, 1, Options{})
		files := make([]configfile.File, 32)
		for i := range files {
			f := netFile(int64(i))
			f.Horizon = 5_000_000
			files[i] = f
		}
		code, body := postJSON(t, ts2.URL+"/v1/simulate/batch", SimulateBatchRequest{
			Networks: files, TimeoutMs: 1,
		})
		if code != http.StatusGatewayTimeout {
			t.Fatalf("expired deadline: %d %s", code, body)
		}
	})
	t.Run("engine-closed", func(t *testing.T) {
		// Last subtest: closes the shared engine.
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		code, body := postJSON(t, ts.URL+"/v1/analyze/networks", AnalyzeNetworksRequest{
			Networks: []configfile.File{netFile(1)},
		})
		if code != http.StatusServiceUnavailable {
			t.Fatalf("closed engine: %d %s", code, body)
		}
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("healthz on closed engine: %d", resp.StatusCode)
		}
	})
}

// TestServeRejectsTrailingData: every v1 endpoint answers 400 to a
// body that carries a second value after its envelope, instead of
// running the first one, and still answers 413 when the data after the
// envelope runs past the body cap.
func TestServeRejectsTrailingData(t *testing.T) {
	ts, _, _ := newTestServer(t, 2, Options{MaxBodyBytes: 4096})
	for _, c := range []struct {
		path string
		body any
	}{
		{"/v1/analyze/networks", AnalyzeNetworksRequest{Networks: []configfile.File{netFile(1)}}},
		{"/v1/analyze/topologies", AnalyzeTopologiesRequest{Topologies: []configfile.TopologyFile{topoFile()}}},
		{"/v1/simulate/batch", SimulateBatchRequest{Networks: []configfile.File{netFile(1)}}},
		{"/v1/simulate/topology", SimulateTopologyRequest{Topology: topoFile()}},
		{"/v1/campaign", CampaignRequest{Manifest: json.RawMessage(testManifest)}},
	} {
		envelope := encodeBody(t, c.body)
		for _, tc := range []struct {
			tail string
			code int
		}{
			{" " + string(envelope), http.StatusBadRequest},
			{" xyz", http.StatusBadRequest},
			{strings.Repeat(" ", 4096), http.StatusRequestEntityTooLarge},
		} {
			resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(string(envelope)+tc.tail))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.code {
				t.Errorf("%s with %d trailing bytes: status %d, want %d: %s", c.path, len(tc.tail), resp.StatusCode, tc.code, body)
			}
		}
	}
}

// TestServePerClientCap: with a cap of 1, a client's second in-flight
// request is turned away with 429 while an unrelated client is still
// served.
func TestServePerClientCap(t *testing.T) {
	ts, srv, _ := newTestServer(t, 1, Options{MaxInFlightPerClient: 1})

	slow := make([]configfile.File, 16)
	for i := range slow {
		f := netFile(int64(i))
		f.Horizon = 5_000_000
		slow[i] = f
	}
	body, _ := json.Marshal(SimulateBatchRequest{Networks: slow})

	started := make(chan struct{})
	finished := make(chan error, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/simulate/batch", bytes.NewReader(body))
		req.Header.Set("X-Client-ID", "hog")
		close(started)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		finished <- err
	}()
	<-started
	// Wait until the hog's request is admitted.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Metrics().Server.ActiveRequests == 0 {
		if time.Now().After(deadline) {
			t.Fatal("hog request never became active")
		}
		time.Sleep(time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/analyze/networks",
		bytes.NewReader(encodeBody(t, AnalyzeNetworksRequest{Networks: []configfile.File{netFile(1)}})))
	req.Header.Set("X-Client-ID", "hog")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second in-flight request for capped client: %d", resp.StatusCode)
	}

	// A different client is unaffected.
	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/analyze/networks",
		bytes.NewReader(encodeBody(t, AnalyzeNetworksRequest{Networks: []configfile.File{netFile(1)}})))
	req2.Header.Set("X-Client-ID", "other")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("unrelated client under another's cap: %d", resp2.StatusCode)
	}
	if err := <-finished; err != nil {
		t.Fatal(err)
	}
	if got := srv.Metrics().Server.RejectedOverLimit; got != 1 {
		t.Fatalf("RejectedOverLimit = %d, want 1", got)
	}
}

// TestServeClientDisconnectMidStream: a client abandoning a streamed
// campaign response cancels the work (the handler returns, the pool
// drains) and leaves the server fully serviceable.
func TestServeClientDisconnectMidStream(t *testing.T) {
	ts, srv, _ := newTestServer(t, 2, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(CampaignRequest{Manifest: json.RawMessage(testManifest)})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/campaign", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the first streamed line, then vanish.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first line before disconnect: %v", sc.Err())
	}
	cancel()
	resp.Body.Close()

	// The handler must settle (r.Context() cancellation propagates into
	// the campaign, which treats it as skip-the-rest).
	deadline := time.Now().Add(10 * time.Second)
	for srv.Metrics().Server.ActiveRequests != 0 {
		if time.Now().After(deadline) {
			t.Fatal("campaign handler never settled after client disconnect")
		}
		time.Sleep(time.Millisecond)
	}

	// And the server still serves.
	code, bodyOut := postJSON(t, ts.URL+"/v1/analyze/networks", AnalyzeNetworksRequest{
		Networks: []configfile.File{netFile(1)},
	})
	if code != http.StatusOK {
		t.Fatalf("request after another client's disconnect: %d %s", code, bodyOut)
	}
}

// TestServeDrain is the shutdown contract in miniature: Shutdown
// stops intake, the in-flight request completes with full results,
// and only then does the Engine close.
func TestServeDrain(t *testing.T) {
	eng := profirt.NewEngine(profirt.WithParallelism(2))
	defer eng.Close()
	srv := New(eng, Options{})
	hs := &http.Server{Handler: srv.Handler()}
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config = hs
	ts.Start()

	slow := make([]configfile.File, 8)
	for i := range slow {
		f := netFile(int64(i))
		f.Horizon = 2_000_000
		slow[i] = f
	}
	body, _ := json.Marshal(SimulateBatchRequest{Networks: slow})

	type reply struct {
		code int
		body []byte
		err  error
	}
	inFlight := make(chan reply, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/simulate/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			inFlight <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		inFlight <- reply{code: resp.StatusCode, body: b, err: err}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Metrics().Server.ActiveRequests == 0 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight request never became active")
		}
		time.Sleep(time.Millisecond)
	}

	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		t.Fatalf("Shutdown did not drain cleanly: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	r := <-inFlight
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request got %d during drain: %s", r.code, r.body)
	}
	var out SimulateBatchResponse
	if err := json.Unmarshal(r.body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(slow) {
		t.Fatalf("drained request returned %d results, want %d", len(out.Results), len(slow))
	}
	for _, res := range out.Results {
		if res.Skipped || res.Error != "" {
			t.Fatalf("drained request returned partial results: %+v", res)
		}
	}
}

// TestServeMetricsFormats: Prometheus text by default, JSON on
// request, wrong method rejected.
func TestServeMetricsFormats(t *testing.T) {
	ts, _, _ := newTestServer(t, 2, Options{})
	if code, _ := postJSON(t, ts.URL+"/v1/analyze/networks", AnalyzeNetworksRequest{
		Networks: []configfile.File{netFile(1), netFile(2)},
	}); code != http.StatusOK {
		t.Fatalf("warmup request: %d", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, metric := range []string{
		"profiserve_pool_workers 2",
		"profiserve_engine_op_calls_total{op=\"analyze_networks\"} 1",
		"profiserve_server_requests_total 1",
		"profiserve_cache_misses_total",
	} {
		if !strings.Contains(string(text), metric) {
			t.Fatalf("Prometheus exposition missing %q:\n%s", metric, text)
		}
	}

	resp, err = http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if m.Engine.Pool.Workers != 2 || m.Engine.Ops.AnalyzeNetworks != 1 || m.Server.RequestsTotal != 1 {
		t.Fatalf("JSON metrics snapshot off: %+v", m)
	}
	if m.Engine.Cache.Misses == 0 {
		t.Fatalf("cache counters never moved: %+v", m.Engine.Cache)
	}

	dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/metrics", nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /metrics: %d", dresp.StatusCode)
	}
}
