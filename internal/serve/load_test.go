package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"profirt"
	"profirt/internal/configfile"
)

// TestServeLoadByteIdentity is the headline load test: hundreds of
// concurrent clients hammer every endpoint of one shared-Engine server
// and every response must be byte-identical to a direct Engine call
// pushed through the same wire types, while /metrics (scraped
// concurrently) shows the pool actually working.
//
// The request pool cycles a handful of distinct bodies, so the cache
// sees both misses (first touch) and hits (every repeat), and the
// fair-admission pool sees many interleaved submissions.
func TestServeLoadByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	const (
		clients  = 250
		reqsEach = 4
		variants = 5
	)

	eng := profirt.NewEngine(
		profirt.WithParallelism(4),
		profirt.WithCache(profirt.NewAnalysisCache(0)),
	)
	defer eng.Close()
	srv := New(eng, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Golden bodies from a sequential reference Engine — the ground
	// truth every served response must match byte for byte.
	ref := profirt.NewEngine(profirt.WithParallelism(1))
	defer ref.Close()
	type call struct {
		path string
		body []byte
		want []byte
	}
	var calls []call
	for v := 0; v < variants; v++ {
		files := []configfile.File{netFile(int64(v)), netFile(int64(v + 100))}
		nets := make([]profirt.Network, len(files))
		cfgs := make([]profirt.SimConfig, len(files))
		for i := range files {
			n, cfg, err := files[i].Build()
			if err != nil {
				t.Fatal(err)
			}
			nets[i], cfgs[i] = n, cfg
		}

		an, err := ref.AnalyzeNetworks(context.Background(), nets, profirt.AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, call{
			path: "/v1/analyze/networks",
			body: encodeBody(t, AnalyzeNetworksRequest{Networks: files}),
			want: encodeBody(t, AnalyzeNetworksResponse{Results: an}),
		})

		sim, err := ref.SimulateBatch(context.Background(), cfgs, profirt.SimulateOptions{Seed: int64(v)})
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, call{
			path: "/v1/simulate/batch",
			body: encodeBody(t, SimulateBatchRequest{Networks: files, Seed: int64(v)}),
			want: encodeBody(t, SimulateBatchResponse{Results: SimResults(sim)}),
		})
	}
	topo := topoFile()
	top, simTop, err := topo.Build()
	if err != nil {
		t.Fatal(err)
	}
	ta, err := ref.AnalyzeTopologies(context.Background(), []profirt.Topology{top}, profirt.TopologyAnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	calls = append(calls, call{
		path: "/v1/analyze/topologies",
		body: encodeBody(t, AnalyzeTopologiesRequest{Topologies: []configfile.TopologyFile{topo}}),
		want: encodeBody(t, AnalyzeTopologiesResponse{Results: TopologyResults(ta)}),
	})
	tsim, err := ref.SimulateTopology(context.Background(), simTop, profirt.TopologySimulateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	calls = append(calls, call{
		path: "/v1/simulate/topology",
		body: encodeBody(t, SimulateTopologyRequest{Topology: topo}),
		want: encodeBody(t, SimulateTopologyResponse{Result: tsim}),
	})

	// Scraper: poll /metrics throughout the storm and record the peak
	// pool occupancy it witnesses.
	scrapeDone := make(chan struct{})
	stopScrape := make(chan struct{})
	var peakInFlight int64
	go func() {
		defer close(scrapeDone)
		for {
			select {
			case <-stopScrape:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/metrics?format=json")
			if err == nil {
				var m Metrics
				if json.NewDecoder(resp.Body).Decode(&m) == nil {
					if inFlight := int64(m.Engine.Pool.InFlight); inFlight > atomic.LoadInt64(&peakInFlight) {
						atomic.StoreInt64(&peakInFlight, inFlight)
					}
				}
				resp.Body.Close()
			}
			time.Sleep(time.Millisecond)
		}
	}()

	transport := &http.Transport{MaxIdleConnsPerHost: 64}
	client := &http.Client{Transport: transport}
	defer transport.CloseIdleConnections()

	var wg sync.WaitGroup
	var mismatches, failures atomic.Int64
	var firstErr atomic.Value
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < reqsEach; r++ {
				k := calls[(c*reqsEach+r)%len(calls)]
				req, err := http.NewRequest(http.MethodPost, ts.URL+k.path, bytes.NewReader(k.body))
				if err != nil {
					failures.Add(1)
					firstErr.CompareAndSwap(nil, err.Error())
					return
				}
				req.Header.Set("X-Client-ID", "client-"+string(rune('A'+c%26)))
				resp, err := client.Do(req)
				if err != nil {
					failures.Add(1)
					firstErr.CompareAndSwap(nil, err.Error())
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					failures.Add(1)
					firstErr.CompareAndSwap(nil, string(got))
					return
				}
				if !bytes.Equal(got, k.want) {
					mismatches.Add(1)
					firstErr.CompareAndSwap(nil, "byte mismatch on "+k.path)
				}
			}
		}(c)
	}
	wg.Wait()
	close(stopScrape)
	<-scrapeDone

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d/%d requests failed under load; first: %v", n, clients*reqsEach, firstErr.Load())
	}
	if n := mismatches.Load(); n != 0 {
		t.Fatalf("%d/%d responses diverged from the direct Engine call; first: %v",
			n, clients*reqsEach, firstErr.Load())
	}

	// Post-storm metrics: the pool, cache and server counters must all
	// have moved, and the scraper must have caught the pool busy.
	m := srv.Metrics()
	if m.Server.RequestsTotal < clients*reqsEach {
		t.Fatalf("RequestsTotal = %d, want >= %d", m.Server.RequestsTotal, clients*reqsEach)
	}
	if m.Server.ActiveRequests != 0 {
		t.Fatalf("ActiveRequests = %d after the storm settled", m.Server.ActiveRequests)
	}
	if m.Engine.Pool.Jobs == 0 || m.Engine.Pool.Submissions == 0 {
		t.Fatalf("pool never worked: %+v", m.Engine.Pool)
	}
	if m.Engine.Pool.InFlight != 0 || m.Engine.Pool.ActiveSubmissions != 0 {
		t.Fatalf("pool not idle after the storm: %+v", m.Engine.Pool)
	}
	if m.Engine.Ops.AnalyzeNetworks == 0 || m.Engine.Ops.SimulateBatch == 0 ||
		m.Engine.Ops.AnalyzeTopologies == 0 || m.Engine.Ops.SimulateTopology == 0 {
		t.Fatalf("op counters missing traffic: %+v", m.Engine.Ops)
	}
	if m.Engine.Cache.Misses == 0 {
		t.Fatalf("cache saw no misses: %+v", m.Engine.Cache)
	}
	if m.Engine.Cache.Hits == 0 {
		t.Fatalf("repeated identical analyses produced no cache hits: %+v", m.Engine.Cache)
	}
	if atomic.LoadInt64(&peakInFlight) == 0 {
		t.Fatal("/metrics scrapes never observed pool occupancy during the storm")
	}

	// The Prometheus rendering of the same snapshot carries every
	// metric family.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, name := range []string{
		"profiserve_pool_workers", "profiserve_pool_in_flight", "profiserve_pool_queue_depth",
		"profiserve_pool_jobs_total", "profiserve_engine_op_calls_total",
		"profiserve_cache_hits_total", "profiserve_cache_misses_total",
		"profiserve_store_entries", "profiserve_server_requests_total",
		"profiserve_server_rejected_over_limit_total",
	} {
		if !strings.Contains(string(text), name) {
			t.Fatalf("Prometheus exposition missing %s", name)
		}
	}
}
