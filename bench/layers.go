package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"profirt"
	"profirt/internal/configfile"
	"profirt/internal/core"
	"profirt/internal/obs"
	"profirt/internal/profibus"
	"profirt/internal/serve"
)

// Sizes of the in-process replay. replayN is how many of a serve
// workload's first closed-loop requests are replayed; the engine
// comparisons, the idle round trips and the simulator use a prefix,
// since each of their passes costs a full request's work again.
const (
	replayN       = 200
	engineSampleN = 50
	probeN        = 100
	simSampleN    = 48
)

// sample is what the traced pass replays in-process: warm bodies that
// bring a fresh Engine's cache to the live server's state, then the
// bodies whose handling is measured.
type sample struct {
	path   string
	warm   []request
	replay []request
}

// decoded is one replay body as the handler sees it.
type decoded struct {
	files []configfile.File
	nets  []profirt.Network
	cfgs  []profirt.SimConfig
	seed  int64
	sim   bool // a simulate-batch body
}

// decodeWire decodes a body into the endpoint's wire type the way the
// handler does, unknown fields rejected.
func decodeWire(path string, body []byte) (decoded, error) {
	var d decoded
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	switch path {
	case pathAnalyze:
		var req serve.AnalyzeNetworksRequest
		err := dec.Decode(&req)
		d.files = req.Networks
		return d, err
	case pathSimulate:
		var req serve.SimulateBatchRequest
		err := dec.Decode(&req)
		d.files, d.seed, d.sim = req.Networks, req.Seed, true
		return d, err
	}
	return d, fmt.Errorf("no wire type for %s", path)
}

// layerPass is the traced pass: it replays s through serve.New's
// handler and calls every layer directly on the same inputs, all
// under one tracer, so the program's own engine.*, pool.* and
// memo.lookup spans nest under the bench.* spans opened here. The
// trace is written as Chrome trace_event JSON into the env's output
// directory. It returns the counters of the experiments pass's Engine.
func layerPass(e *env, name string, rec *record, s sample) (before, after profirt.EngineStats, err error) {
	tr := obs.NewTracer(fmt.Sprintf("bench %s seed %d", name, e.seed), nil)
	ctx := obs.WithTracer(context.Background(), tr)
	L := rec.layer

	ds := make([]decoded, len(s.replay))
	for i, r := range s.replay {
		d, err := decodeWire(s.path, r.body)
		if err == nil {
			d.nets, d.cfgs, err = buildNets(d.files)
		}
		if err != nil {
			return before, after, fmt.Errorf("replay body %d: %w", i, err)
		}
		ds[i] = d
	}
	resps, err := replayHandler(ctx, L, s)
	if err != nil {
		return before, after, err
	}
	if err := wireLayers(ctx, L, s, resps); err != nil {
		return before, after, err
	}
	if err := engineLayers(ctx, e, L, ds[:min(engineSampleN, len(ds))]); err != nil {
		return before, after, err
	}
	var nets []profirt.Network
	var cfgs []profirt.SimConfig
	for _, d := range ds {
		nets = append(nets, d.nets...)
		for k, c := range d.cfgs {
			c.Seed = profibus.BatchSeed(d.seed, k)
			cfgs = append(cfgs, c)
		}
	}
	memoLayers(ctx, L, nets)
	coreLayers(ctx, L, nets)
	if err := simLayers(ctx, L, cfgs[:min(simSampleN, len(cfgs))]); err != nil {
		return before, after, err
	}
	kernelLayers(ctx, L, e.seed)
	if err := taskLayers(ctx, L, e.seed); err != nil {
		return before, after, err
	}
	if before, after, err = experimentLayers(ctx, e, L); err != nil {
		return before, after, err
	}

	path := filepath.Join(e.out, fmt.Sprintf("trace-%s-%d.json", name, e.seed))
	if err := writeTrace(tr, path); err != nil {
		return before, after, err
	}
	rec.Detail.SelfUs = selfByName(tr.Events())
	e.logf("%s: trace of %d spans (%d dropped) written to %s", name, len(tr.Events()), tr.Dropped(), path)
	return before, after, nil
}

func writeTrace(tr *obs.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := tr.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayHandler runs the replay bodies through serve.New's handler
// behind an httptest recorder, twice, each time on a fresh Engine
// built the way profiserve builds its own and warmed with the same
// bodies as the live server. The untraced pass gives the numbers: the
// handler time by the bench's clock, the Engine call inside it from
// the Engine's own per-op latency histogram, the handler's self time,
// the first minus the second, and the run time of the call's pool jobs
// summed per request, from the pool's own histogram; the jobs run side
// by side, so that sum is the call's work rather than its wall time. The traced pass repeats the calls
// under bench.serve.handler spans so the trace shows where the time
// goes; tracing slows the program (engine.trace_overhead_pct), so its
// timings are not used. It returns the response bodies.
func replayHandler(ctx context.Context, L map[string]float64, s sample) ([][]byte, error) {
	op := "analyze_networks"
	if s.path == pathSimulate {
		op = "simulate_batch"
	}
	resps := make([][]byte, len(s.replay))
	for _, traced := range []bool{false, true} {
		eng := profirt.NewEngine(profirt.WithCache(profirt.NewAnalysisCache(0)))
		h := serve.New(eng, serve.Options{}).Handler()
		for i := range s.warm {
			if _, err := serveOne(context.Background(), h, s.path, &s.warm[i]); err != nil {
				eng.Close()
				return nil, err
			}
		}
		before := eng.Stats()
		var total time.Duration
		for i := range s.replay {
			rctx, sp := context.Background(), obs.Span{}
			if traced {
				rctx, sp = obs.StartSpan(ctx, "bench.serve.handler")
			}
			t0 := obs.Now()
			out, err := serveOne(rctx, h, s.path, &s.replay[i])
			total += obs.Now().Sub(t0)
			sp.End()
			if err != nil {
				eng.Close()
				return nil, err
			}
			resps[i] = out
		}
		after := eng.Stats()
		eng.Close()
		if traced {
			continue
		}
		c0, c1 := opLatency(before, op), opLatency(after, op)
		if c1.Count-c0.Count != uint64(len(s.replay)) {
			return nil, fmt.Errorf("in-process replay: %d %s calls for %d requests", c1.Count-c0.Count, op, len(s.replay))
		}
		handler := us(total) / float64(len(s.replay))
		L["serve.handler_us"] = handler
		L["engine.call_us"] = us(histMean(c0, c1))
		L["serve.self_us"] = handler - L["engine.call_us"]
		L["engine.jobs_us"] = us(time.Duration(after.Latency.PoolRun.SumNs-before.Latency.PoolRun.SumNs)) / float64(len(s.replay))
	}
	return resps, nil
}

// serveOne runs one request through h and checks its response.
func serveOne(ctx context.Context, h http.Handler, path string, r *request) ([]byte, error) {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(r.body)).WithContext(ctx))
	if w.Code != http.StatusOK {
		return nil, fmt.Errorf("in-process %s: status %d: %s", path, w.Code, bytes.TrimSpace(w.Body.Bytes()))
	}
	if !verify(r, w.Body.Bytes()) {
		return nil, fmt.Errorf("in-process %s: response differs from the expected bytes", path)
	}
	return w.Body.Bytes(), nil
}

func opLatency(st profirt.EngineStats, op string) profirt.LatencySnapshot {
	for _, o := range st.Latency.Ops {
		if o.Op == op {
			return o.Latency
		}
	}
	return profirt.LatencySnapshot{}
}

// wireLayers times the handler's own steps on the replay bodies:
// decoding into the wire type, building each network, and encoding
// the response the handler returned.
func wireLayers(ctx context.Context, L map[string]float64, s sample, resps [][]byte) error {
	_, sp := obs.StartSpan(ctx, "bench.serve.wire")
	defer sp.End()
	var dec, build, enc time.Duration
	var nets int
	for i, r := range s.replay {
		t0 := obs.Now()
		d, err := decodeWire(s.path, r.body)
		dec += obs.Now().Sub(t0)
		if err != nil {
			return err
		}
		t0 = obs.Now()
		for k := range d.files {
			if _, _, err := d.files[k].Build(); err != nil {
				return err
			}
		}
		build += obs.Now().Sub(t0)
		nets += len(d.files)

		var resp any = &serve.AnalyzeNetworksResponse{}
		if s.path == pathSimulate {
			resp = &serve.SimulateBatchResponse{}
		}
		if err := json.Unmarshal(resps[i], resp); err != nil {
			return fmt.Errorf("decoding response %d: %w", i, err)
		}
		t0 = obs.Now()
		out := encodeJSON(resp)
		enc += obs.Now().Sub(t0)
		if !bytes.Equal(out, resps[i]) {
			return fmt.Errorf("re-encoded response %d differs from the handler's", i)
		}
	}
	L["serve.decode_us"] = us(dec) / float64(len(s.replay))
	L["configfile.build_us"] = us(build) / float64(nets)
	L["serve.encode_us"] = us(enc) / float64(len(s.replay))
	return nil
}

// engineLayers compares, request by request, a sequential uncached
// Engine call with the same call traced, with the call on a pool of
// every CPU, and with the direct per-item calls it fans out.
func engineLayers(ctx context.Context, e *env, L map[string]float64, ds []decoded) error {
	ctx, sp := obs.StartSpan(ctx, "bench.engine")
	defer sp.End()
	p1 := profirt.NewEngine(profirt.WithParallelism(1))
	defer p1.Close()
	pn := profirt.NewEngine(profirt.WithParallelism(e.conns))
	defer pn.Close()
	callOn := func(ctx context.Context, eng *profirt.Engine, d decoded) (time.Duration, error) {
		t0 := obs.Now()
		var err error
		if d.sim {
			_, err = eng.SimulateBatch(ctx, d.cfgs, profirt.SimulateOptions{Seed: d.seed})
		} else {
			_, err = eng.AnalyzeNetworks(ctx, d.nets, profirt.AnalyzeOptions{})
		}
		return obs.Now().Sub(t0), err
	}
	var plain, traced, wide, direct time.Duration
	for _, d := range ds {
		for _, c := range []struct {
			ctx context.Context
			eng *profirt.Engine
			sum *time.Duration
		}{{context.Background(), p1, &plain}, {ctx, p1, &traced}, {context.Background(), pn, &wide}} {
			dt, err := callOn(c.ctx, c.eng, d)
			if err != nil {
				return err
			}
			*c.sum += dt
		}
		t0 := obs.Now()
		if d.sim {
			for k, c := range d.cfgs {
				c.Seed = profibus.BatchSeed(d.seed, k)
				if _, err := profibus.Simulate(c); err != nil {
					return err
				}
			}
		} else {
			for _, n := range d.nets {
				core.FCFSSchedulable(n)
				core.DMSchedulable(n, core.DMOptions{})
				core.EDFSchedulableNet(n, core.EDFOptions{})
			}
		}
		direct += obs.Now().Sub(t0)
	}
	L["engine.overhead_us"] = us(plain-direct) / float64(len(ds))
	L["engine.trace_overhead_pct"] = 100 * float64(traced-plain) / float64(plain)
	L["pool.speedup"] = float64(plain) / float64(wide)
	return nil
}
