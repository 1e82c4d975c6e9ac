package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"

	"profirt"
	"profirt/internal/ap"
	"profirt/internal/configfile"
	"profirt/internal/profibus"
	"profirt/internal/serve"
	"profirt/internal/workload"
)

// Input shapes. Every request carries netsPerRequest networks; the
// analyze workloads draw 4 masters × 4 high-priority streams, the
// simulate workload the generator's default 3 × 3 with a shorter
// horizon so one request stays in the low milliseconds.
const (
	netsPerRequest = 16
	hotWorkingSet  = 256
	// bodyCycle is how many distinct bodies analyze-hot and
	// simulate-batch cycle through.
	bodyCycle  = 512
	simHorizon = 200_000
	// checkEvery: analyze-unique byte-compares every checkEvery-th
	// request and checks the rest structurally, because expected bytes
	// for every never-repeated body would cost more to compute than the
	// run measures.
	checkEvery = 8
)

// request is one pre-generated POST: its body and, when the response
// is byte-checked, the exact bytes the server must return.
type request struct {
	body []byte
	want []byte
}

// seedFor derives the generator seed of item i of one input stream,
// so every body is a pure function of (seed, stream, i).
func seedFor(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(i))
	h.Write(b[:])
	return int64(h.Sum64() >> 1)
}

// analyzeParams draws 4 masters × 4 high-priority streams with the
// generator's period range doubled. At the default 20k–80k bit times
// most masters of a 4 × 4 network land near full load, where one EDF
// analysis can take 0.4 s and the slowest 0.1% of networks carry 30%
// of all analysis time; a run's capacity would then hinge on which
// rare networks its seed happens to draw.
func analyzeParams() workload.StreamSetParams {
	p := workload.DefaultStreamSetParams()
	p.Masters, p.StreamsPerMaster = 4, 4
	p.PeriodMin, p.PeriodMax = 40_000, 160_000
	return p
}

// genNetwork draws item i of stream as a configfile description.
func genNetwork(seed int64, stream string, i int, p workload.StreamSetParams, horizon profirt.Ticks) configfile.File {
	_, cfg := workload.StreamSet(rand.New(rand.NewSource(seedFor(seed, stream, i))), p)
	if horizon > 0 {
		cfg.Horizon = horizon
	}
	return fileOf(cfg)
}

// fileOf is the configfile description of a simulator configuration
// built on the default bus, the inverse of configfile.File.Build for
// every configuration workload.StreamSet draws.
func fileOf(cfg profibus.Config) configfile.File {
	f := configfile.File{
		TTR:       cfg.TTR,
		Horizon:   cfg.Horizon,
		Seed:      cfg.Seed,
		Jitter:    jitterNames[cfg.Jitter],
		GapFactor: cfg.GapFactor,
	}
	for _, m := range cfg.Masters {
		mj := configfile.MasterJSON{Addr: m.Addr, Dispatcher: policyNames[m.Dispatcher]}
		for _, s := range m.Streams {
			mj.Streams = append(mj.Streams, configfile.StreamJSON{
				Name: s.Name, Slave: s.Slave, High: s.High,
				Period: s.Period, Deadline: s.Deadline, Jitter: s.Jitter, Offset: s.Offset,
				ReqBytes: s.ReqBytes, RespBytes: s.RespBytes,
			})
		}
		f.Masters = append(f.Masters, mj)
	}
	for _, s := range cfg.Slaves {
		f.Slaves = append(f.Slaves, configfile.SlaveJSON{Addr: s.Addr, TSDR: s.TSDR})
	}
	return f
}

var jitterNames = map[profibus.JitterMode]string{
	profibus.JitterNone: "none", profibus.JitterRandom: "random", profibus.JitterAdversarial: "adversarial",
}

var policyNames = map[ap.Policy]string{ap.FCFS: "fcfs", ap.DM: "dm", ap.EDF: "edf"}

// The wire paths the workloads post to.
const (
	pathAnalyze  = "/v1/analyze/networks"
	pathSimulate = "/v1/simulate/batch"
)

// uniqueFiles returns the networks of analyze-unique request i.
func uniqueFiles(seed int64, i int) []configfile.File {
	files := make([]configfile.File, netsPerRequest)
	for k := range files {
		files[k] = genNetwork(seed, "analyze-unique", i*netsPerRequest+k, analyzeParams(), 0)
	}
	return files
}

// hotFiles returns the networks of analyze-hot body i: the first
// hotWorkingSet/netsPerRequest bodies cover the working set in order
// (they are the warm-up), later ones draw from it at random.
func hotFiles(seed int64, i int) []configfile.File {
	files := make([]configfile.File, netsPerRequest)
	rng := rand.New(rand.NewSource(seedFor(seed, "analyze-hot/pick", i)))
	for k := range files {
		j := i*netsPerRequest + k
		if i >= hotWorkingSet/netsPerRequest {
			j = rng.Intn(hotWorkingSet)
		}
		files[k] = genNetwork(seed, "analyze-hot", j, analyzeParams(), 0)
	}
	return files
}

// simRequest returns simulate-batch body i.
func simRequest(seed int64, i int) serve.SimulateBatchRequest {
	files := make([]configfile.File, netsPerRequest)
	for k := range files {
		files[k] = genNetwork(seed, "simulate-batch", i*netsPerRequest+k, workload.DefaultStreamSetParams(), simHorizon)
	}
	return serve.SimulateBatchRequest{Networks: files, Seed: seedFor(seed, "simulate-batch/seed", i)}
}

// oracle computes expected response bytes the way the server must:
// a sequential, uncached Engine whose results go through the same wire
// types and the same encoder.
type oracle struct{ eng *profirt.Engine }

func newOracle() *oracle { return &oracle{eng: profirt.NewEngine(profirt.WithParallelism(1))} }

func (o *oracle) close() { o.eng.Close() }

func encodeJSON(v any) []byte {
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		panic(fmt.Sprintf("bench: encoding %T: %v", v, err))
	}
	return b.Bytes()
}

func buildNets(files []configfile.File) ([]profirt.Network, []profirt.SimConfig, error) {
	nets := make([]profirt.Network, len(files))
	cfgs := make([]profirt.SimConfig, len(files))
	for i := range files {
		n, c, err := files[i].Build()
		if err != nil {
			return nil, nil, fmt.Errorf("network %d: %w", i, err)
		}
		nets[i], cfgs[i] = n, c
	}
	return nets, cfgs, nil
}

func (o *oracle) analyze(files []configfile.File) ([]byte, error) {
	nets, _, err := buildNets(files)
	if err != nil {
		return nil, err
	}
	res, err := o.eng.AnalyzeNetworks(context.Background(), nets, profirt.AnalyzeOptions{})
	if err != nil {
		return nil, err
	}
	return encodeJSON(serve.AnalyzeNetworksResponse{Results: res}), nil
}

func (o *oracle) simulate(req serve.SimulateBatchRequest) ([]byte, error) {
	_, cfgs, err := buildNets(req.Networks)
	if err != nil {
		return nil, err
	}
	res, err := o.eng.SimulateBatch(context.Background(), cfgs, profirt.SimulateOptions{Seed: req.Seed})
	if err != nil {
		return nil, err
	}
	return encodeJSON(serve.SimulateBatchResponse{Results: serve.SimResults(res)}), nil
}

// genRequests builds n requests of one workload, computing expected
// bytes for those that are byte-checked. workers goroutines share the
// work; the result does not depend on their number.
func genRequests(w string, seed int64, n, workers int) ([]request, error) {
	out := make([]request, n)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for k := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := newOracle()
			defer o.close()
			for i := k; i < n && errs[k] == nil; i += workers {
				errs[k] = genRequest(o, w, seed, i, &out[i])
			}
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

func genRequest(o *oracle, w string, seed int64, i int, r *request) error {
	var err error
	switch w {
	case "analyze-unique":
		files := uniqueFiles(seed, i)
		r.body = encodeJSON(serve.AnalyzeNetworksRequest{Networks: files})
		if i%checkEvery == 0 {
			r.want, err = o.analyze(files)
		}
	case "analyze-hot":
		files := hotFiles(seed, i)
		r.body = encodeJSON(serve.AnalyzeNetworksRequest{Networks: files})
		r.want, err = o.analyze(files)
	case "simulate-batch":
		req := simRequest(seed, i)
		r.body = encodeJSON(req)
		r.want, err = o.simulate(req)
	default:
		return fmt.Errorf("no request generator for workload %q", w)
	}
	if err != nil {
		return fmt.Errorf("%s request %d: %w", w, i, err)
	}
	return nil
}

// Structural check markers for responses that are not byte-compared:
// the wire form of BatchResult carries one "Index" per network and
// "Skipped":true for networks the server never evaluated.
var (
	indexMarker   = []byte(`"Index":`)
	skippedMarker = []byte(`"Skipped":true`)
)

// verify reports whether got is a correct response to r.
func verify(r *request, got []byte) bool {
	if r.want != nil {
		return bytes.Equal(got, r.want)
	}
	return bytes.Count(got, indexMarker) == netsPerRequest && !bytes.Contains(got, skippedMarker)
}
