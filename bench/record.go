package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
)

// record is one run's measurements plus its diagnostics. e2e holds
// the metrics BENCHMARK.json lists under end_to_end, layer those under
// per_layer; throughput and latency are per_layer there, because on a
// shared host they drift between runs of one commit by more than any
// bound BENCHMARK.json allows (see README.md).
type record struct {
	Detail detail
	e2e    map[string]float64
	layer  map[string]float64
}

func newRecord() *record {
	return &record{
		Detail: detail{
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Samples:    map[string]int{},
			Quartiles:  map[string][2]float64{},
		},
		e2e:   map[string]float64{},
		layer: map[string]float64{},
	}
}

// detail is the diagnostic side of a run: everything needed to judge
// its numbers that is not itself a gated metric.
type detail struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      int     `json:"trace"`
	NumCPU     int     `json:"numCPU"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Phases     []phase `json:"phases"`
	// Samples and Quartiles describe the distribution each reported
	// median or percentile was taken from.
	Samples   map[string]int        `json:"samples"`
	Quartiles map[string][2]float64 `json:"quartiles"`
	// TailPercentile is the percentile the open-loop tail rows were
	// read at: the highest with at least ten samples beyond it.
	TailPercentile float64 `json:"tailPercentile,omitempty"`
	// RSSFloorMB is, on experiments-full, the largest memory high-water
	// mark of peakrss, under which no suite run's peak RSS can read.
	RSSFloorMB float64 `json:"rssFloorMB,omitempty"`
	FirstError string  `json:"firstError,omitempty"`
	// Metrics holds every metric the run measured, whichever set the
	// result line printed, so -compare can use them all.
	Metrics map[string]float64 `json:"metrics"`
	// SelfUs totals, for a traced run, the self time of every span
	// name in the trace, in µs.
	SelfUs map[string]float64 `json:"selfUs,omitempty"`
}

// summarize records the median of xs as the metric and keeps the
// sample count and quartiles in the detail.
func (r *record) summarize(into map[string]float64, name string, xs []float64) {
	into[name] = median(xs)
	r.Detail.Samples[name] = len(xs)
	q1, q3 := quartiles(xs)
	r.Detail.Quartiles[name] = [2]float64{finite(q1), finite(q3)}
}

func (r *record) addPhase(p phase) {
	if len(p.lat) > 0 {
		p.P50Ms, p.MaxMs = finite(median(p.lat)), finite(percentile(p.lat, 100))
	}
	r.Detail.Phases = append(r.Detail.Phases, p)
}

// measured returns every finite metric the run measured.
func (r *record) measured() map[string]float64 {
	out := map[string]float64{}
	for _, m := range []map[string]float64{r.e2e, r.layer} {
		for k, v := range m {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				out[k] = v
			}
		}
	}
	return out
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result assembles the final line: the end-to-end metrics BENCHMARK.json
// declares, or the per-layer ones for a traced run. Every declared
// metric must have been measured.
func (r *record) result(spec benchSpec, traced bool) (result, error) {
	defs, vals := spec.EndToEnd, r.e2e
	if traced {
		defs, vals = spec.PerLayer, r.layer
	}
	res := result{Metrics: map[string]metricValue{}}
	for _, p := range r.Detail.Phases {
		res.Attempted += p.Sent
		res.Failed += p.Failed
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) {
			missing = append(missing, d.Name)
			continue
		}
		res.Metrics[d.Name] = metricValue{Value: finite(v), Unit: d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return res, fmt.Errorf("metrics not measured: %v", missing)
	}
	return res, nil
}
