package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"profirt"
	"profirt/internal/configfile"
	"profirt/internal/workload"
)

func TestGeneratorDeterminism(t *testing.T) {
	for _, w := range []string{"analyze-unique", "analyze-hot", "simulate-batch"} {
		a, err := genRequests(w, 7, 20, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := genRequests(w, 7, 20, 3)
		if err != nil {
			t.Fatal(err)
		}
		c, err := genRequests(w, 8, 20, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if !bytes.Equal(a[i].body, b[i].body) || !bytes.Equal(a[i].want, b[i].want) {
				t.Fatalf("%s request %d: same seed, different bytes", w, i)
			}
		}
		// The warm-up bodies of analyze-hot and the rest share networks
		// across seeds only by accident; all 20 bodies must differ.
		for i := range a {
			if bytes.Equal(a[i].body, c[i].body) {
				t.Fatalf("%s request %d: seeds 7 and 8 give the same body", w, i)
			}
		}
	}
}

func TestUniqueBodiesNeverRepeat(t *testing.T) {
	reqs, err := genRequests("analyze-unique", 1, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range reqs {
		var req struct{ Networks []json.RawMessage }
		if err := json.Unmarshal(r.body, &req); err != nil {
			t.Fatal(err)
		}
		for _, n := range req.Networks {
			if seen[string(n)] {
				t.Fatal("a network repeats within analyze-unique")
			}
			seen[string(n)] = true
		}
	}
}

// TestFileRoundTrip: the description the benchmark sends builds, on the
// server side, exactly the network the generator drew.
func TestFileRoundTrip(t *testing.T) {
	for _, p := range []workload.StreamSetParams{analyzeParams(), workload.DefaultStreamSetParams()} {
		rng := rand.New(rand.NewSource(3))
		for range 50 {
			net, cfg := workload.StreamSet(rng, p)
			raw, err := json.Marshal(fileOf(cfg))
			if err != nil {
				t.Fatal(err)
			}
			gotNet, gotCfg, err := configfile.Parse(raw)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotNet, net) {
				t.Fatalf("network differs after the round trip:\n got %+v\nwant %+v", gotNet, net)
			}
			if !reflect.DeepEqual(gotCfg, cfg) {
				t.Fatalf("simulator config differs after the round trip:\n got %+v\nwant %+v", gotCfg, cfg)
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {40, 75}, {20, 50}, {19, 0}, {0, 0}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i)
	}
	// Ten samples (991..1000) lie beyond the nearest-rank p99.
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(xs, 100); got != 1000 {
		t.Errorf("p100 of 1..1000 = %v, want 1000", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs,
// n=4), the definition the benchmark's spread is checked with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestHistMean(t *testing.T) {
	before := profirt.LatencySnapshot{Count: 10, SumNs: 10_000}
	after := profirt.LatencySnapshot{Count: 14, SumNs: 30_000}
	if got := histMean(before, after); got != 5*time.Microsecond {
		t.Errorf("histMean = %v, want 5µs", got)
	}
	if got := histMean(after, after); got != 0 {
		t.Errorf("histMean with no new observations = %v, want 0", got)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	// count is how many pairs a wins over b.
	count := func(a, b []float64, lower bool) int {
		n := 0
		for i := range a {
			if better(a[i], b[i], lower) {
				n++
			}
		}
		return n
	}
	for _, c := range []struct {
		name   string
		change []float64
		lower  bool
		bound  float64
		want   string
	}{
		{"faster", scale(0.8), true, 0.1, "improved"},
		{"same", base, true, 0.1, "no worse"},
		{"slightly slower", scale(1.05), true, 0.1, "no worse"},
		{"slower", scale(1.3), true, 0.1, "worse"},
		{"lower capacity", scale(0.8), false, 0.1, "worse"},
		{"noisy", []float64{60, 140, 100, 70, 130, 100, 80, 120, 90, 110}, true, 0.1, "unresolved"},
	} {
		if got := verdict(base, c.change, count(c.change, base, c.lower), len(base), c.lower, c.bound, false); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
	// A spread-exempt metric, as setup_s is, is judged by its median
	// however wide its runs spread.
	setupA := []float64{4.5, 6.2, 3.9, 4.1, 5.5, 4.4, 9.5, 4.0, 4.6, 3.8}
	setupB := []float64{4.7, 4.9, 3.6, 5.3, 4.2, 8.7, 4.4, 4.5, 4.1, 6.0}
	for _, c := range []struct {
		name   string
		change []float64
		exempt bool
		want   string
	}{
		{"noisy, held to its spread", setupB, false, "unresolved"},
		{"noisy, exempt", setupB, true, "no worse"},
		{"noisy, exempt, 30% slower", func() []float64 {
			out := make([]float64, len(setupB))
			for i, v := range setupB {
				out[i] = v * 1.3
			}
			return out
		}(), true, "worse"},
	} {
		if got := verdict(setupA, c.change, count(c.change, setupA, true), len(setupA), true, 0.25, c.exempt); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
	for _, c := range []struct {
		name   string
		change []float64
		want   string
	}{
		{"faster", scale(0.8), "improved"},
		{"slower", scale(1.3), "regressed"},
		{"same", base, "-"},
		{"within the spread", scale(1.01), "-"},
	} {
		w, l := count(c.change, base, true), count(base, c.change, true)
		if got := shift(base, c.change, w, l, len(base), true); got != c.want {
			t.Errorf("%s: shift = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestSpec: BENCHMARK.json names the program's workloads in order, and
// every metric under a name BENCHMARK.json's format allows, once.
func TestSpec(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !valid.MatchString(m.Name) || seen[m.Name] || m.Unit == "" {
			t.Errorf("bad or repeated metric %q [%s]", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadOrder) {
		t.Errorf("workloads: program %v, BENCHMARK.json %v", workloadOrder, names)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
}

// TestSmoke runs every workload once at toy sizes, traced, and checks
// the result lines and the trace file: every metric BENCHMARK.json
// declares is measured, and every measured metric is declared.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the commands")
	}
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		declared[m.Name] = true
	}
	var log bytes.Buffer
	e, err := newEnv("..", 5, 2, true, &log)
	if err != nil {
		t.Fatal(err)
	}
	e.out = t.TempDir()
	runs := map[string]func(*env) (*record, error){
		"analyze-unique":   serveSpec{name: "analyze-unique", path: pathAnalyze, warmup: 2, rssAt: 4, rate: 100, openN: 20, poolRPS: 20}.run,
		"analyze-hot":      serveSpec{name: "analyze-hot", path: pathAnalyze, warmup: 16, distinct: 24, rssAt: 4, rate: 100, openN: 20}.run,
		"simulate-batch":   serveSpec{name: "simulate-batch", path: pathSimulate, warmup: 2, distinct: 4, rssAt: 4, rate: 100, openN: 20}.run,
		"experiments-full": runSuite,
	}
	for _, name := range workloadOrder {
		rec, err := runs[name](e)
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, log.String())
		}
		for k := range rec.measured() {
			if !declared[k] {
				t.Errorf("%s: metric %s is measured but not in BENCHMARK.json", name, k)
			}
		}
		for _, traced := range []bool{false, true} {
			res, err := rec.result(spec, traced)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s: %+v (first error %q)", name, res, rec.Detail.FirstError)
			}
			for k, v := range res.Metrics {
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: %s = %v", name, k, v.Value)
				}
			}
		}
		checkTrace(t, filepath.Join(e.out, "trace-"+name+"-5.json"))
	}
}

// checkTrace parses a trace as Chrome trace_event JSON and checks that
// the program's Engine spans nest under the benchmark's handler spans.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				Span, Parent uint64
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("%s: not trace_event JSON: %v", path, err)
	}
	names := map[uint64]string{}
	for _, ev := range tf.TraceEvents {
		names[ev.Args.Span] = ev.Name
	}
	nested := 0
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("%s: event %q has phase %q", path, ev.Name, ev.Ph)
		}
		if strings.HasPrefix(ev.Name, "engine.") && names[ev.Args.Parent] == "bench.serve.handler" {
			nested++
		}
	}
	if nested == 0 {
		t.Fatalf("%s: no engine span nests under a bench.serve.handler span", path)
	}
}
