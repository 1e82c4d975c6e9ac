package profibus

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"profirt/internal/ap"
	"profirt/internal/fdl"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata")

const (
	simVectorSeed   = 20
	simVectorCases  = 300
	simVectorGolden = "sim_results.golden"
)

// simVectorCase draws one config of the golden corpus. A ring holds
// one to four masters, each with its own dispatcher, so most rings mix
// FCFS, DM and EDF. Streams are high or low priority, periodic with
// random offsets and jitter up to T, or follow an explicit release
// list, some of it past the horizon. A third of the configs fail
// cycle attempts with up to three retries. GapFactor runs 0–4, and
// masters and slaves share the addresses 1–40, so a GAP poll finds a
// slave or times out. Every jitter mode appears, and traces are on for
// the whole run or for single streams.
func simVectorCase(rng *rand.Rand) Config {
	cfg := Config{
		Bus:         fdl.DefaultBusParams(),
		TTR:         Ticks(200 + rng.Intn(8_000)),
		Horizon:     Ticks(20_000 + rng.Intn(180_000)),
		Jitter:      JitterMode(rng.Intn(3)),
		Seed:        rng.Int63(),
		GapFactor:   rng.Intn(5),
		RecordTrace: rng.Intn(4) == 0,
	}
	cfg.Bus.MaxRetry = rng.Intn(4)
	if rng.Intn(3) == 0 {
		cfg.Faults.CycleFailProb = 0.05 + 0.4*rng.Float64()
	}
	addrs := rng.Perm(40)
	nm, ns := 1+rng.Intn(4), 1+rng.Intn(3)
	for _, a := range addrs[nm : nm+ns] {
		cfg.Slaves = append(cfg.Slaves, SlaveConfig{Addr: byte(a + 1), TSDR: Ticks(rng.Intn(80))})
	}
	masterAddrs := slices.Clone(addrs[:nm])
	slices.Sort(masterAddrs)
	for _, a := range masterAddrs {
		m := MasterConfig{Addr: byte(a + 1), Dispatcher: ap.Policy(rng.Intn(3))}
		for j := range rng.Intn(5) {
			period := Ticks(1_000 + rng.Intn(40_000))
			st := StreamConfig{
				Name:      fmt.Sprintf("s%d", j),
				Slave:     cfg.Slaves[rng.Intn(ns)].Addr,
				High:      rng.Intn(4) != 0,
				Period:    period,
				Deadline:  period/4 + Ticks(rng.Int63n(int64(2*period))),
				ReqBytes:  rng.Intn(33),
				RespBytes: rng.Intn(33),
				Trace:     rng.Intn(4) == 0,
			}
			if rng.Intn(2) == 0 {
				st.Jitter = Ticks(rng.Int63n(int64(period) + 1))
			}
			if rng.Intn(2) == 0 {
				st.Offset = Ticks(rng.Int63n(int64(period)))
			}
			if rng.Intn(6) == 0 {
				st.Releases = []Ticks{}
				for range rng.Intn(12) {
					st.Releases = append(st.Releases, Ticks(rng.Int63n(int64(cfg.Horizon)*5/4)))
				}
				slices.Sort(st.Releases)
			}
			m.Streams = append(m.Streams, st)
		}
		cfg.Masters = append(cfg.Masters, m)
	}
	return cfg
}

// traceDigest renders a cycle trace as its length and, when non-empty,
// an FNV-1a digest of every record.
func traceDigest(trace []CompletionRecord) string {
	if len(trace) == 0 {
		return "0"
	}
	h := fnv.New64a()
	var buf [17]byte
	for _, r := range trace {
		binary.LittleEndian.PutUint64(buf[0:], uint64(r.Release))
		binary.LittleEndian.PutUint64(buf[8:], uint64(r.Completed))
		buf[16] = 0
		if r.Failed {
			buf[16] = 1
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("%d/%016x", len(trace), h.Sum64())
}

// simVectorFeatures is the feature matrix the corpus must exercise:
// renderSimVectors marks each one some run reached.
var simVectorFeatures = []string{
	"FCFS, DM and EDF in one ring", "low-priority cycles", "retries", "failed cycles",
	"GAP polls at GapFactor 1", "GAP polls at GapFactor 2", "GAP polls at GapFactor 3", "GAP polls at GapFactor 4",
	"jitter mode 0", "jitter mode 1", "jitter mode 2", "offsets", "explicit releases",
	"whole-run traces", "per-stream traces", "misses", "censored requests", "TTH overruns", "late tokens",
}

// renderSimVectors simulates every corpus config and writes every
// Result field: one line per run, master and stream, each prefixed by
// the case number. It also returns which of simVectorFeatures the runs
// exercised.
func renderSimVectors() ([]byte, map[string]bool, error) {
	rng := rand.New(rand.NewSource(simVectorSeed))
	covered := map[string]bool{}
	mark := func(feature string, ok bool) {
		if ok {
			covered[feature] = true
		}
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "# profibus.Simulate results of %d configs (seed %d):\n", simVectorCases, simVectorSeed)
	b.WriteString("# k horizon Horizon passes TokenPasses\n")
	b.WriteString("# k m<i> TokenArrivals WorstTRR SumTRR TTHOverruns LateTokens HighCycles LowCycles GapPolls\n")
	b.WriteString("# k m<i> s<j> Released Completed Failed Missed Censored WorstResponse TotalResponse Retries len(Trace)/digest\n")
	b.WriteString("# Regenerate with: go test ./internal/profibus -run TestSimulationVectors -update\n")
	for k := range simVectorCases {
		cfg := simVectorCase(rng)
		res, err := Simulate(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("case %d: %w", k, err)
		}
		policies := map[ap.Policy]bool{}
		for _, mc := range cfg.Masters {
			if len(mc.Streams) > 0 {
				policies[mc.Dispatcher] = true
			}
			for _, sc := range mc.Streams {
				mark(fmt.Sprintf("jitter mode %d", cfg.Jitter), sc.Jitter > 0 && sc.Releases == nil)
				mark("offsets", sc.Offset > 0 && sc.Releases == nil)
				mark("explicit releases", sc.Releases != nil)
			}
		}
		mark("FCFS, DM and EDF in one ring", len(policies) == 3)
		fmt.Fprintf(&b, "%d horizon %d passes %d\n", k, res.Horizon, res.TokenPasses)
		for mi, m := range res.PerMaster {
			fmt.Fprintf(&b, "%d m%d %d %d %d %d %d %d %d %d\n", k, mi,
				m.TokenArrivals, m.WorstTRR, m.SumTRR, m.TTHOverruns, m.LateTokens, m.HighCycles, m.LowCycles, m.GapPolls)
			mark("low-priority cycles", m.LowCycles > 0)
			mark(fmt.Sprintf("GAP polls at GapFactor %d", cfg.GapFactor), m.GapPolls > 0)
			mark("TTH overruns", m.TTHOverruns > 0)
			mark("late tokens", m.LateTokens > 0)
			for si, s := range m.PerStream {
				fmt.Fprintf(&b, "%d m%d s%d %d %d %d %d %d %d %d %d %s\n", k, mi, si,
					s.Released, s.Completed, s.Failed, s.Missed, s.Censored, s.WorstResponse, s.TotalResponse, s.Retries, traceDigest(s.Trace))
				mark("retries", s.Retries > 0)
				mark("failed cycles", s.Failed > 0)
				mark("misses", s.Missed > 0)
				mark("censored requests", s.Censored > 0)
				mark("whole-run traces", len(s.Trace) > 0 && cfg.RecordTrace)
				mark("per-stream traces", len(s.Trace) > 0 && !cfg.RecordTrace)
			}
		}
	}
	return b.Bytes(), covered, nil
}

// TestSimulationVectors pins every field of profibus.Simulate's Result
// on a seeded corpus that covers the simulator's feature matrix,
// against testdata/sim_results.golden: every line must match byte for
// byte. Traces are pinned by length and digest.
func TestSimulationVectors(t *testing.T) {
	// renderSimVectors names every field; one added to a result type
	// must be added there too.
	for _, c := range []struct {
		typ    reflect.Type
		fields int
	}{
		{reflect.TypeFor[Result](), 3}, {reflect.TypeFor[MasterStats](), 9},
		{reflect.TypeFor[StreamStats](), 9}, {reflect.TypeFor[CompletionRecord](), 3},
	} {
		if n := c.typ.NumField(); n != c.fields {
			t.Fatalf("%v has %d fields; the golden records %d", c.typ, n, c.fields)
		}
	}
	got, covered, err := renderSimVectors()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range simVectorFeatures {
		if !covered[f] {
			t.Errorf("the corpus no longer exercises %s", f)
		}
	}
	path := filepath.Join("testdata", simVectorGolden)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	gotLines := strings.Split(string(got), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden has %d lines, corpus renders %d", len(wantLines), len(gotLines))
	}
	failures := 0
	for ln, g := range gotLines {
		if w := wantLines[ln]; g != w {
			if failures++; failures <= 20 {
				t.Errorf("line %d:\n got %s\nwant %s", ln+1, g, w)
			}
		}
	}
	if failures > 20 {
		t.Errorf("… %d mismatched lines in total", failures)
	}
}
