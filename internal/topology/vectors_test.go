package topology

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"profirt/internal/ap"
	"profirt/internal/core"
	"profirt/internal/memo"
	"profirt/internal/profibus"
	"profirt/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata")

const (
	topoVectorSeed   = 23
	topoVectorCases  = 200
	topoVectorGolden = "topology_results.golden"
)

// topoVectorCase draws one topology of the golden corpus: two to four
// segments, each a workload.StreamSet ring of one to three masters
// with one to three high-priority streams, low-priority load on about
// half of them, and one dispatcher per segment except that one segment
// in four gives each master its own. Some rings fail cycle attempts.
// Relay chains of depth one to three run over fresh streams, so the
// chain graph stays acyclic and every target is fed once; bridges get
// random latencies and relays random deadlines. All segments share
// one short horizon.
func topoVectorCase(rng *rand.Rand) Topology {
	st := Topology{Seed: rng.Int63()}
	horizon := Ticks(60_000 + rng.Intn(140_000))
	nseg := 2 + rng.Intn(3)
	type endpoint struct{ seg, name string }
	var free [][]string // unused high-priority stream names per segment
	for si := range nseg {
		p := workload.DefaultStreamSetParams()
		p.Masters = 1 + rng.Intn(3)
		p.StreamsPerMaster = 1 + rng.Intn(3)
		p.TTR = Ticks(1_000 + rng.Intn(6_000))
		p.LowPriorityLoad = rng.Intn(2) == 0
		p.Dispatcher = ap.Policy(rng.Intn(3))
		_, cfg := workload.StreamSet(rng, p)
		cfg.Horizon = horizon
		cfg.Jitter = profibus.JitterMode(rng.Intn(3))
		if rng.Intn(4) == 0 {
			for mi := range cfg.Masters {
				cfg.Masters[mi].Dispatcher = ap.Policy(rng.Intn(3))
			}
		}
		if rng.Intn(3) == 0 {
			cfg.Faults.CycleFailProb = 0.05 + 0.3*rng.Float64()
		}
		var names []string
		for _, m := range cfg.Masters {
			for _, sc := range m.Streams {
				if sc.High {
					names = append(names, sc.Name)
				}
			}
		}
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		free = append(free, names)
		st.Segments = append(st.Segments, Segment{Name: fmt.Sprintf("seg%d", si), Cfg: cfg})
	}
	take := func(seg int) (endpoint, bool) {
		if len(free[seg]) == 0 {
			return endpoint{}, false
		}
		name := free[seg][0]
		free[seg] = free[seg][1:]
		return endpoint{seg: st.Segments[seg].Name, name: name}, true
	}
	bridgeOf := map[[2]string]int{}
	for c := range 1 + rng.Intn(2) {
		seg := rng.Intn(nseg)
		from, ok := take(seg)
		if !ok {
			continue
		}
		for hop := range 1 + rng.Intn(3) {
			next := (seg + 1 + rng.Intn(nseg-1)) % nseg
			to, ok := take(next)
			if !ok {
				break
			}
			key := [2]string{from.seg, to.seg}
			bi, seen := bridgeOf[key]
			if !seen || rng.Intn(2) == 0 {
				bi = len(st.Bridges)
				bridgeOf[key] = bi
				st.Bridges = append(st.Bridges, Bridge{
					Name: fmt.Sprintf("b%d", bi), From: from.seg, To: to.seg,
					Latency: Ticks(rng.Intn(5_000)),
				})
			}
			st.Bridges[bi].Relays = append(st.Bridges[bi].Relays, Relay{
				Name:       fmt.Sprintf("c%dh%d", c, hop),
				FromStream: from.name,
				ToStream:   to.name,
				Deadline:   Ticks(5_000 + rng.Intn(150_000)),
			})
			from, seg = to, next
		}
	}
	return st
}

// renderAnalysis writes every field of an analysis Result: one line
// for the result, one per segment with its verdicts inline, and one
// per relay, each prefixed by the case number.
func renderAnalysis(b *bytes.Buffer, k int, res Result) {
	fmt.Fprintf(b, "%d top %v %d %v\n", k, res.Converged, res.Iterations, res.Schedulable)
	for i, s := range res.Segments {
		fmt.Fprintf(b, "%d seg%d %s %v %d %v", k, i, s.Name, s.Policy, s.TokenCycle, s.Schedulable)
		for _, v := range s.Verdicts {
			fmt.Fprintf(b, " %s/%s:%d:%d:%v", v.Master, v.Stream, v.D, v.R, v.OK)
		}
		b.WriteByte('\n')
	}
	for i, r := range res.Relays {
		fmt.Fprintf(b, "%d relay%d %s %s %s/%s %s/%s %d %d %d %d %v\n", k, i, r.Bridge, r.Name,
			r.From.Segment, r.From.Stream, r.To.Segment, r.To.Stream,
			r.FromResponse, r.Latency, r.EndToEnd, r.Deadline, r.OK)
	}
}

// segmentSummary renders one segment's simulation Result as its
// master and stream counts, the summed stream counters, the token
// passes and an FNV-1a digest of every field.
func segmentSummary(res profibus.Result) string {
	var streams, released, completed, failed, missed, censored int64
	for _, m := range res.PerMaster {
		for _, s := range m.PerStream {
			streams++
			released += s.Released
			completed += s.Completed
			failed += s.Failed
			missed += s.Missed
			censored += s.Censored
		}
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", res)
	return fmt.Sprintf("%d %d %d %d %d %d %d %d %016x", len(res.PerMaster), streams,
		released, completed, failed, missed, censored, res.TokenPasses, h.Sum64())
}

// topoVectorFeatures is the feature matrix the corpus must exercise:
// renderTopoVectors marks each one some topology reached.
var topoVectorFeatures = []string{
	"FCFS segment", "DM segment", "EDF segment", "mixed-dispatcher segment",
	"low-priority traffic", "chain depth >= 2", "unschedulable relay",
	"failed relay delivery", "relay request pending at the horizon",
}

// renderTopoVectors analyses every corpus topology uncached and on one
// memo.Cache shared by the whole corpus, simulates it, and writes
// every Result and SimResult field. It also returns which of
// topoVectorFeatures the corpus exercised.
func renderTopoVectors() ([]byte, map[string]bool, error) {
	rng := rand.New(rand.NewSource(topoVectorSeed))
	cache := memo.New(0)
	covered := map[string]bool{}
	mark := func(feature string, ok bool) {
		if ok {
			covered[feature] = true
		}
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "# topology.Analyze and topology.Simulate results of %d topologies (seed %d):\n", topoVectorCases, topoVectorSeed)
	b.WriteString("# k top Converged Iterations Schedulable\n")
	b.WriteString("# k seg<i> Name Policy TokenCycle Schedulable, then Master/Stream:D:R:OK per verdict\n")
	b.WriteString("# k relay<i> Bridge Name From To FromResponse Latency EndToEnd Deadline OK\n")
	b.WriteString("# k cached FNV-1a digest of the lines above for the analysis on a shared memo.Cache\n")
	b.WriteString("# k sim Converged Rounds\n")
	b.WriteString("# k simseg<i> Name masters streams Released Completed Failed Missed Censored TokenPasses digest\n")
	b.WriteString("# k simrelay<i> Bridge Name Relayed Completed Pending Failed Missed WorstEndToEnd SumEndToEnd\n")
	b.WriteString("# Regenerate with: go test ./internal/topology -run TestTopologyVectors -update\n")
	for k := range topoVectorCases {
		st := topoVectorCase(rng)
		for _, s := range st.Segments {
			policies := map[ap.Policy]bool{}
			for _, m := range s.Cfg.Masters {
				policies[m.Dispatcher] = true
				for _, sc := range m.Streams {
					mark("low-priority traffic", !sc.High)
				}
			}
			mark("mixed-dispatcher segment", len(policies) > 1)
		}
		targets := map[streamKey]bool{}
		for _, br := range st.Bridges {
			for _, r := range br.Relays {
				targets[streamKey{seg: br.To, stream: r.ToStream}] = true
			}
		}
		for _, br := range st.Bridges {
			for _, r := range br.Relays {
				mark("chain depth >= 2", targets[streamKey{seg: br.From, stream: r.FromStream}])
			}
		}

		ana, err := Analyze(st, Options{})
		if err != nil {
			return nil, nil, fmt.Errorf("case %d: analyze: %w", k, err)
		}
		cached, err := Analyze(st, Options{Cache: cache})
		if err != nil {
			return nil, nil, fmt.Errorf("case %d: cached analyze: %w", k, err)
		}
		sim, err := Simulate(st, SimOptions{})
		if err != nil {
			return nil, nil, fmt.Errorf("case %d: simulate: %w", k, err)
		}

		renderAnalysis(&b, k, ana)
		var cb bytes.Buffer
		renderAnalysis(&cb, k, cached)
		h := fnv.New64a()
		h.Write(cb.Bytes())
		fmt.Fprintf(&b, "%d cached %016x\n", k, h.Sum64())
		for _, s := range ana.Segments {
			mark(fmt.Sprintf("%v segment", s.Policy), true)
		}
		for _, r := range ana.Relays {
			mark("unschedulable relay", !r.OK)
		}

		fmt.Fprintf(&b, "%d sim %v %d\n", k, sim.Converged, sim.Rounds)
		for i, s := range sim.Segments {
			fmt.Fprintf(&b, "%d simseg%d %s %s\n", k, i, s.Name, segmentSummary(s.Result))
		}
		for i, r := range sim.Relays {
			fmt.Fprintf(&b, "%d simrelay%d %s %s %d %d %d %d %d %d %d\n", k, i, r.Bridge, r.Name,
				r.Relayed, r.Completed, r.Pending, r.Failed, r.Missed, r.WorstEndToEnd, r.SumEndToEnd)
			mark("failed relay delivery", r.Failed > 0)
			mark("relay request pending at the horizon", r.Pending > 0)
		}
	}
	return b.Bytes(), covered, nil
}

// TestTopologyVectors pins every field of Analyze's Result (uncached
// and on a cache) and of Simulate's SimResult on a seeded corpus that
// covers the topology layer's feature matrix, against
// testdata/topology_results.golden: every line must match byte for
// byte. Segment simulation results are pinned by counts and a digest.
func TestTopologyVectors(t *testing.T) {
	// renderAnalysis and renderTopoVectors name every field; one added
	// to a result type must be added there too.
	for _, c := range []struct {
		typ    reflect.Type
		fields int
	}{
		{reflect.TypeFor[Result](), 5}, {reflect.TypeFor[SegmentReport](), 5},
		{reflect.TypeFor[core.StreamVerdict](), 5}, {reflect.TypeFor[RelayReport](), 9},
		{reflect.TypeFor[Endpoint](), 2}, {reflect.TypeFor[SimResult](), 4},
		{reflect.TypeFor[SegmentSimResult](), 2}, {reflect.TypeFor[RelaySimStats](), 9},
	} {
		if n := c.typ.NumField(); n != c.fields {
			t.Fatalf("%v has %d fields; the golden records %d", c.typ, n, c.fields)
		}
	}
	got, covered, err := renderTopoVectors()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range topoVectorFeatures {
		if !covered[f] {
			t.Errorf("the corpus no longer exercises a %s", f)
		}
	}
	path := filepath.Join("testdata", topoVectorGolden)
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
