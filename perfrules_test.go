//go:build perfrules

package profirt_test

import "testing"

// TestPerfRules holds the two timing rules that compare benchmarks of
// one run with each other, so a uniformly slow host can neither mask
// nor fake them:
//
//   - the instrumented Engine costs at most 5% ns/op over the
//     uninstrumented one on the warm-cache AnalyzeNetworks batch
//     (BenchmarkEngineObsOn vs Off; the allocation half is
//     TestObservabilityAddsNoAllocations);
//   - the cached E1–E13 quick suite runs at most 10% slower than the
//     uncached one at the same pool width (BenchmarkAllExperimentsCached
//     vs Parallel, both GOMAXPROCS wide): a cache must never cost more
//     than it saves. Against the width-1 Sequential run the rule would
//     pass on parallelism alone.
//
// Wall-clock rules need a quiet host, so the file sits behind the
// perfrules build tag: `make perf-rules` runs it.
func TestPerfRules(t *testing.T) {
	for _, r := range []struct {
		name       string
		base, cand func(*testing.B)
		repeats    int
		slackPct   float64
	}{
		{"EngineObsOn vs EngineObsOff", BenchmarkEngineObsOff, BenchmarkEngineObsOn, 5, 5},
		{"AllExperimentsCached vs AllExperimentsParallel", BenchmarkAllExperimentsParallel, BenchmarkAllExperimentsCached, 3, 10},
	} {
		t.Run(r.name, func(t *testing.T) {
			base, cand := minNsPerOp(t, r.base, r.cand, r.repeats)
			pct := float64(cand-base) / float64(base) * 100
			t.Logf("%d vs %d ns/op (minimum of %d runs each): %+.1f%%", cand, base, r.repeats, pct)
			if pct > r.slackPct {
				t.Errorf("%+.1f%% ns/op, past the %.0f%% slack", pct, r.slackPct)
			}
		})
	}
}

// minNsPerOp runs a and b n times each, alternating which goes first,
// and returns each one's minimum ns/op. Interference only ever adds
// time, so the minimum is the sample closest to the code's own cost;
// alternating spreads slow host drift over both.
func minNsPerOp(t *testing.T, a, b func(*testing.B), n int) (minA, minB int64) {
	run := func(f func(*testing.B), best *int64) {
		res := testing.Benchmark(f)
		if res.N == 0 {
			t.Fatal("benchmark failed")
		}
		if ns := res.NsPerOp(); *best == 0 || ns < *best {
			*best = ns
		}
	}
	for i := range n {
		if i%2 == 0 {
			run(a, &minA)
			run(b, &minB)
		} else {
			run(b, &minB)
			run(a, &minA)
		}
	}
	return minA, minB
}
