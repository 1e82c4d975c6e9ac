//go:build !race

package profirt_test

import (
	"context"
	"testing"

	"profirt"
)

// TestObservabilityAddsNoAllocations holds the allocation half of the
// observability rule: on the hottest instrumented path, a warm-cache
// AnalyzeNetworks batch on a width-1 Engine (the path
// BenchmarkEngineObsOn/Off time), the instrumented Engine allocates
// exactly as much per call as the uninstrumented one. The timing half
// is TestPerfRules (`make perf-rules`). The file is built without the
// race detector, under which sync.Pool drops items at random and the
// two counts stop being comparable.
func TestObservabilityAddsNoAllocations(t *testing.T) {
	nets := benchCachedNets()
	allocs := func(enabled bool) float64 {
		eng := profirt.NewEngine(
			profirt.WithParallelism(1),
			profirt.WithCache(profirt.NewAnalysisCache(0)),
			profirt.WithObservability(enabled),
		)
		defer eng.Close()
		analyze := func() {
			if _, err := eng.AnalyzeNetworks(context.Background(), nets, profirt.AnalyzeOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		analyze() // warm the cache
		return testing.AllocsPerRun(50, analyze)
	}
	off, on := allocs(false), allocs(true)
	if on != off {
		t.Errorf("AnalyzeNetworks allocates %.0f times per call with observability on, %.0f with it off", on, off)
	}
}
