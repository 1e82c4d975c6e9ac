package profirt_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"profirt"
)

// These tests pin the Engine lifecycle contract the serving layer
// depends on: Close drains in-flight calls instead of yanking the pool
// from under them (the old behaviour panicked inside the pool),
// late submissions get ErrEngineClosed, and double-Close is a no-op.
// Run under -race (make ci) this file is the data-race gate for
// submit-during-Close.

// TestEngineCloseRejectsNewCalls: every method on a closed Engine
// returns ErrEngineClosed — no panic, no pool interaction.
func TestEngineCloseRejectsNewCalls(t *testing.T) {
	eng := profirt.NewEngine(profirt.WithParallelism(2))
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := eng.AnalyzeNetworks(ctx, nil, profirt.AnalyzeOptions{}); !errors.Is(err, profirt.ErrEngineClosed) {
		t.Fatalf("AnalyzeNetworks after Close: err = %v, want ErrEngineClosed", err)
	}
	if _, err := eng.AnalyzeTopologies(ctx, nil, profirt.TopologyAnalyzeOptions{}); !errors.Is(err, profirt.ErrEngineClosed) {
		t.Fatalf("AnalyzeTopologies after Close: err = %v, want ErrEngineClosed", err)
	}
	if _, err := eng.AnalyzeHolistic(ctx, profirt.HolisticConfig{}); !errors.Is(err, profirt.ErrEngineClosed) {
		t.Fatalf("AnalyzeHolistic after Close: err = %v, want ErrEngineClosed", err)
	}
	if _, err := eng.Simulate(ctx, profirt.SimConfig{}); !errors.Is(err, profirt.ErrEngineClosed) {
		t.Fatalf("Simulate after Close: err = %v, want ErrEngineClosed", err)
	}
	if _, err := eng.SimulateBatch(ctx, nil, profirt.SimulateOptions{}); !errors.Is(err, profirt.ErrEngineClosed) {
		t.Fatalf("SimulateBatch after Close: err = %v, want ErrEngineClosed", err)
	}
	if _, err := eng.SimulateTopology(ctx, profirt.SimTopology{}, profirt.TopologySimulateOptions{}); !errors.Is(err, profirt.ErrEngineClosed) {
		t.Fatalf("SimulateTopology after Close: err = %v, want ErrEngineClosed", err)
	}
	if _, err := eng.RunCampaign(ctx, nil, profirt.CampaignOptions{}); !errors.Is(err, profirt.ErrEngineClosed) {
		t.Fatalf("RunCampaign after Close: err = %v, want ErrEngineClosed", err)
	}
	if _, err := eng.RunExperiments(ctx, nil, profirt.ExperimentOptions{}); !errors.Is(err, profirt.ErrEngineClosed) {
		t.Fatalf("RunExperiments after Close: err = %v, want ErrEngineClosed", err)
	}
	// Stats stays callable on a closed Engine (a draining server's last
	// metrics scrape).
	if st := eng.Stats(); !st.Closed || !st.Pool.Closed {
		t.Fatalf("Stats after Close: %+v, want Closed", st)
	}
}

// TestEngineDoubleCloseIdempotent: any number of Closes, from any
// number of goroutines, all return nil.
func TestEngineDoubleCloseIdempotent(t *testing.T) {
	eng := profirt.NewEngine(profirt.WithParallelism(1))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := eng.Close(); err != nil {
				t.Errorf("concurrent Close returned %v", err)
			}
		}()
	}
	wg.Wait()
	if err := eng.Close(); err != nil {
		t.Fatalf("Close after Close returned %v", err)
	}
}

// TestEngineSubmitDuringClose is the regression for the shutdown
// panic: many goroutines hammer AnalyzeNetworks and SimulateBatch
// while another calls Close concurrently. Every call must either
// complete with full, correct results (admitted before Close) or fail
// with ErrEngineClosed — never panic, never return partial output.
func TestEngineSubmitDuringClose(t *testing.T) {
	nets := equivNets(163, 12, 2)
	cfgs := equivSimConfigs(167, 6)
	wantNets := refAnalyzeNetworks(nets)
	wantSims := refSimulateBatch(cfgs, 11)

	for round := 0; round < 8; round++ {
		eng := profirt.NewEngine(profirt.WithParallelism(2))
		const callers = 8
		start := make(chan struct{})
		errs := make([]error, callers)
		var wg sync.WaitGroup
		for w := 0; w < callers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if w%2 == 0 {
					got, err := eng.AnalyzeNetworks(context.Background(), nets, profirt.AnalyzeOptions{})
					if err == nil && !reflect.DeepEqual(got, wantNets) {
						errs[w] = errAdmittedButWrong
					} else if err != nil && !errors.Is(err, profirt.ErrEngineClosed) {
						errs[w] = err
					}
				} else {
					got, err := eng.SimulateBatch(context.Background(), cfgs, profirt.SimulateOptions{Seed: 11})
					if err == nil && !reflect.DeepEqual(got, wantSims) {
						errs[w] = errAdmittedButWrong
					} else if err != nil && !errors.Is(err, profirt.ErrEngineClosed) {
						errs[w] = err
					}
				}
			}()
		}
		closed := make(chan error, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			closed <- eng.Close()
		}()
		close(start)
		wg.Wait()
		if err := <-closed; err != nil {
			t.Fatalf("round %d: Close returned %v", round, err)
		}
		for w, err := range errs {
			if err != nil {
				t.Fatalf("round %d caller %d: %v", round, w, err)
			}
		}
	}
}

var errAdmittedButWrong = errors.New("call admitted before Close returned wrong results")

// TestEngineStatsCounts: the per-op counters and pool counters move
// when methods run.
func TestEngineStatsCounts(t *testing.T) {
	nets := equivNets(173, 6, 2)
	eng := profirt.NewEngine(profirt.WithParallelism(2), profirt.WithCache(profirt.NewAnalysisCache(0)))
	defer eng.Close()
	if st := eng.Stats(); st.Ops.AnalyzeNetworks != 0 || st.Pool.Workers != 2 || st.Closed {
		t.Fatalf("fresh Engine stats: %+v", st)
	}
	if _, err := eng.AnalyzeNetworks(context.Background(), nets, profirt.AnalyzeOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AnalyzeNetworks(context.Background(), nets, profirt.AnalyzeOptions{}); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Ops.AnalyzeNetworks != 2 {
		t.Fatalf("AnalyzeNetworks counter = %d, want 2", st.Ops.AnalyzeNetworks)
	}
	if st.Pool.Jobs == 0 || st.Pool.Submissions == 0 {
		t.Fatalf("pool counters never moved: %+v", st.Pool)
	}
	if st.InFlightCalls != 0 {
		t.Fatalf("InFlightCalls = %d after calls returned", st.InFlightCalls)
	}
	if st.Cache.Misses == 0 {
		t.Fatalf("cache stats never moved: %+v", st.Cache)
	}
	if st.Cache.Hits == 0 {
		t.Fatalf("repeated batch produced no cache hits: %+v", st.Cache)
	}
}
