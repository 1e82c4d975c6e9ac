package workload

import (
	"math"
	"math/rand"
	"testing"

	"profirt/internal/ap"
	"profirt/internal/core"
	"profirt/internal/profibus"
)

func TestUUniFast(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(10)
		u := 0.1 + rng.Float64()*0.9
		us := UUniFast(rng, n, u)
		if len(us) != n {
			t.Fatalf("len = %d, want %d", len(us), n)
		}
		sum := 0.0
		for _, x := range us {
			if x < -1e-12 {
				t.Fatalf("negative share %g", x)
			}
			sum += x
		}
		if math.Abs(sum-u) > 1e-9 {
			t.Fatalf("sum %g != target %g", sum, u)
		}
	}
	if UUniFast(rng, 0, 0.5) != nil {
		t.Error("n=0 must yield nil")
	}
}

func TestTaskSetGeneration(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		p := DefaultTaskSetParams(5, 0.7)
		p.DeadlineRatioMin = 0.5
		ts := TaskSet(rng, p)
		if err := ts.Validate(); err != nil {
			t.Fatalf("generated invalid set: %v", err)
		}
		for _, task := range ts {
			if task.T < p.PeriodMin || task.T > p.PeriodMax {
				t.Fatalf("period %d out of range", task.T)
			}
			if task.D > task.T || task.D < task.C {
				t.Fatalf("deadline %d out of [C=%d, T=%d]", task.D, task.C, task.T)
			}
			if task.J != 0 {
				t.Fatalf("jitter %d, want 0: the generator draws none", task.J)
			}
		}
		// Realised utilisation in the right ballpark (clamping skews).
		u := ts.Utilization()
		if u < 0.3 || u > 1.2 {
			t.Fatalf("utilisation %g wildly off target 0.7", u)
		}
	}
}

func TestTaskSetBadRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p := DefaultTaskSetParams(3, 0.5)
	p.PeriodMax = p.PeriodMin - 1
	TaskSet(rand.New(rand.NewSource(1)), p)
}

func TestStreamSetMatchedPair(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := DefaultStreamSetParams()
	p.LowPriorityLoad = true
	net, cfg := StreamSet(rng, p)
	if err := net.Validate(); err != nil {
		t.Fatalf("network invalid: %v", err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("config invalid: %v", err)
	}
	if len(net.Masters) != p.Masters || len(cfg.Masters) != p.Masters {
		t.Fatal("master counts disagree")
	}
	for k := range net.Masters {
		if net.Masters[k].NH() != p.StreamsPerMaster {
			t.Fatalf("master %d: %d high streams, want %d", k, net.Masters[k].NH(), p.StreamsPerMaster)
		}
		if net.Masters[k].LongestLow == 0 {
			t.Fatalf("master %d: low-priority load missing from model", k)
		}
		// Ch in the model matches the simulator's config-derived value.
		for s, st := range net.Masters[k].High {
			want := cfg.Masters[k].Streams[s].WorstCycleTicks(cfg.Bus)
			if st.Ch != want {
				t.Fatalf("Ch mismatch master %d stream %d: %d vs %d", k, s, st.Ch, want)
			}
			if st.D != cfg.Masters[k].Streams[s].Deadline || st.T != cfg.Masters[k].Streams[s].Period {
				t.Fatal("timing mismatch between model and config")
			}
		}
	}
}

func TestScaleDeadlines(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := DefaultStreamSetParams()
	p.LowPriorityLoad = true
	_, cfg := StreamSet(rng, p)
	c2 := ScaleDeadlines(cfg, 0.5)
	for k := range cfg.Masters {
		for s, sc := range cfg.Masters[k].Streams {
			orig, scaled := sc.Deadline, c2.Masters[k].Streams[s].Deadline
			if sc.High && scaled >= orig {
				t.Fatalf("deadline not tightened: %d -> %d", orig, scaled)
			}
			if !sc.High && scaled != orig {
				t.Fatalf("low-priority deadline scaled: %d -> %d", orig, scaled)
			}
		}
	}
	// Originals untouched.
	if cfg.Masters[0].Streams[0].Deadline == c2.Masters[0].Streams[0].Deadline {
		t.Fatal("ScaleDeadlines must copy, not mutate")
	}
}

func TestWithDispatcher(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	_, cfg := StreamSet(rng, DefaultStreamSetParams())
	c2 := WithDispatcher(cfg, ap.EDF)
	for k := range c2.Masters {
		if c2.Masters[k].Dispatcher != ap.EDF {
			t.Fatal("dispatcher not replaced")
		}
	}
	if cfg.Masters[0].Dispatcher == ap.EDF {
		t.Fatal("WithDispatcher must copy, not mutate")
	}
}

func TestDCCSCell(t *testing.T) {
	net, cfg := DCCSCell(ap.DM, 3_000)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("DCCS config invalid: %v", err)
	}
	if err := net.Validate(); err != nil {
		t.Fatalf("DCCS network invalid: %v", err)
	}
	if len(cfg.Masters) != 3 {
		t.Fatalf("masters = %d, want 3", len(cfg.Masters))
	}
	// The supervisory master must contribute low-priority load to the
	// model (it affects C_M and hence T_del).
	if net.Masters[2].LongestLow == 0 {
		t.Error("supervisory low-priority cycle missing")
	}
	// The cell actually runs.
	res, err := profibus.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for mi, m := range res.PerMaster {
		for si, st := range m.PerStream {
			if st.Released == 0 {
				t.Errorf("master %d stream %d never released", mi, si)
			}
			if st.Completed == 0 {
				t.Errorf("master %d stream %d never completed", mi, si)
			}
		}
	}
	// And the analysis applies to it end to end.
	if _, verdicts := core.DMSchedulable(net, core.DMOptions{}); len(verdicts) != 8 {
		t.Errorf("verdicts = %d, want 8 high streams", len(verdicts))
	}
}

// The cell is tuned to be the paper's headline situation at TTR ≈ 1000:
// FCFS-unschedulable (pressure loops fail Eq. 12), DM- and
// EDF-schedulable, and the simulation agrees with all three verdicts.
func TestDCCSCellHeadlineTuning(t *testing.T) {
	const ttr = 1_000
	net, _ := DCCSCell(ap.FCFS, ttr)
	if ok, _ := core.FCFSSchedulable(net); ok {
		t.Error("cell should be FCFS-unschedulable at TTR=1000")
	}
	okDM, vDM := core.DMSchedulable(net, core.DMOptions{})
	if !okDM {
		t.Errorf("cell should be DM-schedulable at TTR=1000: %+v", vDM)
	}
	okEDF, vEDF := core.EDFSchedulableNet(net, core.EDFOptions{})
	if !okEDF {
		t.Errorf("cell should be EDF-schedulable at TTR=1000: %+v", vEDF)
	}
	// Eq. 15 still admits a small positive TTR for pure FCFS.
	bound, err := core.MaxTTR(net)
	if err != nil || bound <= 0 {
		t.Errorf("Eq. 15 bound should be positive: %d, %v", bound, err)
	}
	// Simulation agreement: misses under FCFS, none under DM/EDF.
	for _, pol := range []ap.Policy{ap.FCFS, ap.DM, ap.EDF} {
		_, cfg := DCCSCell(pol, ttr)
		res, err := profibus.Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		missed := false
		for mi, m := range res.PerMaster {
			for si, st := range m.PerStream {
				if cfg.Masters[mi].Streams[si].High && st.Missed > 0 {
					missed = true
				}
			}
		}
		if pol != ap.FCFS && missed {
			t.Errorf("%v: unexpected deadline misses", pol)
		}
	}
}
