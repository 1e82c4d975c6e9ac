package cpusim

import (
	"math/rand"
	"testing"

	"profirt/internal/sched"
	"profirt/internal/timeunit"
)

func task(c, d, t Ticks) sched.Task {
	return sched.Task{Name: "t", C: c, D: d, T: t}
}

func TestPolicyString(t *testing.T) {
	names := map[Policy]string{
		FPPreemptive:     "FP/preemptive",
		FPNonPreemptive:  "FP/non-preemptive",
		EDFPreemptive:    "EDF/preemptive",
		EDFNonPreemptive: "EDF/non-preemptive",
		Policy(99):       "Policy(99)",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
	}
}

func TestSingleTaskRuns(t *testing.T) {
	ts := sched.TaskSet{task(2, 10, 10)}
	for _, pol := range []Policy{FPPreemptive, FPNonPreemptive, EDFPreemptive, EDFNonPreemptive} {
		res, err := Run(ts, Options{Policy: pol, Horizon: 100})
		if err != nil {
			t.Fatal(err)
		}
		st := res.PerTask[0]
		if st.Released != 10 {
			t.Errorf("%v: released %d, want 10", pol, st.Released)
		}
		if st.Completed != 10 {
			t.Errorf("%v: completed %d, want 10", pol, st.Completed)
		}
		if st.WorstResponse != 2 {
			t.Errorf("%v: worst %v, want 2", pol, st.WorstResponse)
		}
		if st.Missed != 0 {
			t.Errorf("%v: missed %d, want 0", pol, st.Missed)
		}
		if res.Idle != 100-20 {
			t.Errorf("%v: idle %v, want 80", pol, res.Idle)
		}
	}
}

func TestInvalidInputs(t *testing.T) {
	if _, err := Run(sched.TaskSet{}, Options{}); err == nil {
		t.Error("empty set must error")
	}
	ts := sched.TaskSet{task(1, 5, 5)}
	if _, err := Run(ts, Options{Offsets: []Ticks{1, 2}}); err == nil {
		t.Error("offset length mismatch must error")
	}
}

// Two tasks, synchronous, preemptive FP: classic interleaving worked by
// hand. t1: C=2 T=5; t2: C=4 T=10 (RM order).
// Timeline: t1 [0,2], t2 [2,5)+[7? no: t1 releases at 5, preempts...
// t2 runs [2,5], t1 [5,7], t2 [7,8]. R2 = 8.
func TestPreemptiveInterleaving(t *testing.T) {
	ts := sched.TaskSet{task(2, 5, 5), task(4, 10, 10)}
	res, err := Run(ts, Options{Policy: FPPreemptive, Horizon: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PerTask[1].WorstResponse; got != 8 {
		t.Errorf("R2 = %v, want 8", got)
	}
	if res.Preemptions == 0 {
		t.Error("expected at least one preemption")
	}
}

// Non-preemptive blocking: lp starts first (only job at t=0 if hp is
// offset), hp must wait for it to finish.
func TestNonPreemptiveBlocking(t *testing.T) {
	ts := sched.TaskSet{task(1, 10, 10), task(5, 20, 20)}
	// hp offset 1 so lp (index 1) grabs the processor at 0.
	res, err := Run(ts, Options{
		Policy:  FPNonPreemptive,
		Horizon: 20,
		Offsets: []Ticks{1, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	// lp runs [0,5]; hp released at 1 waits until 5, runs [5,6]: R = 5.
	if got := res.PerTask[0].WorstResponse; got != 5 {
		t.Errorf("hp worst = %v, want 5", got)
	}
	if res.Preemptions != 0 {
		t.Error("non-preemptive run must have no preemptions")
	}
}

// EDF preemptive on the hand-worked example from the sched tests:
// t1: C=2 D=4 T=6; t2: C=3 D=9 T=9 ⇒ synchronous R2 = 5.
func TestEDFSynchronous(t *testing.T) {
	ts := sched.TaskSet{task(2, 4, 6), task(3, 9, 9)}
	res, err := Run(ts, Options{Policy: EDFPreemptive, Horizon: 18})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PerTask[1].WorstResponse; got != 5 {
		t.Errorf("R2 = %v, want 5", got)
	}
}

func TestOverloadReportsMisses(t *testing.T) {
	ts := sched.TaskSet{task(3, 4, 4), task(3, 6, 6)} // U = 1.25
	for _, pol := range []Policy{FPPreemptive, EDFPreemptive, FPNonPreemptive, EDFNonPreemptive} {
		res, err := Run(ts, Options{Policy: pol, Horizon: 200})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AnyMiss() {
			t.Errorf("%v: overload must miss deadlines", pol)
		}
	}
}

func TestJitterModes(t *testing.T) {
	ts := sched.TaskSet{
		{Name: "j", C: 1, D: 10, T: 10, J: 4},
		{Name: "p", C: 2, D: 20, T: 20},
	}
	// Adversarial: first job of "j" is ready at 4 but its deadline
	// anchor stays 0, so its response includes the jitter.
	res, err := Run(ts, Options{Policy: FPPreemptive, Horizon: 40, Jitter: JitterAdversarial})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PerTask[0].WorstResponse; got != 5 {
		t.Errorf("jittered worst = %v, want 5 (4 jitter + 1 C)", got)
	}
	// Random jitter is reproducible under a fixed seed.
	r1, err := Run(ts, Options{Policy: FPPreemptive, Horizon: 400, Jitter: JitterRandom, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(ts, Options{Policy: FPPreemptive, Horizon: 400, Jitter: JitterRandom, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if r1.PerTask[0].WorstResponse != r2.PerTask[0].WorstResponse {
		t.Error("same seed must reproduce the same run")
	}
}

func TestCensoringAtHorizon(t *testing.T) {
	// One job longer than the horizon.
	ts := sched.TaskSet{task(100, 1000, 1000)}
	res, err := Run(ts, Options{Policy: FPPreemptive, Horizon: 50})
	if err != nil {
		t.Fatal(err)
	}
	st := res.PerTask[0]
	if st.Censored != 1 || st.Completed != 0 {
		t.Errorf("censored=%d completed=%d, want 1/0", st.Censored, st.Completed)
	}
	if st.WorstResponse != 50 {
		t.Errorf("censored worst = %v, want 50 (horizon - release)", st.WorstResponse)
	}
}

// randomSet builds a constrained-deadline set with utilisation roughly
// below the given bound.
func randomSet(rng *rand.Rand, n int, maxU float64) sched.TaskSet {
	ts := make(sched.TaskSet, n)
	for i := range ts {
		c := Ticks(1 + rng.Intn(4))
		minT := float64(c) * float64(n) / maxU
		T := Ticks(minT) + Ticks(rng.Intn(30)) + 1
		if T <= c {
			T = c + 1
		}
		d := c + Ticks(rng.Intn(int(T-c))) + 1
		ts[i] = sched.Task{Name: "t", C: c, D: d, T: T}
	}
	return ts
}

// Soundness: the analytic worst-case response time upper-bounds every
// simulated response, across policies and release patterns. This is the
// central property tying Section 2's analyses to behaviour. The
// jitter-free trials run first; jittered trials (J up to T, both
// jitter realisations, synchronous and offset releases) follow from a
// separate seed. Two cases are pinned: the single task
// {C 1, D 10, T 10, J 5}, where both EDF bounds equal the adversarial
// worst case C + J, and a jittered task whose worst case sits on its
// own second release.
func TestAnalysisBoundsSimulation(t *testing.T) {
	jitterNames := []string{"none", "random", "adversarial"}
	observed, violations := 0, 0
	check := func(trial int, dm sched.TaskSet, pol Policy, bounds []Ticks, opt Options) {
		t.Helper()
		opt.Policy = pol
		opt.Horizon = 1 << 14
		res, err := Run(dm, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i, st := range res.PerTask {
			if bounds[i] == timeunit.MaxTicks {
				continue
			}
			observed++
			if st.WorstResponse > bounds[i] {
				if violations++; violations <= 10 {
					t.Errorf("trial %d %v jitter %s: task %d simulated %v > bound %v\nset: %+v offsets: %v",
						trial, pol, jitterNames[opt.Jitter], i, st.WorstResponse, bounds[i], dm, opt.Offsets)
				}
			}
		}
	}
	type combo struct {
		pol    Policy
		bounds []Ticks
	}
	combos := func(dm sched.TaskSet) []combo {
		return []combo{
			{FPPreemptive, sched.ResponseTimesFP(dm, sched.FPOptions{Preemptive: true})},
			{FPNonPreemptive, sched.ResponseTimesFP(dm, sched.FPOptions{Preemptive: false})},
			{EDFPreemptive, sched.ResponseTimesEDFPreemptive(dm)},
			{EDFNonPreemptive, sched.ResponseTimesEDFNonPreemptive(dm)},
		}
	}

	rng := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 120; trial++ {
		dm := sched.SortDM(randomSet(rng, 2+rng.Intn(3), 0.85))
		for _, cb := range combos(dm) {
			for _, offsets := range [][]Ticks{nil, randomOffsets(rng, len(dm))} {
				check(trial, dm, cb.pol, cb.bounds, Options{Offsets: offsets})
			}
		}
	}

	jrng := rand.New(rand.NewSource(54321))
	for trial := 0; trial < 120; trial++ {
		dm := sched.SortDM(randomSet(jrng, 2+jrng.Intn(3), 0.85))
		for i := range dm {
			dm[i].J = Ticks(jrng.Intn(int(dm[i].T) + 1))
		}
		for _, cb := range combos(dm) {
			for _, jit := range []JitterMode{JitterAdversarial, JitterRandom} {
				for _, offsets := range [][]Ticks{nil, randomOffsets(jrng, len(dm))} {
					check(trial, dm, cb.pol, cb.bounds, Options{Offsets: offsets, Jitter: jit, Seed: int64(trial)})
				}
			}
		}
	}
	if violations > 0 {
		t.Errorf("%d of %d bounded task observations exceed their bound", violations, observed)
	}
	t.Logf("%d bounded task observations", observed)

	single := sched.TaskSet{{Name: "j", C: 1, D: 10, T: 10, J: 5}}
	for _, cb := range combos(single)[2:] {
		res, err := Run(single, Options{Policy: cb.pol, Horizon: 100, Jitter: JitterAdversarial})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.PerTask[0].WorstResponse; cb.bounds[0] != 6 || got != 6 {
			t.Errorf("%v {C 1, D 10, T 10, J 5}: bound %v, adversarial worst %v, want both 6", cb.pol, cb.bounds[0], got)
		}
	}

	// The worst offset of a jittered task can be its own release k·T,
	// and each bound must cover these cases exactly. Preemptive: a's
	// first job is ready at 2 and runs 2–7, b runs 7–13 (deadline 19)
	// and a's job released at 10 (deadline 20) runs 13–18, a response
	// of 8. Non-preemptive: b's job released at 7 runs 8–13, a's first
	// job (ready at 10, deadline 10) 13–19 and its next (deadline 25)
	// 19–25, so b's job released at 17 (deadline 25) runs 25–30, a
	// response of 13.
	for _, c := range []struct {
		pol     Policy
		ts      sched.TaskSet
		offsets []Ticks
		task    int
		want    Ticks
	}{
		{EDFPreemptive, sched.TaskSet{{Name: "a", C: 5, D: 10, T: 10, J: 2}, {Name: "b", C: 6, D: 17, T: 100}}, []Ticks{0, 2}, 0, 8},
		{EDFNonPreemptive, sched.TaskSet{{Name: "a", C: 6, D: 10, T: 15, J: 10}, {Name: "b", C: 5, D: 8, T: 10, J: 1}}, []Ticks{0, 7}, 1, 13},
	} {
		res, err := Run(c.ts, Options{Policy: c.pol, Offsets: c.offsets, Horizon: 100, Jitter: JitterAdversarial})
		if err != nil {
			t.Fatal(err)
		}
		if got, bound := res.PerTask[c.task].WorstResponse, combos(c.ts)[c.pol].bounds[c.task]; got != c.want || bound != c.want {
			t.Errorf("%v %+v: task %d bound %v, adversarial worst %v, want both %v", c.pol, c.ts, c.task, bound, got, c.want)
		}
	}
}

// The job of "a" released at 360 becomes ready at 363, while "b" runs
// non-preemptively until 366; the job released at 366 is ready at
// once. Queued by readiness, the older job starts first and completes
// by its bound; queued behind the newer one it would finish at 370,
// a response of 10 against the bound of 9.
func TestParkedJobsQueueInReadinessOrder(t *testing.T) {
	ts := sched.TaskSet{{Name: "a", C: 2, D: 6, T: 6, J: 3}, {Name: "b", C: 4, D: 7, T: 39, J: 11}}
	bounds := sched.ResponseTimesFP(ts, sched.FPOptions{})
	if bounds[0] != 9 {
		t.Fatalf("bound of a = %v, want 9", bounds[0])
	}
	res, err := Run(ts, Options{Policy: FPNonPreemptive, Jitter: JitterRandom, Seed: 3, Horizon: 400})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PerTask[0].WorstResponse; got > bounds[0] {
		t.Errorf("a: simulated %v > bound %v", got, bounds[0])
	}
}

func randomOffsets(rng *rand.Rand, n int) []Ticks {
	out := make([]Ticks, n)
	for i := range out {
		out[i] = Ticks(rng.Intn(20))
	}
	return out
}

// Exactness at the critical instant: for preemptive FP with synchronous
// release, the simulation should *attain* the analytic response time of
// the lowest-priority task when the set is schedulable.
func TestCriticalInstantTightness(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	tight := 0
	for trial := 0; trial < 60; trial++ {
		ts := randomSet(rng, 3, 0.8)
		for i := range ts {
			ts[i].D = ts[i].T // implicit deadlines for clean comparison
		}
		rm := sched.SortRM(ts)
		ok, bounds := sched.FPSchedulable(rm, sched.FPOptions{Preemptive: true})
		if !ok {
			continue
		}
		res, err := Run(rm, Options{Policy: FPPreemptive})
		if err != nil {
			t.Fatal(err)
		}
		last := len(rm) - 1
		if res.PerTask[last].WorstResponse == bounds[last] {
			tight++
		} else if res.PerTask[last].WorstResponse > bounds[last] {
			t.Fatalf("simulation exceeded bound")
		}
	}
	if tight == 0 {
		t.Error("analysis never tight at critical instant — suspicious")
	}
}

// Deadline misses must imply the analysis also rejects (contrapositive
// of soundness), for the exact analyses.
func TestNoMissWhenAnalysisAccepts(t *testing.T) {
	rng := rand.New(rand.NewSource(31415))
	for trial := 0; trial < 100; trial++ {
		ts := randomSet(rng, 3, 0.95)
		dm := sched.SortDM(ts)
		ok, _ := sched.FPSchedulable(dm, sched.FPOptions{Preemptive: false})
		if !ok {
			continue
		}
		res, err := Run(dm, Options{Policy: FPNonPreemptive, Horizon: 1 << 15})
		if err != nil {
			t.Fatal(err)
		}
		if res.AnyMiss() {
			t.Fatalf("trial %d: analysis accepted but simulation missed: %+v", trial, dm)
		}
	}
}
