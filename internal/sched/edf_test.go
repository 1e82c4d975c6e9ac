package sched

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"profirt/internal/timeunit"
)

func TestDemandBoundHandComputed(t *testing.T) {
	// d=4, p=10, C=2 and d=8, p=20, C=5.
	ts := TaskSet{mkTask("a", 2, 4, 10), mkTask("b", 5, 8, 20)}
	cases := []struct{ t, want Ticks }{
		{0, 0},
		{3, 0},
		{4, 2},   // one deadline of a
		{8, 7},   // a@4 + b@8
		{14, 9},  // a@4,14 + b@8
		{28, 16}, // a@4,14,24 + b@8,28
	}
	for _, c := range cases {
		if got := DemandBound(ts, c.t); got != c.want {
			t.Errorf("DemandBound(%d) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestDemandBoundMonotone(t *testing.T) {
	ts := TaskSet{mkTask("a", 2, 4, 10), mkTask("b", 5, 8, 20), mkTask("c", 1, 3, 7)}
	f := func(raw uint16) bool {
		x := Ticks(raw % 500)
		return DemandBound(ts, x) <= DemandBound(ts, x+1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSynchronousBusyPeriod(t *testing.T) {
	// C=2,T=6 and C=3,T=9: L: 5 → ⌈5/6⌉2+⌈5/9⌉3 = 5. Fixed point 5.
	ts := TaskSet{mkTask("a", 2, 6, 6), mkTask("b", 3, 9, 9)}
	if got := SynchronousBusyPeriod(ts, 0); got != 5 {
		t.Errorf("L = %d, want 5", got)
	}
	// U = 1 with the first idle instant at t = 2 (arrivals at 2 start a
	// new busy period, they do not extend this one).
	full := TaskSet{mkTask("a", 1, 2, 2), mkTask("b", 1, 2, 2)}
	if got := SynchronousBusyPeriod(full, 1000); got != 2 {
		t.Errorf("U=1 L = %d, want 2", got)
	}
	// U > 1: diverges, capped at horizon.
	over := TaskSet{mkTask("a", 2, 3, 3), mkTask("b", 2, 3, 3)}
	if got := SynchronousBusyPeriod(over, 1000); got != 1000 {
		t.Errorf("saturated L = %d, want horizon 1000", got)
	}
}

func TestEDFFeasiblePreemptive(t *testing.T) {
	// Implicit deadlines at U=1: feasible under EDF.
	ts := TaskSet{mkTask("a", 2, 4, 4), mkTask("b", 4, 8, 8)}
	rep := EDFFeasiblePreemptive(ts)
	if !rep.Feasible {
		t.Errorf("U=1 implicit set must be feasible, violation at %d", rep.ViolationAt)
	}

	// Tight constrained deadlines: infeasible.
	bad := TaskSet{mkTask("a", 2, 2, 4), mkTask("b", 4, 5, 8)}
	rep = EDFFeasiblePreemptive(bad)
	if rep.Feasible {
		t.Error("over-constrained set must be infeasible")
	}
	if rep.ViolationAt == 0 {
		t.Error("violation point must be reported")
	}
	if rep.DemandAtViolation <= rep.ViolationAt {
		t.Error("demand at violation must exceed t")
	}

	// U > 1 short-circuits.
	over := TaskSet{mkTask("a", 3, 4, 4), mkTask("b", 4, 8, 8)}
	if EDFFeasiblePreemptive(over).Feasible {
		t.Error("U>1 must be infeasible")
	}
}

// TestDemandTestsUnderJitter pins the jittered cases the checkpoint
// list alone misses. A task with J ≥ D has a job whose deadline falls
// at or before the window start: h(0) = C > 0 is a violation at t = 0,
// although the first deadline instant can lie past t_max. Zheng–Shin
// must start where h first steps, min max(0, D − J), not at min D.
func TestDemandTestsUnderJitter(t *testing.T) {
	for _, tc := range []struct {
		name string
		test func(TaskSet) FeasibilityReport
		task Task
		want FeasibilityReport
	}{
		// L = ⌈(L+5)/10⌉·2 = 2; the instants D − J + kT are 8, 18, …
		// past t_max; h(0) = (⌊(0+5−3)/10⌋+1)·2 = 2 > 0.
		{"preemptive J>D", EDFFeasiblePreemptive, Task{C: 2, D: 3, T: 10, J: 5},
			FeasibilityReport{ViolationAt: 0, DemandAtViolation: 2, Checked: 1, Limit: 2}},
		// J = D: the first instant is D − J = 0 itself; h(0) = 2 > 0.
		{"preemptive J=D", EDFFeasiblePreemptive, Task{C: 2, D: 3, T: 10, J: 3},
			FeasibilityReport{ViolationAt: 0, DemandAtViolation: 2, Checked: 1, Limit: 2}},
		// L = ⌈(L+1)/3⌉·2 = 2; the only instant in [0, 2] is
		// D − J = 1 < min D = 2, where the scan starts:
		// h(1) + max C = (⌊(1+1−2)/3⌋+1)·2 + 2 = 4 > 1.
		{"Zheng-Shin step before min D", EDFFeasibleNonPreemptiveZS, Task{C: 2, D: 2, T: 3, J: 1},
			FeasibilityReport{ViolationAt: 1, DemandAtViolation: 4, Checked: 1, Limit: 2}},
		// L = ⌈(L+10)/100⌉·1 = 1 < min D = 10; the instant D − J = 0
		// holds h(0) = 1: the job released at 10 ends at 11 > D.
		{"Zheng-Shin J=D", EDFFeasibleNonPreemptiveZS, Task{C: 1, D: 10, T: 100, J: 10},
			FeasibilityReport{ViolationAt: 0, DemandAtViolation: 2, Checked: 1, Limit: 1}},
		{"George J=D", EDFFeasibleNonPreemptiveGeorge, Task{C: 1, D: 10, T: 100, J: 10},
			FeasibilityReport{ViolationAt: 0, DemandAtViolation: 1, Checked: 1, Limit: 1}},
	} {
		if got := tc.test(TaskSet{tc.task}); got != tc.want {
			t.Errorf("%s: %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

func TestEDFFeasibleConstrainedDeadlines(t *testing.T) {
	// D < T example that passes: a: C=1 D=3 T=10; b: C=2 D=6 T=10.
	ts := TaskSet{mkTask("a", 1, 3, 10), mkTask("b", 2, 6, 10)}
	if rep := EDFFeasiblePreemptive(ts); !rep.Feasible {
		t.Errorf("set should be feasible, violation at %d", rep.ViolationAt)
	}
}

func TestNonPreemptiveTestsOrdering(t *testing.T) {
	// George's Eq. 5 refines Zheng–Shin's Eq. 4: anything accepted by
	// ZS must be accepted by George. Randomised check.
	rng := rand.New(rand.NewSource(42))
	accZS, accG := 0, 0
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(3)
		ts := make(TaskSet, n)
		for i := range ts {
			c := Ticks(1 + rng.Intn(4))
			T := c*3 + Ticks(rng.Intn(30)) + 6
			d := c + Ticks(rng.Intn(int(T-c))) + 1
			ts[i] = Task{Name: "t", C: c, D: d, T: T}
		}
		zs := EDFFeasibleNonPreemptiveZS(ts).Feasible
		g := EDFFeasibleNonPreemptiveGeorge(ts).Feasible
		if zs {
			accZS++
		}
		if g {
			accG++
		}
		if zs && !g {
			t.Fatalf("trial %d: ZS accepted but George rejected: %+v", trial, ts)
		}
	}
	if accG < accZS {
		t.Errorf("George acceptance (%d) must be >= ZS acceptance (%d)", accG, accZS)
	}
	if accZS == 0 {
		t.Error("test workload degenerate: ZS accepted nothing")
	}
}

func TestNonPreemptiveGeorgeBlocking(t *testing.T) {
	// A long low-rate message with a late deadline blocks a tight one.
	// tight: C=1 D=2 T=10; long: C=5 D=50 T=50.
	// At t=2: demand 1, blocking from long = C−1 = 4 ⇒ 5 > 2: infeasible.
	ts := TaskSet{mkTask("tight", 1, 2, 10), mkTask("long", 5, 50, 50)}
	if EDFFeasibleNonPreemptiveGeorge(ts).Feasible {
		t.Error("blocking must make the tight deadline infeasible")
	}
	// With a shorter blocker it becomes feasible: C=2 ⇒ 1+1 = 2 <= 2.
	ts[1].C = 2
	if rep := EDFFeasibleNonPreemptiveGeorge(ts); !rep.Feasible {
		t.Errorf("short blocker should be feasible, violation at %d", rep.ViolationAt)
	}
}

// Hand-worked Spuri example (see package docs):
// t1: C=2 D=4 T=6; t2: C=3 D=9 T=9 ⇒ R1 = 2, R2 = 5.
func TestEDFPreemptiveResponseHandComputed(t *testing.T) {
	ts := TaskSet{mkTask("t1", 2, 4, 6), mkTask("t2", 3, 9, 9)}
	rs := ResponseTimesEDFPreemptive(ts)
	if rs[0] != 2 {
		t.Errorf("R1 = %v, want 2", rs[0])
	}
	if rs[1] != 5 {
		t.Errorf("R2 = %v, want 5", rs[1])
	}
	// J1 = 2: R1 = C1 + J1 = 4. For t2 at a = 0 the window admits
	// 1+⌊(9−4+2)/6⌋ = 2 jobs of t1, ready at 0 and 4 with deadlines 2
	// and 8: L = 3 + 2·2 = 7.
	ts[0].J = 2
	if rs := ResponseTimesEDFPreemptive(ts); rs[0] != 4 || rs[1] != 7 {
		t.Errorf("J1 = 2: R = %v, want [4 7]", rs)
	}
	// The analysed task's own job count steps at its nominal releases
	// k·T_1, not at k·T_1 − J_1. Here a jittered job of t1 is ready at
	// 2 and runs 2–7, t2 (released at 2, deadline 19) runs 7–13, and
	// t1's next job (released at 10, deadline 20) runs 13–18: a
	// response of 8. The offset a = 10 gives L = 2·5 + 6 = 16 and
	// R1 = 16 − 10 + 2 = 8.
	ts = TaskSet{{Name: "t1", C: 5, D: 10, T: 10, J: 2}, mkTask("t2", 6, 17, 100)}
	if rs := ResponseTimesEDFPreemptive(ts); rs[0] != 8 || rs[1] != 15 {
		t.Errorf("own-step case: R = %v, want [8 15]", rs)
	}
}

// Non-preemptive version of the same set: t1 can now be blocked by t2's
// already-started instance: R1 = max over a. At a=0 blocking = C2−1 = 2,
// W* = 0, L=2, r = max(2, 2+2−0) = 4.
func TestEDFNonPreemptiveResponseHandComputed(t *testing.T) {
	ts := TaskSet{mkTask("t1", 2, 4, 6), mkTask("t2", 3, 9, 9)}
	rs := ResponseTimesEDFNonPreemptive(ts)
	if rs[0] != 4 {
		t.Errorf("R1 = %v, want 4", rs[0])
	}
	// t2 at a=0: W* counts one t1 job (D1=4 ≤ 9): L = 0 + min(1+⌊0/6⌋,
	// 1+⌊5/6⌋)·2 = 2 → r = max(3, 3+2) = 5.
	if rs[1] != 5 {
		t.Errorf("R2 = %v, want 5", rs[1])
	}
	// J1 = 2: R1 = 4 + J1 = 6. t2 still starts after one t1 job, since
	// the next one is ready at 4 at the earliest: R2 = 5.
	ts[0].J = 2
	if rs := ResponseTimesEDFNonPreemptive(ts); rs[0] != 6 || rs[1] != 5 {
		t.Errorf("J1 = 2: R = %v, want [6 5]", rs)
	}
	// The own-step case of TestEDFPreemptiveResponseHandComputed: t1's
	// worst offset is a = 0, blocked by C2 − 1 = 5 (R1 = 5 + 5 + 2);
	// t2 waits for one t1 job at a = 0 (R2 = 5 + 6).
	ts = TaskSet{{Name: "t1", C: 5, D: 10, T: 10, J: 2}, mkTask("t2", 6, 17, 100)}
	if rs := ResponseTimesEDFNonPreemptive(ts); rs[0] != 12 || rs[1] != 11 {
		t.Errorf("own-step case: R = %v, want [12 11]", rs)
	}
}

func TestEDFSingleTask(t *testing.T) {
	ts := TaskSet{mkTask("only", 3, 10, 10)}
	if rs := ResponseTimesEDFPreemptive(ts); rs[0] != 3 {
		t.Errorf("preemptive single-task R = %v, want 3", rs[0])
	}
	if rs := ResponseTimesEDFNonPreemptive(ts); rs[0] != 3 {
		t.Errorf("non-preemptive single-task R = %v, want 3", rs[0])
	}
	// Jitter delays readiness, not the nominal release the response is
	// measured from: a job ready at 5 completes at 6.
	jit := TaskSet{{Name: "j", C: 1, D: 10, T: 10, J: 5}}
	if p, np := ResponseTimesEDFPreemptive(jit), ResponseTimesEDFNonPreemptive(jit); p[0] != 6 || np[0] != 6 {
		t.Errorf("jittered single-task R = %v/%v, want 6/6", p[0], np[0])
	}
}

func TestEDFResponseProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		ts := make(TaskSet, n)
		for i := range ts {
			c := Ticks(1 + rng.Intn(4))
			T := c*3 + Ticks(rng.Intn(24)) + 6
			d := c + Ticks(rng.Intn(int(T-c))) + 1
			ts[i] = Task{Name: "t", C: c, D: d, T: T}
		}
		rp := ResponseTimesEDFPreemptive(ts)
		rn := ResponseTimesEDFNonPreemptive(ts)
		for i := range ts {
			if rp[i] < ts[i].C || rn[i] < ts[i].C {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// If the response-time analysis says every deadline is met, the
// processor-demand feasibility test must agree (both are exact for
// preemptive EDF on sporadic sets).
func TestEDFResponseVsDemandConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(3)
		ts := make(TaskSet, n)
		for i := range ts {
			c := Ticks(1 + rng.Intn(3))
			T := c*3 + Ticks(rng.Intn(20)) + 4
			d := c + Ticks(rng.Intn(int(T-c))) + 1
			ts[i] = Task{Name: "t", C: c, D: d, T: T}
		}
		ok := true
		for i, r := range ResponseTimesEDFPreemptive(ts) {
			ok = ok && r <= ts[i].D
		}
		feas := EDFFeasiblePreemptive(ts).Feasible
		if ok != feas {
			t.Fatalf("trial %d: RTA says %v, demand test says %v for %+v",
				trial, ok, feas, ts)
		}
	}
	// With jitter the RTA can be pessimistic, so only one direction
	// holds: bounds within every deadline imply demand feasibility. A
	// task with J ≥ D can never meet its deadline, so every demand test
	// must reject it.
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(3)
		ts := make(TaskSet, n)
		jGeD := false
		for i := range ts {
			c := Ticks(1 + rng.Intn(3))
			T := c*3 + Ticks(rng.Intn(20)) + 4
			d := c + Ticks(rng.Intn(int(T-c))) + 1
			ts[i] = Task{Name: "t", C: c, D: d, T: T, J: Ticks(rng.Intn(int(T)))}
			jGeD = jGeD || ts[i].J >= d
		}
		ok := true
		for i, r := range ResponseTimesEDFPreemptive(ts) {
			ok = ok && r <= ts[i].D
		}
		rep := EDFFeasiblePreemptive(ts)
		if ok && !rep.Feasible {
			t.Fatalf("jittered trial %d: bounds meet every deadline but the demand test says %+v for %+v",
				trial, rep, ts)
		}
		if jGeD {
			for name, rep := range map[string]FeasibilityReport{
				"preemptive": rep,
				"George":     EDFFeasibleNonPreemptiveGeorge(ts),
				"Zheng-Shin": EDFFeasibleNonPreemptiveZS(ts),
			} {
				if rep.Feasible {
					t.Fatalf("jittered trial %d: a task with J ≥ D passed the %s test: %+v", trial, name, ts)
				}
			}
		}
	}
}

func TestEDFCandidateOffsets(t *testing.T) {
	ts := TaskSet{mkTask("t1", 2, 4, 6), mkTask("t2", 3, 9, 9)}
	// D_i = 4: from t1 {0, 6, 12}; from t2 {5, 14 > 12}.
	if as := deadlineInstants(nil, ts, 0, 4, 12); !slices.Equal(as, []Ticks{0, 5, 6, 12}) {
		t.Errorf("offsets = %v, want [0 5 6 12]", as)
	}
	// Jitter shifts the other tasks' instants by −J_j: t2 (J 7) gives
	// {−2, 7}, and negative offsets are dropped. The analysed t1 keeps
	// its unjittered steps {0, 6, 12} whatever its own J.
	ts[0].J, ts[1].J = 3, 7
	if as := deadlineInstants(nil, ts, 0, 4, 12); !slices.Equal(as, []Ticks{0, 6, 7, 12}) {
		t.Errorf("jittered offsets = %v, want [0 6 7 12]", as)
	}
	// The demand checkpoints (no analysed task, shift 0): t1 {1, 7, 13,
	// 19}, t2 {2, 11, 20}.
	if ds := deadlineInstants(nil, ts, -1, 0, 20); !slices.Equal(ds, []Ticks{1, 2, 7, 11, 13, 19, 20}) {
		t.Errorf("deadline instants = %v, want [1 2 7 11 13 19 20]", ds)
	}
	// J > D: the first instant D − J = −2 is rounded up to −2 + T = 8.
	jd := TaskSet{{Name: "j", C: 2, D: 3, T: 10, J: 5}}
	if ds := deadlineInstants(nil, jd, -1, 0, 20); !slices.Equal(ds, []Ticks{8, 18}) {
		t.Errorf("J > D deadline instants = %v, want [8 18]", ds)
	}
}

func TestEDFDivergentSetsReportMax(t *testing.T) {
	over := TaskSet{mkTask("a", 3, 4, 4), mkTask("b", 4, 8, 8)} // U > 1
	for _, nonPre := range []bool{false, true} {
		var rs []Ticks
		if nonPre {
			rs = ResponseTimesEDFNonPreemptive(over)
		} else {
			rs = ResponseTimesEDFPreemptive(over)
		}
		for i, r := range rs {
			if r != timeunit.MaxTicks {
				t.Errorf("nonPre=%v: R[%d] = %v, want MaxTicks for U>1", nonPre, i, r)
			}
		}
	}
}

func TestUtilizationExceedsOneExact(t *testing.T) {
	// 1/3 + 1/3 + 1/3 = 1 exactly; float summation would say 1.0 too,
	// but e.g. 1/10 summed ten times can drift. Use the exact check.
	ts := TaskSet{
		mkTask("a", 1, 3, 3), mkTask("b", 1, 3, 3), mkTask("c", 1, 3, 3),
	}
	if ts.UtilizationExceedsOne() {
		t.Error("U=1 must not exceed one")
	}
	ten := make(TaskSet, 10)
	for i := range ten {
		ten[i] = mkTask("x", 1, 10, 10)
	}
	if ten.UtilizationExceedsOne() {
		t.Error("10×(1/10) must not exceed one")
	}
	ten = append(ten, mkTask("y", 1, 1000, 1000))
	if !ten.UtilizationExceedsOne() {
		t.Error("1 + 1/1000 must exceed one")
	}
	if !ts.UtilizationExceedsOrEqualsOne() {
		t.Error("U=1 must satisfy >= 1")
	}
	half := TaskSet{mkTask("h", 1, 2, 2)}
	if half.UtilizationExceedsOrEqualsOne() {
		t.Error("U=0.5 must not satisfy >= 1")
	}
}
