package sched

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"profirt/internal/timeunit"
)

func TestLiuLaylandBound(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{1, 1.0},
		{2, 2 * (math.Sqrt2 - 1)},
		{3, 3 * (math.Pow(2, 1.0/3) - 1)},
	}
	for _, c := range cases {
		if got := LiuLaylandBound(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("LL(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if LiuLaylandBound(0) != 0 {
		t.Error("LL(0) should be 0")
	}
	// Monotone decreasing towards ln 2.
	prev := LiuLaylandBound(1)
	for n := 2; n <= 50; n++ {
		cur := LiuLaylandBound(n)
		if cur >= prev {
			t.Fatalf("LL not decreasing at n=%d", n)
		}
		prev = cur
	}
	if math.Abs(LiuLaylandBound(100000)-math.Ln2) > 1e-4 {
		t.Error("LL limit should approach ln 2")
	}
}

// Classic Joseph–Pandya example: the RTA converges to exact worst-case
// response times at the critical instant.
func TestResponseTimesFPPreemptiveClassic(t *testing.T) {
	ts := TaskSet{ // already RM-ordered
		mkTask("t1", 3, 7, 7),
		mkTask("t2", 3, 12, 12),
		mkTask("t3", 5, 20, 20),
	}
	rs := ResponseTimesFP(ts, FPOptions{Preemptive: true})
	want := []Ticks{3, 6, 20}
	for i := range want {
		if rs[i] != want[i] {
			t.Errorf("R[%d] = %v, want %v", i, rs[i], want[i])
		}
	}
	ok, _ := FPSchedulable(ts, FPOptions{Preemptive: true})
	if !ok {
		t.Error("set should be schedulable")
	}
}

func TestResponseTimesFPPreemptiveUnschedulable(t *testing.T) {
	// Converging but deadline-missing case: w2 = 4 + ⌈w/7⌉·4 → 12 > 10.
	ts := TaskSet{
		mkTask("t1", 4, 7, 7),
		mkTask("t2", 4, 10, 10),
	}
	rs := ResponseTimesFP(ts, FPOptions{Preemptive: true})
	if rs[0] != 4 {
		t.Errorf("R[0] = %v, want 4", rs[0])
	}
	if rs[1] != 12 {
		t.Errorf("R[1] = %v, want 12", rs[1])
	}
	ok, _ := FPSchedulable(ts, FPOptions{Preemptive: true})
	if ok {
		t.Error("deadline-missing set must be unschedulable")
	}

	// Divergent case: higher-priority utilisation is 1, so the lower
	// task's iteration never converges.
	div := TaskSet{
		mkTask("hog", 4, 4, 4),
		mkTask("starved", 1, 10, 10),
	}
	rs = ResponseTimesFP(div, FPOptions{Preemptive: true})
	if rs[1] != timeunit.MaxTicks {
		t.Errorf("starved R = %v, want MaxTicks", rs[1])
	}
}

// Non-preemptive fixture, worked by hand.
//
// Paper-literal Eq. 1–2 (⌈w/T⌉ interference):
//
//	t1: C=1 T=D=4   B1 = max(2,3) = 3, w1 = 3, R1 = 4
//	t2: C=2 T=D=6   B2 = 3, w2 = 3 + ⌈w/4⌉·1 → 4, R2 = 6
//	t3: C=3 T=D=12  B3 = 0, w3 = ⌈w/4⌉·1 + ⌈w/6⌉·2 → 3, R3 = 6
//
// Revised sound form (⌊w/T⌋+1): t2's start at w=4 coincides with t1's
// second release, which wins the dispatch, so w2 = 5 and R2 = 7
// (simulation attains 7: t3 [0,3], t1 [3,4], t1' [4,5], t2 [5,7]).
func TestResponseTimesFPNonPreemptiveHandComputed(t *testing.T) {
	ts := TaskSet{
		mkTask("t1", 1, 4, 4),
		mkTask("t2", 2, 6, 6),
		mkTask("t3", 3, 12, 12),
	}
	rs := ResponseTimesFP(ts, FPOptions{Preemptive: false})
	want := []Ticks{4, 7, 6}
	for i := range want {
		if rs[i] != want[i] {
			t.Errorf("revised R[%d] = %v, want %v", i, rs[i], want[i])
		}
	}
	lit := ResponseTimesFP(ts, FPOptions{Preemptive: false, LiteralPaperRecurrence: true})
	wantLit := []Ticks{4, 6, 6}
	for i := range wantLit {
		if lit[i] != wantLit[i] {
			t.Errorf("literal R[%d] = %v, want %v", i, lit[i], wantLit[i])
		}
	}
}

// Regression: push-through across the level-i busy period. For the set
// below, the first job of the lowest task completes at 134, but t1's
// release at 125 keeps the processor busy through t = 381, so the
// second job (released 242) starts only at 370 and responds in 139 —
// the simulator attains exactly this. A single-job analysis (even with
// floor+1 counting) reports 134 and is refuted; the revised analysis
// must examine every job in the busy period (L = 442, Q = 2).
func TestPushThroughBusyPeriod(t *testing.T) {
	ts := TaskSet{
		mkTask("t1", 61, 125, 125),
		mkTask("t2", 52, 158, 158),
		mkTask("t3", 10, 241, 241),
		mkTask("t0", 11, 242, 242),
	}
	rev := ResponseTimesFP(ts, FPOptions{Preemptive: false})
	if rev[3] != 139 {
		t.Errorf("revised R[t0] = %v, want 139 (the simulated worst case)", rev[3])
	}
	lit := ResponseTimesFP(ts, FPOptions{Preemptive: false, LiteralPaperRecurrence: true})
	if lit[3] >= 139 {
		t.Errorf("literal R[t0] = %v, expected optimistic (< 139)", lit[3])
	}
}

// Regression: the concrete counterexample (found by the cpusim
// cross-validation) where the paper-literal Eq. 1 is optimistic. A
// higher-priority job released exactly when the lowest task would start
// wins the dispatch; the literal recurrence misses it.
func TestLiteralRecurrenceOptimism(t *testing.T) {
	ts := TaskSet{
		mkTask("t0", 1, 2, 9),
		mkTask("t1", 4, 5, 29),
		mkTask("t2", 4, 6, 39),
		mkTask("t3", 4, 23, 29),
	}
	lit := ResponseTimesFP(ts, FPOptions{Preemptive: false, LiteralPaperRecurrence: true})
	rev := ResponseTimesFP(ts, FPOptions{Preemptive: false})
	if lit[3] != 13 {
		t.Errorf("literal R[3] = %v, want 13", lit[3])
	}
	if rev[3] != 14 {
		t.Errorf("revised R[3] = %v, want 14 (the simulated worst case)", rev[3])
	}
	// Revised is never below literal.
	for i := range ts {
		if rev[i] < lit[i] {
			t.Errorf("revised R[%d]=%v < literal %v", i, rev[i], lit[i])
		}
	}
}

// With zero blocking and no lower-priority tasks, the lowest-priority
// task must still account for one job of every higher-priority task
// (the w=0 spurious fixed point must not be reachable).
func TestNonPreemptiveSeedAvoidsSpuriousFixedPoint(t *testing.T) {
	ts := TaskSet{
		mkTask("hp", 5, 20, 20),
		mkTask("lp", 1, 20, 20),
	}
	rs := ResponseTimesFP(ts, FPOptions{Preemptive: false})
	// lp waits for hp's 5, then transmits 1.
	if rs[1] != 6 {
		t.Errorf("R[lp] = %v, want 6", rs[1])
	}
}

func TestJitterIncreasesResponse(t *testing.T) {
	base := TaskSet{
		mkTask("t1", 2, 10, 10),
		mkTask("t2", 4, 20, 20),
	}
	jittered := base.Clone()
	jittered[0].J = 3
	r0 := ResponseTimesFP(base, FPOptions{Preemptive: true})
	r1 := ResponseTimesFP(jittered, FPOptions{Preemptive: true})
	if r1[1] < r0[1] {
		t.Errorf("jitter must not decrease interference: %v < %v", r1[1], r0[1])
	}
	// And the jittered task's own response includes its jitter.
	if r1[0] != r0[0]+3 {
		t.Errorf("R includes own jitter: got %v want %v", r1[0], r0[0]+3)
	}
}

func TestExtraBlockingTermB(t *testing.T) {
	ts := TaskSet{
		{Name: "t1", C: 2, D: 10, T: 10, B: 5},
	}
	rs := ResponseTimesFP(ts, FPOptions{Preemptive: true})
	if rs[0] != 7 {
		t.Errorf("R with B=5: got %v, want 7", rs[0])
	}

	// Non-preemptive, B combines with Eq. 2's lower-priority blocking
	// by max, not plus: with C_2 = 3 below, B = 5 gives R_1 = 5 + 2
	// (plus would give 10) and B = 2 gives R_1 = 3 + 2 (plus: 7).
	for _, c := range []struct{ b, want Ticks }{{5, 7}, {2, 5}} {
		ts := TaskSet{
			{Name: "t1", C: 2, D: 10, T: 10, B: c.b},
			{Name: "t2", C: 3, D: 20, T: 20},
		}
		for _, literal := range []bool{false, true} {
			rs := ResponseTimesFP(ts, FPOptions{LiteralPaperRecurrence: literal})
			if rs[0] != c.want {
				t.Errorf("non-preemptive (literal %v) with B=%d: R_1 = %d, want max(B, C_2) + C_1 = %d", literal, c.b, rs[0], c.want)
			}
		}
	}
}

// Property: preemptive response time of the highest-priority task is
// C + B, and every response time is at least C.
func TestFPResponseProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		ts := make(TaskSet, n)
		for i := range ts {
			c := Ticks(1 + rng.Intn(5))
			T := c + Ticks(rng.Intn(50)) + 5
			ts[i] = Task{Name: "t", C: c, D: T, T: T}
		}
		ts = SortRM(ts)
		for _, pre := range []bool{true, false} {
			rs := ResponseTimesFP(ts, FPOptions{Preemptive: pre})
			for i, r := range rs {
				if r != timeunit.MaxTicks && r < ts[i].C {
					return false
				}
			}
			if pre && rs[0] != ts[0].C {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: non-preemptive response times are monotone in the blocking
// term (adding lower-priority load cannot reduce anyone's response).
func TestFPBlockingMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		ts := make(TaskSet, n)
		for i := range ts {
			c := Ticks(1 + rng.Intn(4))
			T := c*4 + Ticks(rng.Intn(40)) + 8
			ts[i] = Task{Name: "t", C: c, D: T, T: T}
		}
		ts = SortRM(ts)
		rs := ResponseTimesFP(ts, FPOptions{Preemptive: false})
		bigger := ts.Clone()
		bigger = append(bigger, Task{Name: "huge-lp", C: 7, D: 1000, T: 1000})
		rs2 := ResponseTimesFP(bigger, FPOptions{Preemptive: false})
		for i := range rs {
			if rs2[i] != timeunit.MaxTicks && rs[i] != timeunit.MaxTicks && rs2[i] < rs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestSharedKernels pins the three recurrence kernels directly: the
// Joseph–Pandya example through FixedPoint, the start-instant counting
// that lets a release exactly at w interfere, and the divergence
// contract of the job walk — a busy period at or above the horizon
// yields MaxTicks even when it closes at its first iterate.
func TestSharedKernels(t *testing.T) {
	const horizon = Ticks(1) << 40
	hp := TaskSet{mkTask("a", 1, 4, 4), mkTask("b", 2, 6, 6)}
	if got := FixedPoint(hp, 3, true, horizon); got != 10 {
		t.Errorf("FixedPoint ceil = %d, want 10", got)
	}
	at := TaskSet{mkTask("a", 2, 4, 4)}
	if c, f := FixedPoint(at, 2, true, horizon), FixedPoint(at, 2, false, horizon); c != 4 || f != 6 {
		t.Errorf("FixedPoint ceil/floor+1 = %d/%d, want 4/6", c, f)
	}
	if got := RevisedResponseTime(TaskSet{mkTask("m", 5, 100, 100)}, 3, false, horizon); got != 8 {
		t.Errorf("RevisedResponseTime = %d, want blocking 3 + C 5", got)
	}
	huge := TaskSet{mkTask("m", horizon+5, 1<<42, 1<<42)}
	if got := BusyPeriod(huge, 0, horizon); got < horizon {
		t.Errorf("BusyPeriod = %d, want >= horizon", got)
	}
	if got := RevisedResponseTime(huge, 0, false, horizon); got != timeunit.MaxTicks {
		t.Errorf("RevisedResponseTime past the horizon = %d, want MaxTicks", got)
	}
}
