package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"profirt/internal/timeunit"
)

// twoMasterNet is the hand-worked fixture used across the tests:
//
//	M1: A(Ch=300 D=9000 T=10000), B(Ch=200 D=5000 T=8000), low=1000
//	M2: C(Ch=500 D=20000 T=20000),                          low=800
//	TTR = 2000, no token-pass overhead.
//
// C_M^1 = 1000, C_M^2 = 800 ⇒ T_del = 1800, T_cycle = 3800.
// Refined: overrunner M1 → 1000 + 500; overrunner M2 → 800 + 300;
// refined T_del = 1500.
func twoMasterNet() Network {
	return Network{
		TTR: 2000,
		Masters: []Master{
			{
				Name: "M1",
				High: []Stream{
					{Name: "A", Ch: 300, D: 9000, T: 10000},
					{Name: "B", Ch: 200, D: 5000, T: 8000},
				},
				LongestLow: 1000,
			},
			{
				Name:       "M2",
				High:       []Stream{{Name: "C", Ch: 500, D: 20000, T: 20000}},
				LongestLow: 800,
			},
		},
	}
}

func TestNetworkValidate(t *testing.T) {
	n := twoMasterNet()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := twoMasterNet()
	bad.TTR = 0
	if bad.Validate() == nil {
		t.Error("zero TTR must fail")
	}
	bad = twoMasterNet()
	bad.Masters = nil
	if bad.Validate() == nil {
		t.Error("no masters must fail")
	}
	bad = twoMasterNet()
	bad.Masters[0].High[0].Ch = 0
	if bad.Validate() == nil {
		t.Error("zero Ch must fail")
	}
	bad = twoMasterNet()
	bad.Masters[0].LongestLow = -1
	if bad.Validate() == nil {
		t.Error("negative low must fail")
	}
	bad = twoMasterNet()
	bad.TokenPass = -1
	if bad.Validate() == nil {
		t.Error("negative token pass must fail")
	}
	bad = twoMasterNet()
	bad.Masters[0].High[0].J = -1
	if bad.Validate() == nil {
		t.Error("negative jitter must fail")
	}
}

func TestMasterAggregates(t *testing.T) {
	m := twoMasterNet().Masters[0]
	if m.NH() != 2 {
		t.Errorf("NH = %d, want 2", m.NH())
	}
	if m.LongestHigh() != 300 {
		t.Errorf("LongestHigh = %d, want 300", m.LongestHigh())
	}
	if m.LongestCycle() != 1000 {
		t.Errorf("LongestCycle = %d, want 1000", m.LongestCycle())
	}
	empty := Master{Name: "idle"}
	if empty.LongestHigh() != 0 || empty.LongestCycle() != 0 {
		t.Error("empty master aggregates must be zero")
	}
}

func TestTokenDelayAndCycle(t *testing.T) {
	n := twoMasterNet()
	if got := n.TokenDelay(); got != 1800 {
		t.Errorf("TokenDelay = %d, want 1800 (Eq. 13)", got)
	}
	if got := n.TokenCycle(); got != 3800 {
		t.Errorf("TokenCycle = %d, want 3800 (Eq. 14)", got)
	}
	if got := n.RefinedTokenDelay(); got != 1500 {
		t.Errorf("RefinedTokenDelay = %d, want 1500", got)
	}
	if got := n.RefinedTokenCycle(); got != 3500 {
		t.Errorf("RefinedTokenCycle = %d, want 3500", got)
	}
	// Refined never exceeds the literal Eq. 13 bound.
	if n.RefinedTokenDelay() > n.TokenDelay() {
		t.Error("refined bound must not exceed Eq. 13")
	}
	// Token-pass overhead adds once per hop.
	n.TokenPass = 70
	if got := n.TokenDelay(); got != 1800+140 {
		t.Errorf("TokenDelay with overhead = %d, want 1940", got)
	}
}

func TestRefinedTokenDelayProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := Network{TTR: 1000}
		for k := 0; k < 1+rng.Intn(5); k++ {
			m := Master{LongestLow: Ticks(rng.Intn(500))}
			for s := 0; s < rng.Intn(4); s++ {
				m.High = append(m.High, Stream{
					Name: "s", Ch: Ticks(1 + rng.Intn(500)),
					D: 10_000, T: 10_000,
				})
			}
			n.Masters = append(n.Masters, m)
		}
		return n.RefinedTokenDelay() <= n.TokenDelay()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGapPollInTokenDelay(t *testing.T) {
	n := twoMasterNet() // C_M = 1000 and 800, T_del = 1800
	// A poll shorter than every C_M changes nothing.
	n.GapPoll = 500
	if got := n.TokenDelay(); got != 1800 {
		t.Errorf("short poll: T_del = %d, want 1800", got)
	}
	// A poll longer than M2's C_M (800) replaces it in the sum.
	n.GapPoll = 900
	if got := n.TokenDelay(); got != 1000+900 {
		t.Errorf("long poll: T_del = %d, want 1900", got)
	}
	// Refined bound also accounts for the overrunner's poll.
	if got := n.RefinedTokenDelay(); got < 1500 {
		t.Errorf("refined with poll = %d, want >= 1500", got)
	}
	// Negative polls are rejected.
	n.GapPoll = -1
	if n.Validate() == nil {
		t.Error("negative GapPoll must fail validation")
	}
}

func TestFCFSResponseAndSchedulability(t *testing.T) {
	n := twoMasterNet()
	tc := n.TokenCycle() // 3800
	// Eq. 11: M1 has nh=2 ⇒ R = 7600 for both streams; M2 nh=1 ⇒ 3800.
	if got := FCFSResponseTime(n.Masters[0], tc); got != 7600 {
		t.Errorf("M1 R = %d, want 7600", got)
	}
	if got := FCFSResponseTime(n.Masters[1], tc); got != 3800 {
		t.Errorf("M2 R = %d, want 3800", got)
	}
	// Eq. 12: B has D=5000 < 7600 ⇒ unschedulable; A (D=9000 ≥ 7600)
	// and C (D=20000 ≥ 3800) pass.
	ok, verdicts := FCFSSchedulable(n)
	if ok {
		t.Error("network must be FCFS-unschedulable (B misses)")
	}
	if len(verdicts) != 3 {
		t.Fatalf("verdicts = %d, want 3", len(verdicts))
	}
	byStream := map[string]StreamVerdict{}
	for _, v := range verdicts {
		byStream[v.Stream] = v
	}
	if byStream["B"].OK {
		t.Error("B must fail at TTR=2000")
	}
	if !byStream["A"].OK || !byStream["C"].OK {
		t.Error("A and C must pass at TTR=2000")
	}
}

func TestMaxTTR(t *testing.T) {
	n := twoMasterNet()
	// Eq. 15: min(9000/2, 5000/2, 20000/1) − 1800 = 2500 − 1800 = 700.
	got, err := MaxTTR(n)
	if err != nil {
		t.Fatal(err)
	}
	if got != 700 {
		t.Errorf("MaxTTR = %d, want 700", got)
	}
	// Setting TTR to the bound makes FCFS schedulable; bound+1 must not.
	n.TTR = got
	if ok, _ := FCFSSchedulable(n); !ok {
		t.Error("network must be schedulable at the Eq. 15 bound")
	}
	n.TTR = got + 1
	if ok, _ := FCFSSchedulable(n); ok {
		t.Error("network must be unschedulable just above the bound")
	}

	// Infeasible deadline structure.
	tight := twoMasterNet()
	tight.Masters[0].High[1].D = 100
	if _, err := MaxTTR(tight); err == nil {
		t.Error("expected infeasibility error")
	}

	// No high streams at all.
	if _, err := MaxTTR(Network{TTR: 1, Masters: []Master{{Name: "m"}}}); err == nil {
		t.Error("expected error with no high streams")
	}
}

func TestDMResponseTimesHandComputed(t *testing.T) {
	streams := []Stream{
		{Name: "X", D: 1000, T: 1000},
		{Name: "Y", D: 2000, T: 2000},
	}
	const tc = 100

	lit := DMResponseTimes(streams, tc, DMOptions{Literal: true})
	// X: T* = T_cycle (Y is lower) ⇒ R = 100. Y: lowest ⇒ T* = 0,
	// interference ⌈R/1000⌉·100 → R = 100.
	if lit[0] != 100 || lit[1] != 100 {
		t.Errorf("literal = %v, want [100 100]", lit)
	}

	rev := DMResponseTimes(streams, tc, DMOptions{})
	// X: w = B = 100, R = 200. Y: B = 0 (no lower high, no low traffic),
	// w = (⌊w/1000⌋+1)·100 = 100, R = 200.
	if rev[0] != 200 || rev[1] != 200 {
		t.Errorf("revised = %v, want [200 200]", rev)
	}

	// Low-priority traffic adds blocking to the lowest stream too.
	revLow := DMResponseTimes(streams, tc, DMOptions{BlockingFromLowPriority: true})
	if revLow[1] != 300 {
		t.Errorf("revised+low = %v, want Y = 300", revLow)
	}
}

func TestDMPriorityTiesByIndex(t *testing.T) {
	streams := []Stream{
		{Name: "first", D: 500, T: 10_000},
		{Name: "second", D: 500, T: 10_000},
		{Name: "third", D: 500, T: 10_000},
	}
	rs := DMResponseTimes(streams, 50, DMOptions{})
	// "first" outranks the equal-deadline peers: it pays one blocking
	// visit + own (100); "third" waits for both peers (150). With two
	// streams the blocking and interference visits coincide numerically,
	// so three streams are needed to observe the tie order.
	if rs[0] != 100 {
		t.Errorf("first = %v, want 100", rs[0])
	}
	if rs[2] != 150 {
		t.Errorf("third = %v, want 150", rs[2])
	}
	if rs[2] <= rs[0] {
		t.Errorf("tie-break wrong: %v", rs)
	}
}

func TestDMInterferenceGrowth(t *testing.T) {
	// A tight stream plus a fast higher-priority stream: interference
	// accumulates over multiple token cycles.
	streams := []Stream{
		{Name: "fast", D: 300, T: 300},
		{Name: "slow", D: 5000, T: 5000},
	}
	const tc = 100
	rs := DMResponseTimes(streams, tc, DMOptions{})
	// slow: B=0; w: seed 100 → (⌊100/300⌋+1)·100 = 100 ✓; R = 200?
	// w=100: floor(100/300)=0 ⇒ 100. R = 200.
	if rs[1] != 200 {
		t.Errorf("slow = %v, want 200", rs[1])
	}
	// Make fast really fast: T=100 ⇒ every cycle brings a new request ⇒
	// divergence for slow.
	streams[0].T = 100
	streams[0].D = 100
	rs = DMResponseTimes(streams, tc, DMOptions{})
	if rs[1] != timeunit.MaxTicks {
		t.Errorf("slow under saturation = %v, want MaxTicks", rs[1])
	}
}

func TestDMJitterIncreasesInterference(t *testing.T) {
	base := []Stream{
		{Name: "hp", D: 400, T: 1000},
		{Name: "lp", D: 5000, T: 5000},
	}
	const tc = 100
	r0 := DMResponseTimes(base, tc, DMOptions{})
	jit := []Stream{
		{Name: "hp", D: 400, T: 1000, J: 900},
		{Name: "lp", D: 5000, T: 5000},
	}
	r1 := DMResponseTimes(jit, tc, DMOptions{})
	if r1[1] <= r0[1] {
		t.Errorf("jitter must increase lp interference: %v vs %v", r1[1], r0[1])
	}
}

func TestEDFResponseTimesHandComputed(t *testing.T) {
	single := []Stream{{Name: "S", D: 500, T: 1000}}
	rs := EDFResponseTimes(single, 100, EDFOptions{})
	if rs[0] != 100 {
		t.Errorf("single-stream EDF R = %v, want T_cycle", rs[0])
	}

	two := []Stream{
		{Name: "X", D: 1000, T: 2000},
		{Name: "Y", D: 3000, T: 3000},
	}
	rs = EDFResponseTimes(two, 100, EDFOptions{})
	// Worked in the package docs: X blocked once by Y (later deadline)
	// then transmitted; Y interfered once by X. Both 200.
	if rs[0] != 200 || rs[1] != 200 {
		t.Errorf("EDF = %v, want [200 200]", rs)
	}

	// Low-priority traffic forces blocking everywhere.
	rs = EDFResponseTimes(two, 100, EDFOptions{BlockingFromLowPriority: true})
	if rs[1] != 300 { // blocking + X interference + own
		t.Errorf("EDF with low traffic: Y = %v, want 300", rs[1])
	}

	// A jittered stream's worst offset can sit on its own release
	// k·T_i. With T_cycle = 5, requests sent one per cycle in deadline
	// order: q's request of 30 goes first (30–35), then p's of 10
	// (deadline 22, ready 31), o's of 0 (deadline 7, ready 36), p's of
	// 35 and o's of 40 (both deadline 47), and q's request of 40
	// (deadline 49) only at 55–60: a response of 20. The offset a = 10
	// = T_q covers it: L = 5 + 2·5 + 2·5 = 25, R = 25 + 5 − 10 + J_q =
	// 21.
	jit := []Stream{
		{Name: "o", D: 7, T: 40, J: 36},
		{Name: "q", D: 9, T: 10, J: 1},
		{Name: "p", D: 12, T: 25, J: 21},
	}
	if rs := EDFResponseTimes(jit, 5, EDFOptions{}); rs[1] != 21 {
		t.Errorf("jittered EDF: q = %v, want 21", rs[1])
	}
}

func TestEDFEmptyAndSaturated(t *testing.T) {
	if rs := EDFResponseTimes(nil, 100, EDFOptions{}); len(rs) != 0 {
		t.Error("empty input must yield empty output")
	}
	sat := []Stream{
		{Name: "a", D: 100, T: 100},
		{Name: "b", D: 100, T: 100},
	} // 2·T_cycle per 100 ticks with T_cycle=100 ⇒ saturated
	rs := EDFResponseTimes(sat, 100, EDFOptions{})
	for i, r := range rs {
		if r != timeunit.MaxTicks {
			t.Errorf("saturated stream %d = %v, want MaxTicks", i, r)
		}
	}
}

// TestMessageHorizonFirstIterate pins the 1<<40 horizon on a busy
// period that closes at its first iterate: one stream with
// T_cycle = 2^40+5 has a level busy period of T_cycle, already past
// the horizon, so DM and EDF must both report divergence instead of a
// finite bound.
func TestMessageHorizonFirstIterate(t *testing.T) {
	s := []Stream{{Name: "s", Ch: 1, D: 1 << 42, T: 1 << 42}}
	tc := Ticks(1)<<40 + 5
	dm := DMResponseTimes(s, tc, DMOptions{})
	edf := EDFResponseTimes(s, tc, EDFOptions{})
	if dm[0] != timeunit.MaxTicks || edf[0] != timeunit.MaxTicks {
		t.Errorf("DM = %v, EDF = %v; want both MaxTicks", dm[0], edf[0])
	}
}

func TestSchedulableNetVariants(t *testing.T) {
	n := twoMasterNet()
	n.TTR = 700 // the Eq. 15 bound: FCFS-schedulable
	okF, _ := FCFSSchedulable(n)
	if !okF {
		t.Fatal("FCFS should pass at TTR=700")
	}
	okD, vd := DMSchedulable(n, DMOptions{})
	if !okD {
		t.Errorf("DM should pass where FCFS passes: %+v", vd)
	}
	okE, ve := EDFSchedulableNet(n, EDFOptions{})
	if !okE {
		t.Errorf("EDF should pass where FCFS passes: %+v", ve)
	}
	// Headline claim: a deadline too tight for FCFS can be held by
	// DM/EDF. With nh = 3, FCFS charges every stream 3·T_cycle while
	// the priority queue charges the tightest stream only one blocking
	// visit plus its own (2·T_cycle). Note nh = 2 is the degenerate
	// case where FCFS and the one-slot blocking coincide — the benefit
	// needs nh >= 3.
	n2 := Network{
		TTR: 1000,
		Masters: []Master{{
			Name: "M1",
			High: []Stream{
				{Name: "tight", Ch: 100, D: 1, T: 50_000}, // D set below
				{Name: "s2", Ch: 100, D: 40_000, T: 50_000},
				{Name: "s3", Ch: 100, D: 40_000, T: 50_000},
			},
		}},
	}
	tc2 := n2.TokenCycle() // 1000 + 100 = 1100
	n2.Masters[0].High[0].D = 3*tc2 - 1
	okF2, _ := FCFSSchedulable(n2)
	if okF2 {
		t.Fatal("tight must fail FCFS at D = 3·T_cycle − 1")
	}
	okD2, vd2 := DMSchedulable(n2, DMOptions{})
	if !okD2 {
		t.Errorf("DM must hold the tighter deadline (headline claim): %+v", vd2)
	}
	okE2, ve2 := EDFSchedulableNet(n2, EDFOptions{})
	if !okE2 {
		t.Errorf("EDF must hold the tighter deadline (headline claim): %+v", ve2)
	}
}

func TestMessageBoundProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nStreams := 1 + rng.Intn(4)
		streams := make([]Stream, nStreams)
		const tc = 100
		for i := range streams {
			T := Ticks(1000*(1+rng.Intn(8))) + Ticks(rng.Intn(500))
			d := Ticks(400) + Ticks(rng.Intn(int(T)))
			streams[i] = Stream{Name: "s", Ch: 80, D: d, T: T, J: Ticks(rng.Intn(200))}
		}
		lit := DMResponseTimes(streams, tc, DMOptions{Literal: true})
		rev := DMResponseTimes(streams, tc, DMOptions{})
		edf := EDFResponseTimes(streams, tc, EDFOptions{})
		for i := range streams {
			// Revised DM dominates literal; all bounds cover at least
			// one token cycle.
			if rev[i] != timeunit.MaxTicks && lit[i] != timeunit.MaxTicks && rev[i] < lit[i] {
				return false
			}
			if rev[i] < tc || edf[i] < tc {
				return false
			}
			if lit[i] != timeunit.MaxTicks && lit[i] < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestEndToEnd(t *testing.T) {
	e := EndToEnd{Generation: 50, Queuing: 200, Cycle: 100, Delivery: 25}
	if e.Total() != 375 {
		t.Errorf("Total = %v, want 375", e.Total())
	}
	// R is origin-anchored (it includes J = g), so Q = R − g − C =
	// 300 − 50 − 100 = 150 and E = R + d = 325.
	c := Compose(50, 300, 100, 25)
	if c.Queuing != 150 || c.Total() != 325 {
		t.Errorf("Compose = %+v", c)
	}
	// R below g + C clamps queuing at zero rather than going negative.
	c = Compose(0, 50, 100, 0)
	if c.Queuing != 0 {
		t.Errorf("clamped queuing = %v, want 0", c.Queuing)
	}
	// A divergent bound stays divergent.
	c = Compose(50, timeunit.MaxTicks, 100, 25)
	if c.Queuing != timeunit.MaxTicks || c.Total() != timeunit.MaxTicks {
		t.Errorf("Compose(R = MaxTicks) = %+v, total %v", c, c.Total())
	}
}

func TestStreamValidate(t *testing.T) {
	bad := []Stream{
		{Name: "c", Ch: 0, D: 1, T: 1},
		{Name: "d", Ch: 1, D: 0, T: 1},
		{Name: "t", Ch: 1, D: 1, T: 0},
		{Name: "j", Ch: 1, D: 1, T: 1, J: -1},
	}
	for _, s := range bad {
		if s.Validate() == nil {
			t.Errorf("stream %q must fail validation", s.Name)
		}
	}
	if (Stream{Name: "ok", Ch: 1, D: 1, T: 1}).Validate() != nil {
		t.Error("valid stream rejected")
	}
}
