package profibus

import (
	"runtime/debug"
	"testing"

	"profirt/internal/ap"
	"profirt/internal/core"
	"profirt/internal/fdl"
	"profirt/internal/timeunit"
)

// Masters with different dispatchers coexist in one ring: the paper's
// architecture is a per-station upgrade, not a network-wide flag.
func TestMixedDispatchersInOneRing(t *testing.T) {
	cfg := testConfig(20_000,
		MasterConfig{Addr: 1, Dispatcher: ap.FCFS,
			Streams: []StreamConfig{stdStream("f1", 5_000, 20_000)}},
		MasterConfig{Addr: 2, Dispatcher: ap.DM,
			Streams: []StreamConfig{stdStream("d1", 5_000, 20_000), stdStream("d2", 7_000, 9_000)}},
		MasterConfig{Addr: 3, Dispatcher: ap.EDF,
			Streams: []StreamConfig{stdStream("e1", 6_000, 18_000)}},
	)
	cfg.Horizon = 300_000
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for mi, m := range res.PerMaster {
		for si, st := range m.PerStream {
			if st.Completed == 0 {
				t.Errorf("master %d stream %d starved in mixed ring", mi, si)
			}
			if st.Missed != 0 {
				t.Errorf("master %d stream %d missed with generous deadlines", mi, si)
			}
		}
	}
}

// Low-priority traffic only runs when TTH > 0: with a tiny TTR it is
// starved while high traffic still makes progress (the protocol's
// guarantee of one high cycle per visit).
func TestLowPriorityStarvationUnderTightTTR(t *testing.T) {
	high := stdStream("hi", 2_000, 100_000)
	low := StreamConfig{Name: "lo", Slave: 40, High: false,
		Period: 2_000, Deadline: 100_000, ReqBytes: 4, RespBytes: 2}
	cfg := testConfig(1, MasterConfig{Addr: 1, Streams: []StreamConfig{high, low}})
	cfg.Horizon = 100_000
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hi, lo := res.PerMaster[0].PerStream[0], res.PerMaster[0].PerStream[1]
	if hi.Completed == 0 {
		t.Error("high traffic must progress even with TTR=1")
	}
	if lo.Completed != 0 {
		t.Errorf("low traffic should be starved at TTR=1, completed %d", lo.Completed)
	}
	// With a generous TTR the same workload serves low traffic too.
	cfg.TTR = 50_000
	res, err = Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerMaster[0].PerStream[1].Completed == 0 {
		t.Error("low traffic must run under a generous TTR")
	}
}

// Per-slave TSDR values shape cycle durations: a slower responder makes
// the same stream's responses strictly slower.
func TestSlaveTSDRAffectsCycleDuration(t *testing.T) {
	mk := func(tsdr Ticks) Result {
		cfg := Config{
			Bus:     testConfig(10_000).Bus,
			TTR:     10_000,
			Masters: []MasterConfig{{Addr: 1, Streams: []StreamConfig{stdStream("s", 5_000, 9_000)}}},
			Slaves:  []SlaveConfig{{Addr: 40, TSDR: tsdr}},
			Horizon: 50_000,
		}
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fast := mk(11)
	slow := mk(60)
	if fast.PerMaster[0].PerStream[0].WorstResponse >= slow.PerMaster[0].PerStream[0].WorstResponse {
		t.Errorf("TSDR 11 worst %v should beat TSDR 60 worst %v",
			fast.PerMaster[0].PerStream[0].WorstResponse,
			slow.PerMaster[0].PerStream[0].WorstResponse)
	}
	// The simulator clamps out-of-range TSDR into the DIN window.
	clamped := mk(10_000)
	if clamped.PerMaster[0].PerStream[0].WorstResponse != slow.PerMaster[0].PerStream[0].WorstResponse {
		t.Error("TSDR above TSDRmax must clamp to TSDRmax")
	}
}

// The first release at t=0 and the token's first arrival at t=0 must
// interact deterministically (release fires first — it was scheduled
// first), so the very first cycle carries the t=0 request.
func TestTimeZeroReleaseIsSeen(t *testing.T) {
	cfg := testConfig(10_000, MasterConfig{
		Addr:    1,
		Streams: []StreamConfig{stdStream("s", 50_000, 50_000)},
	})
	cfg.Horizon = 10_000
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.PerMaster[0].PerStream[0]
	if st.Completed != 1 {
		t.Fatalf("expected exactly one completion, got %d", st.Completed)
	}
	// Transmitted immediately at t=0: response == cycle time (331).
	if st.WorstResponse != stdCycleTicks {
		t.Errorf("first response %v, want %d (no queueing at t=0)", st.WorstResponse, stdCycleTicks)
	}
}

// Releases are scheduled by a loop, not by recursion: a Period-1 stream
// with 100,000 releases inside the horizon must not need a stack frame
// per release. Under an 8 MB stack limit, one frame pair per release
// dies with a fatal (unrecoverable) stack overflow.
func TestReleasesScheduledIteratively(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(8 << 20))
	cfg := testConfig(10_000, MasterConfig{
		Addr:    1,
		Streams: []StreamConfig{stdStream("s", 1, 50_000)},
	})
	cfg.Horizon = 100_000
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PerMaster[0].PerStream[0].Released; got != 100_000 {
		t.Fatalf("Released %d, want 100000", got)
	}
}

// Offset + n·Period saturates instead of wrapping: with a period near
// MaxTicks the second nominal release lies past every horizon, so the
// stream releases once and the simulation runs to the horizon (a
// wrapped instant lands before the clock and panics the calendar).
func TestReleaseInstantsSaturate(t *testing.T) {
	st := stdStream("s", timeunit.MaxTicks-50_000, 50_000)
	st.Offset = 100_000
	cfg := testConfig(10_000, MasterConfig{Addr: 1, Streams: []StreamConfig{st}})
	cfg.Horizon = 200_000
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PerMaster[0].PerStream[0].Released; got != 1 {
		t.Fatalf("Released %d, want 1", got)
	}
}

// The bus timing sums saturate: Validate accepts any non-negative
// station delay and slot time, so a value near MaxTicks from the wire
// must make C_hi or the GAP poll MaxTicks, not wrap them. A wrapped
// slot time would leave GapPoll at the status cycle's 229, and every
// analysis would call this network schedulable (R = 5453) although the
// simulator's first poll of an unused address waits the whole slot
// time; the wrapped timeout would also panic the calendar. A wrapped
// C_hi makes the derived network invalid ("Ch must be positive").
func TestBusTimesSaturate(t *testing.T) {
	st := StreamConfig{Name: "a", Slave: 30, High: true, Period: 20_000, Deadline: 30_000, ReqBytes: 4, RespBytes: 4}
	base := Config{
		Bus:     fdl.DefaultBusParams(),
		TTR:     5_000,
		Masters: []MasterConfig{{Addr: 1, Dispatcher: ap.DM, Streams: []StreamConfig{st}}},
		Slaves:  []SlaveConfig{{Addr: 30}},
		Horizon: 200_000,
	}
	base.Bus.MaxRetry = 0
	slotTime := base
	slotTime.GapFactor = 2
	slotTime.Bus.TSL = timeunit.MaxTicks
	stationDelay := base
	stationDelay.Bus.TSDRmax, stationDelay.Bus.TSL = timeunit.MaxTicks-1, timeunit.MaxTicks
	stationDelay.Slaves = []SlaveConfig{{Addr: 30, TSDR: timeunit.MaxTicks - 1}}

	for _, c := range []struct {
		name string
		cfg  Config
		want StreamStats // Released, Completed, Missed, Censored
		gaps int64
	}{
		// The first token visit serves the release at 0; the second
		// polls an unused address and holds the bus to the horizon.
		{"slot time", slotTime, StreamStats{Released: 10, Completed: 1, Missed: 8, Censored: 9}, 1},
		// The one cycle never ends within the horizon.
		{"station delay", stationDelay, StreamStats{Released: 10, Completed: 0, Missed: 9, Censored: 10}, 0},
	} {
		net := Network(c.cfg)
		if err := net.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fcfsOK, fcfs := core.FCFSSchedulable(net)
		dmOK, dm := core.DMSchedulable(net, core.DMOptions{})
		edfOK, edf := core.EDFSchedulableNet(net, core.EDFOptions{})
		for _, v := range []struct {
			policy string
			ok     bool
			r      Ticks
		}{{"FCFS", fcfsOK, fcfs[0].R}, {"DM", dmOK, dm[0].R}, {"EDF", edfOK, edf[0].R}} {
			if v.ok || v.r != timeunit.MaxTicks {
				t.Errorf("%s, %s: schedulable %v with R = %d, want unschedulable with R = MaxTicks", c.name, v.policy, v.ok, v.r)
			}
		}
		res, err := Simulate(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := res.PerMaster[0].PerStream[0]
		if got.Released != c.want.Released || got.Completed != c.want.Completed ||
			got.Missed != c.want.Missed || got.Censored != c.want.Censored {
			t.Errorf("%s: released %d, completed %d, missed %d, censored %d; want %d, %d, %d, %d", c.name,
				got.Released, got.Completed, got.Missed, got.Censored,
				c.want.Released, c.want.Completed, c.want.Missed, c.want.Censored)
		}
		if g := res.PerMaster[0].GapPolls; g != c.gaps {
			t.Errorf("%s: %d GAP polls, want %d", c.name, g, c.gaps)
		}
	}
}

// nominal + Deadline saturates instead of wrapping: a stream whose
// deadline is MaxTicks can never miss, so every completed cycle is on
// time under every dispatcher (a wrapped sum is negative, and every
// release after the one at 0 counts as missed).
func TestDeadlineSumSaturates(t *testing.T) {
	for _, pol := range []ap.Policy{ap.FCFS, ap.DM, ap.EDF} {
		st := stdStream("s", 20_000, timeunit.MaxTicks)
		cfg := testConfig(10_000, MasterConfig{Addr: 1, Dispatcher: pol, Streams: []StreamConfig{st}})
		cfg.Horizon = 200_000
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := res.PerMaster[0].PerStream[0]
		if got.Completed != 10 || got.Missed != 0 {
			t.Errorf("%v: Completed %d Missed %d, want 10 and 0", pol, got.Completed, got.Missed)
		}
	}
}

// The AP queue's absolute deadline saturates too: under EDF a stream
// with deadline MaxTicks is due last, so a tighter stream released at
// the same instant goes first, as under DM. (filler arrives first and
// takes the one-slot FDL queue, so late and tight then compete in the
// AP queue.) A wrapped absolute deadline is negative and puts the
// MaxTicks stream at the head of the queue.
func TestEDFAbsoluteDeadlineSaturates(t *testing.T) {
	streams := []StreamConfig{
		stdStream("filler", 20_000, 15_000),
		stdStream("late", 20_000, timeunit.MaxTicks),
		stdStream("tight", 20_000, 10_000),
	}
	for i := range streams {
		streams[i].Offset = 1_000
	}
	worst := map[ap.Policy]Ticks{}
	for _, pol := range []ap.Policy{ap.DM, ap.EDF} {
		cfg := testConfig(10_000, MasterConfig{Addr: 1, Dispatcher: pol, Streams: streams})
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ps := res.PerMaster[0].PerStream
		if ps[1].Missed != 0 {
			t.Errorf("%v: late missed %d times with deadline MaxTicks", pol, ps[1].Missed)
		}
		if ps[2].WorstResponse >= ps[1].WorstResponse {
			t.Errorf("%v: tight worst %d not below late worst %d: late served first",
				pol, ps[2].WorstResponse, ps[1].WorstResponse)
		}
		worst[pol] = ps[2].WorstResponse
	}
	if worst[ap.EDF] != worst[ap.DM] {
		t.Errorf("tight worst response: EDF %d, DM %d", worst[ap.EDF], worst[ap.DM])
	}
}

// GAP maintenance: with GapFactor set, masters poll their GAP with
// FDL-Status cycles; the rotation slows accordingly but stays within
// the analytic bound once Network.GapPoll accounts for the polls.
func TestGapMaintenance(t *testing.T) {
	base := testConfig(10_000,
		MasterConfig{Addr: 1, Streams: []StreamConfig{stdStream("s", 5_000, 50_000)}},
		MasterConfig{Addr: 5}) // gap 2..4 unused, 40 is a slave
	base.Horizon = 300_000

	noGap, err := Simulate(base)
	if err != nil {
		t.Fatal(err)
	}
	withGap := base
	withGap.GapFactor = 1
	gap, err := Simulate(withGap)
	if err != nil {
		t.Fatal(err)
	}
	var polls int64
	for _, m := range gap.PerMaster {
		polls += m.GapPolls
	}
	if polls == 0 {
		t.Fatal("expected GAP polls with GapFactor=1")
	}
	if gap.WorstTRR() <= noGap.WorstTRR() {
		t.Errorf("GAP polling should slow rotation: %v vs %v",
			gap.WorstTRR(), noGap.WorstTRR())
	}
	// Analytic bound with the GapPoll term still holds.
	net := Network(withGap)
	if gap.WorstTRR() > net.TokenCycle() {
		t.Errorf("rotation %v exceeds gap-aware bound %v", gap.WorstTRR(), net.TokenCycle())
	}
	// GapFactor=0 must mean zero polls.
	for _, m := range noGap.PerMaster {
		if m.GapPolls != 0 {
			t.Error("polls recorded with GAP disabled")
		}
	}
	// Negative factor is rejected.
	bad := base
	bad.GapFactor = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative GapFactor must fail validation")
	}
}

// Token passes accumulate: an idle ring of n masters performs
// horizon / (n·tokenPass) passes, nothing more.
func TestTokenPassAccounting(t *testing.T) {
	cfg := testConfig(10_000, MasterConfig{Addr: 1}, MasterConfig{Addr: 2})
	cfg.Horizon = 7_000 // 100 passes at 70 ticks each
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TokenPasses < 99 || res.TokenPasses > 100 {
		t.Errorf("token passes = %d, want ~100", res.TokenPasses)
	}
}
