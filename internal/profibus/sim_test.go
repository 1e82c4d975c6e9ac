package profibus

import (
	"reflect"
	"testing"

	"profirt/internal/ap"
	"profirt/internal/fdl"
)

// testConfig builds a small valid network: masters at the given
// addresses, one slave at address 40 with a fixed 30-bit TSDR.
func testConfig(ttr Ticks, masters ...MasterConfig) Config {
	return Config{
		Bus:     fdl.DefaultBusParams(),
		TTR:     ttr,
		Masters: masters,
		Slaves:  []SlaveConfig{{Addr: 40, TSDR: 30}},
		Horizon: 200_000,
	}
}

// stdStream is a high-priority stream with a 4-byte request and 2-byte
// response: action 13 chars (143 bits), response 11 chars (121 bits),
// cycle = 143 + 30 + 121 + 37 = 331 bit times.
func stdStream(name string, period, deadline Ticks) StreamConfig {
	return StreamConfig{
		Name: name, Slave: 40, High: true,
		Period: period, Deadline: deadline,
		ReqBytes: 4, RespBytes: 2,
	}
}

const stdCycleTicks = 331

func TestConfigValidation(t *testing.T) {
	good := testConfig(10_000, MasterConfig{Addr: 1, Streams: []StreamConfig{stdStream("s", 5000, 5000)}})
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero TTR", func(c *Config) { c.TTR = 0 }},
		{"no masters", func(c *Config) { c.Masters = nil }},
		{"zero horizon", func(c *Config) { c.Horizon = 0 }},
		{"bad fail prob", func(c *Config) { c.Faults.CycleFailProb = 1.5 }},
		{"unknown slave", func(c *Config) { c.Masters[0].Streams[0].Slave = 99 }},
		{"bad period", func(c *Config) { c.Masters[0].Streams[0].Period = 0 }},
		{"bad deadline", func(c *Config) { c.Masters[0].Streams[0].Deadline = -1 }},
		{"neg jitter", func(c *Config) { c.Masters[0].Streams[0].Jitter = -1 }},
		{"payload too big", func(c *Config) { c.Masters[0].Streams[0].ReqBytes = fdl.MaxSD2Data + 1 }},
		{"dup master", func(c *Config) {
			c.Masters = append(c.Masters, MasterConfig{Addr: 1})
		}},
		{"master order", func(c *Config) {
			c.Masters = append(c.Masters, MasterConfig{Addr: 0})
		}},
		{"master/slave clash", func(c *Config) {
			c.Masters[0].Addr = 40
		}},
		{"dup slave", func(c *Config) {
			c.Slaves = append(c.Slaves, SlaveConfig{Addr: 40})
		}},
		{"bad bus", func(c *Config) { c.Bus.MaxRetry = -1 }},
	}
	for _, tc := range cases {
		c := testConfig(10_000, MasterConfig{Addr: 1, Streams: []StreamConfig{stdStream("s", 5000, 5000)}})
		tc.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestStreamWorstCycleTicks(t *testing.T) {
	st := stdStream("s", 1000, 1000)
	bus := fdl.DefaultBusParams() // MaxRetry=1
	// worst = 1 failed attempt (143+100) + success with TSDRmax
	// (143+60+121+37) = 243 + 361 = 604.
	if got := st.WorstCycleTicks(bus); got != 604 {
		t.Errorf("WorstCycleTicks = %d, want 604", got)
	}
}

// TestWorstCycleTicksAllocatesNothing pins that a cycle length needs no
// payload buffer: a frame carries its data-unit length, not its bytes.
// Network takes C_hi this way for every stream of every analysed
// config, and the simulator builds its frames at every reset.
func TestWorstCycleTicksAllocatesNothing(t *testing.T) {
	st := stdStream("s", 1000, 1000)
	if st.ReqBytes == 0 || st.RespBytes == 0 {
		t.Fatalf("fixture payloads %d/%d: both must be non-empty", st.ReqBytes, st.RespBytes)
	}
	bus := fdl.DefaultBusParams()
	if n := testing.AllocsPerRun(100, func() { st.WorstCycleTicks(bus) }); n != 0 {
		t.Errorf("WorstCycleTicks allocates %v times per call, want 0", n)
	}
}

func TestSingleMasterSingleStream(t *testing.T) {
	cfg := testConfig(10_000, MasterConfig{
		Addr:    1,
		Streams: []StreamConfig{stdStream("s", 1000, 900)},
	})
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.PerMaster[0].PerStream[0]
	if st.Released != 200 {
		t.Errorf("released %d, want 200", st.Released)
	}
	// The release at t=0 is transmitted immediately at token arrival:
	// its response is exactly the cycle time.
	if st.Completed+st.Censored != st.Released {
		t.Errorf("accounting: %d completed + %d censored != %d released",
			st.Completed, st.Censored, st.Released)
	}
	if st.Missed != 0 {
		t.Errorf("missed %d with generous deadline", st.Missed)
	}
	// Worst response is bounded by one full idle-token round plus the
	// cycle: the request can arrive just after a token pass.
	bound := Ticks(stdCycleTicks + 70 + 70)
	if st.WorstResponse > bound {
		t.Errorf("worst response %d exceeds %d", st.WorstResponse, bound)
	}
	if st.WorstResponse < stdCycleTicks {
		t.Errorf("worst response %d below the cycle time %d", st.WorstResponse, stdCycleTicks)
	}
	if res.PerMaster[0].HighCycles != st.Completed {
		t.Errorf("high cycles %d != completed %d", res.PerMaster[0].HighCycles, st.Completed)
	}
}

func TestIdleRingRotation(t *testing.T) {
	// Three masters, no traffic: the rotation at every master is
	// exactly 3 token-pass times = 210 bit times.
	cfg := testConfig(10_000,
		MasterConfig{Addr: 1}, MasterConfig{Addr: 2}, MasterConfig{Addr: 3})
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range res.PerMaster {
		if m.TokenArrivals < 100 {
			t.Errorf("master %d starved: %d arrivals", i, m.TokenArrivals)
		}
		if m.WorstTRR != 210 {
			t.Errorf("master %d worst TRR = %d, want 210", i, m.WorstTRR)
		}
		if got := m.MeanTRR(); got != 210 {
			t.Errorf("master %d mean TRR = %g, want 210", i, got)
		}
		if m.TTHOverruns != 0 || m.LateTokens != 0 {
			t.Errorf("idle ring must have no overruns/late tokens")
		}
	}
	if res.TokenPasses == 0 {
		t.Error("no token passes recorded")
	}
}

func TestLateTokenSendsExactlyOneHighCycle(t *testing.T) {
	// TTR far below the rotation time: every token (after the first) is
	// late, yet each visit must still transmit exactly one pending high
	// message — the rule underlying Q = nh·T_cycle.
	cfg := testConfig(1, MasterConfig{
		Addr: 1,
		// Period 300 < cycle+pass (401): permanent backlog.
		Streams: []StreamConfig{stdStream("s", 300, 100_000)},
	})
	cfg.Horizon = 100_000
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := res.PerMaster[0]
	if m.LateTokens == 0 {
		t.Fatal("expected late tokens with TTR=1")
	}
	// Every arrival with backlog executes exactly one cycle; visits are
	// cycle+pass apart, so arrivals ≈ horizon/401 and HighCycles must
	// track arrivals closely (backlog never clears).
	if m.HighCycles < m.TokenArrivals-1 || m.HighCycles > m.TokenArrivals {
		t.Errorf("high cycles %d vs arrivals %d: late-token rule violated",
			m.HighCycles, m.TokenArrivals)
	}
}

func TestGenerousTTRSendsBurst(t *testing.T) {
	// With TTR much larger than the backlog, one token visit drains
	// several pending high messages.
	cfg := testConfig(50_000, MasterConfig{
		Addr: 2,
		Streams: []StreamConfig{
			stdStream("a", 10_000, 50_000),
			stdStream("b", 10_000, 50_000),
			stdStream("c", 10_000, 50_000),
		},
	})
	// Put another master first so requests accumulate before the
	// token's first arrival at master 2.
	cfg.Masters = append([]MasterConfig{{Addr: 1}}, cfg.Masters...)
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := res.PerMaster[1]
	// All three first releases complete within the first visit window:
	// arrival at 70, three sequential cycles.
	for si, st := range m.PerStream {
		if st.Completed == 0 {
			t.Errorf("stream %d never completed", si)
		}
	}
	first := m.PerStream[0].WorstResponse
	if first < stdCycleTicks {
		t.Errorf("worst response %d below cycle time", first)
	}
}

func TestTTHOverrunCounted(t *testing.T) {
	// TTR = 200 < cycle = 331: the first visit starts the cycle with
	// remaining TTH in (0, 331) and must complete it anyway (overrun).
	cfg := testConfig(200, MasterConfig{
		Addr:    1,
		Streams: []StreamConfig{stdStream("s", 5000, 100_000)},
	})
	cfg.Horizon = 20_000
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerMaster[0].TTHOverruns == 0 {
		t.Error("expected at least one TTH overrun")
	}
}

// Committed-slot semantics plus priority reordering: with three high
// requests pending before the token's first arrival, DM serves the
// tightest-deadline one right after the committed slot occupant; FCFS
// serves in arrival order.
func TestDispatcherOrdering(t *testing.T) {
	streams := []StreamConfig{
		{Name: "loose", Slave: 40, High: true, Period: 100_000, Deadline: 90_000, Offset: 0, ReqBytes: 4, RespBytes: 2},
		{Name: "mid", Slave: 40, High: true, Period: 100_000, Deadline: 50_000, Offset: 5, ReqBytes: 4, RespBytes: 2},
		{Name: "tight", Slave: 40, High: true, Period: 100_000, Deadline: 2_000, Offset: 10, ReqBytes: 4, RespBytes: 2},
	}
	run := func(pol ap.Policy) []StreamStats {
		cfg := testConfig(50_000,
			MasterConfig{Addr: 1},
			MasterConfig{Addr: 2, Streams: streams, Dispatcher: pol})
		cfg.Horizon = 60_000
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.PerMaster[1].PerStream
	}

	fcfs := run(ap.FCFS)
	dm := run(ap.DM)
	edf := run(ap.EDF)

	// FCFS: arrival order loose(0), mid(5), tight(10):
	// tight completes third.
	if !(fcfs[2].WorstResponse > fcfs[1].WorstResponse &&
		fcfs[1].WorstResponse > fcfs[0].WorstResponse) {
		t.Errorf("FCFS order unexpected: %v %v %v",
			fcfs[0].WorstResponse, fcfs[1].WorstResponse, fcfs[2].WorstResponse)
	}
	// DM/EDF: "loose" was committed to the stack slot at release (it
	// arrived first to an empty slot) — the paper's one-request
	// blocking. After it, "tight" overtakes "mid".
	for name, rs := range map[string][]StreamStats{"DM": dm, "EDF": edf} {
		if rs[2].WorstResponse >= rs[1].WorstResponse {
			t.Errorf("%s: tight (%v) must beat mid (%v)", name,
				rs[2].WorstResponse, rs[1].WorstResponse)
		}
		if rs[2].WorstResponse >= fcfs[2].WorstResponse {
			t.Errorf("%s: tight must improve on FCFS (%v vs %v)", name,
				rs[2].WorstResponse, fcfs[2].WorstResponse)
		}
	}
}

func TestFaultInjectionRetries(t *testing.T) {
	cfg := testConfig(10_000, MasterConfig{
		Addr:    1,
		Streams: []StreamConfig{stdStream("s", 1000, 100_000)},
	})
	cfg.Faults.CycleFailProb = 0.6
	cfg.Seed = 3
	cfg.Bus.MaxRetry = 1
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.PerMaster[0].PerStream[0]
	if st.Retries == 0 {
		t.Error("expected retries under fault injection")
	}
	if st.Failed == 0 {
		t.Error("expected some exhausted-retry failures at p=0.6, retry=1")
	}
	if st.Completed == 0 {
		t.Error("expected some successes too")
	}
	if st.Completed+st.Failed+st.Censored != st.Released {
		t.Errorf("accounting broken: %d+%d+%d != %d",
			st.Completed, st.Failed, st.Censored, st.Released)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := testConfig(5_000, MasterConfig{
		Addr: 1,
		Streams: []StreamConfig{
			func() StreamConfig { s := stdStream("s", 777, 4000); s.Jitter = 50; return s }(),
		},
	})
	cfg.Jitter = JitterRandom
	cfg.Faults.CycleFailProb = 0.2
	cfg.Seed = 99
	a, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := a.PerMaster[0].PerStream[0], b.PerMaster[0].PerStream[0]
	if !reflect.DeepEqual(sa, sb) {
		t.Errorf("same seed diverged: %+v vs %+v", sa, sb)
	}
}

func TestJitterAdversarialDelaysFirstRelease(t *testing.T) {
	s := stdStream("s", 10_000, 100_000)
	s.Jitter = 500
	cfg := testConfig(10_000, MasterConfig{Addr: 1, Streams: []StreamConfig{s}})
	cfg.Jitter = JitterAdversarial
	cfg.Horizon = 30_000
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.PerMaster[0].PerStream[0]
	// First request ready at 500 but anchored at 0: response includes
	// the jitter plus queueing/transmission.
	if st.WorstResponse < 500+stdCycleTicks {
		t.Errorf("worst %d should include jitter 500 + cycle", st.WorstResponse)
	}
}

func TestResultHelpers(t *testing.T) {
	cfg := testConfig(10_000, MasterConfig{
		Addr:    1,
		Streams: []StreamConfig{stdStream("s", 1000, 10)}, // hopeless deadline
	})
	cfg.Horizon = 10_000
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AnyMiss() {
		t.Error("10-tick deadline must be missed")
	}
	if res.WorstTRR() < 0 {
		t.Error("WorstTRR negative")
	}
	var empty MasterStats
	if empty.MeanTRR() != 0 {
		t.Error("MeanTRR of no arrivals must be 0")
	}
	var es StreamStats
	if es.MeanResponse() != 0 {
		t.Error("MeanResponse of empty stats must be 0")
	}
}
