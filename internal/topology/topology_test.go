package topology

import (
	"reflect"
	"strings"
	"testing"

	"profirt/internal/ap"
	"profirt/internal/core"
	"profirt/internal/fdl"
	"profirt/internal/memo"
	"profirt/internal/profibus"
	"profirt/internal/timeunit"
)

const (
	testTTR     = 2_000
	testPeriod  = 20_000
	testHorizon = 400_000
	testLatency = 500
)

// simSegment builds a one-master, one-slave ring with the given
// high-priority streams.
func simSegment(name string, dispatcher ap.Policy, streams ...profibus.StreamConfig) SimSegment {
	return SimSegment{
		Name: name,
		Cfg: profibus.Config{
			Bus:     fdl.DefaultBusParams(),
			TTR:     testTTR,
			Horizon: testHorizon,
			Masters: []profibus.MasterConfig{{Addr: 1, Dispatcher: dispatcher, Streams: streams}},
			Slaves:  []profibus.SlaveConfig{{Addr: 10, TSDR: 30}},
		},
	}
}

func simStream(name string, deadline Ticks) profibus.StreamConfig {
	return profibus.StreamConfig{
		Name:     name,
		Slave:    10,
		High:     true,
		Period:   testPeriod,
		Deadline: deadline,
		ReqBytes: 4, RespBytes: 4,
	}
}

// analyticTopology derives the matched analytic topology from a
// simulated one and sanity-checks the conversion.
func analyticTopology(t SimTopology) Topology {
	out := FromSim(t)
	for i, s := range out.Segments {
		if len(s.Net.Masters) != len(t.Segments[i].Cfg.Masters) {
			panic("FromSim dropped a master")
		}
	}
	return out
}

// twoSegment builds the hand-checked fixture: ring A's "sensor" stream
// is relayed onto ring B's "relayin" stream across one bridge.
func twoSegment(relayDeadline Ticks) SimTopology {
	return SimTopology{
		Seed: 1,
		Segments: []SimSegment{
			simSegment("A", ap.DM, simStream("sensor", testPeriod)),
			simSegment("B", ap.DM, simStream("relayin", relayDeadline)),
		},
		Bridges: []Bridge{{
			Name: "br", From: "A", To: "B", Latency: testLatency,
			Relays: []Relay{{
				Name: "r", FromStream: "sensor", ToStream: "relayin", Deadline: relayDeadline,
			}},
		}},
	}
}

// TestTwoSegmentHandChecked pins the analytic composition against
// closed-form values: with a single stream per ring, the DM bound is
// exactly the ring's token cycle, and the relayed stream's end-to-end
// bound is R_A + latency + R_B.
func TestTwoSegmentHandChecked(t *testing.T) {
	st := twoSegment(30_000)
	top := analyticTopology(st)
	res, err := Analyze(top, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("fixed point did not converge: %+v", res)
	}
	tcA := top.Segments[0].Net.TokenCycle()
	tcB := top.Segments[1].Net.TokenCycle()
	if got := res.Segments[0].Verdicts[0].R; got != tcA {
		t.Errorf("R_sensor = %v, want token cycle %v", got, tcA)
	}
	wantE2E := tcA + testLatency + tcB
	if got := res.Relays[0].EndToEnd; got != wantE2E {
		t.Errorf("relay end-to-end = %v, want R_A+latency+R_B = %v", got, wantE2E)
	}
	if res.Relays[0].FromResponse != tcA {
		t.Errorf("FromResponse = %v, want %v", res.Relays[0].FromResponse, tcA)
	}
	if !res.Schedulable {
		t.Errorf("fixture should be schedulable: %+v", res)
	}
}

// TestAnalysisSimAgreement is the acceptance fixture: the analysis and
// the sharded simulator must agree on schedulability for the
// hand-checked 2-segment topology, and every simulated observation must
// stay below its analytic bound.
func TestAnalysisSimAgreement(t *testing.T) {
	for _, tc := range []struct {
		name          string
		relayDeadline Ticks
		schedulable   bool
	}{
		{"schedulable", 30_000, true},
		// The deadline is below even one message cycle plus the bridge
		// latency, so every relayed request must miss in both views.
		{"unschedulable", 100, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := twoSegment(tc.relayDeadline)
			ana, err := Analyze(analyticTopology(st), Options{})
			if err != nil {
				t.Fatal(err)
			}
			sim, err := Simulate(st, SimOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !sim.Converged {
				t.Fatalf("simulation did not converge in %d rounds", sim.Rounds)
			}
			if ana.Schedulable != tc.schedulable {
				t.Errorf("analysis schedulable = %v, want %v", ana.Schedulable, tc.schedulable)
			}
			relay := sim.Relays[0]
			if relay.Relayed == 0 {
				t.Fatal("no requests were relayed")
			}
			simOK := relay.Missed == 0
			if simOK != tc.schedulable {
				t.Errorf("simulation missed %d of %d relayed requests, want schedulable = %v",
					relay.Missed, relay.Relayed, tc.schedulable)
			}
			if relay.WorstEndToEnd > ana.Relays[0].EndToEnd {
				t.Errorf("observed end-to-end %v exceeds analytic bound %v",
					relay.WorstEndToEnd, ana.Relays[0].EndToEnd)
			}
			worstSensor := sim.Segments[0].Result.PerMaster[0].PerStream[0].WorstResponse
			if bound := ana.Segments[0].Verdicts[0].R; worstSensor > bound {
				t.Errorf("observed sensor response %v exceeds analytic bound %v", worstSensor, bound)
			}
		})
	}
}

// threeSegmentChain relays ring A's "origin" onto B's "mid" and that
// onto C's "sink".
func threeSegmentChain() SimTopology {
	return SimTopology{
		Seed: 3,
		Segments: []SimSegment{
			simSegment("A", ap.DM, simStream("origin", testPeriod)),
			simSegment("B", ap.DM, simStream("mid", 40_000)),
			simSegment("C", ap.EDF, simStream("sink", 60_000)),
		},
		Bridges: []Bridge{
			{Name: "ab", From: "A", To: "B", Latency: testLatency, Relays: []Relay{
				{Name: "a2b", FromStream: "origin", ToStream: "mid", Deadline: 40_000},
			}},
			{Name: "bc", From: "B", To: "C", Latency: testLatency, Relays: []Relay{
				{Name: "b2c", FromStream: "mid", ToStream: "sink", Deadline: 60_000},
			}},
		},
	}
}

// TestThreeSegmentChain relays A → B → C and checks origin anchoring:
// the second hop's analytic bound strictly contains the first hop's,
// and the simulator's observed chain delay stays below it.
func TestThreeSegmentChain(t *testing.T) {
	st := threeSegmentChain()
	ana, err := Analyze(analyticTopology(st), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ana.Converged || !ana.Schedulable {
		t.Fatalf("chain should converge schedulable: %+v", ana)
	}
	first, second := ana.Relays[0], ana.Relays[1]
	if second.EndToEnd <= first.EndToEnd {
		t.Errorf("second hop bound %v should exceed first hop bound %v (origin anchoring)",
			second.EndToEnd, first.EndToEnd)
	}
	sim, err := Simulate(st, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sim.Converged {
		t.Fatalf("chain simulation did not converge in %d rounds", sim.Rounds)
	}
	for i, r := range sim.Relays {
		if r.Relayed == 0 {
			t.Fatalf("relay %q forwarded nothing", r.Name)
		}
		if r.Missed != 0 {
			t.Errorf("relay %q missed %d requests", r.Name, r.Missed)
		}
		if r.WorstEndToEnd > ana.Relays[i].EndToEnd {
			t.Errorf("relay %q observed %v exceeds bound %v", r.Name, r.WorstEndToEnd, ana.Relays[i].EndToEnd)
		}
	}
	// The chain's observed delays must compose: the sink's worst
	// end-to-end covers at least the bridge latencies plus two cycles.
	if sim.Relays[1].WorstEndToEnd <= 2*testLatency {
		t.Errorf("chain end-to-end %v implausibly small", sim.Relays[1].WorstEndToEnd)
	}
}

// TestRelayBoundOriginAnchored pins the anchor rule on every relay of
// the fixtures and the determinism generator, as built and with every
// segment under each dispatcher: each segment bound includes the
// stream's inherited jitter, so a relay's end-to-end bound covers the
// source bound plus the latency.
func TestRelayBoundOriginAnchored(t *testing.T) {
	var tops []Topology
	for _, st := range []SimTopology{twoSegment(30_000), twoSegment(100), threeSegmentChain(), noisyTopology()} {
		tops = append(tops, analyticTopology(st))
		for _, pol := range []ap.Policy{ap.FCFS, ap.DM, ap.EDF} {
			top := analyticTopology(st)
			for i := range top.Segments {
				top.Segments[i].Dispatcher = pol
			}
			tops = append(tops, top)
		}
	}
	for k, top := range tops {
		res, err := Analyze(top, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Relays {
			if r.EndToEnd < r.FromResponse+r.Latency {
				t.Errorf("topology %d relay %q: EndToEnd %v < FromResponse %v + Latency %v",
					k, r.Name, r.EndToEnd, r.FromResponse, r.Latency)
			}
		}
	}
}

// TestValidationRejects exercises the structural checks shared by the
// analytic and simulated topologies.
func TestValidationRejects(t *testing.T) {
	base := func() SimTopology { return twoSegment(30_000) }
	for _, tc := range []struct {
		name    string
		mutate  func(*SimTopology)
		wantSub string
	}{
		{"duplicate segment", func(st *SimTopology) { st.Segments[1].Name = "A" }, "duplicate segment"},
		{"empty name", func(st *SimTopology) { st.Segments[0].Name = "" }, "must not be empty"},
		{"unknown segment", func(st *SimTopology) { st.Bridges[0].To = "Z" }, "unknown segment"},
		{"self bridge", func(st *SimTopology) { st.Bridges[0].To = "A" }, "to itself"},
		{"negative latency", func(st *SimTopology) { st.Bridges[0].Latency = -1 }, "non-negative"},
		{"no relays", func(st *SimTopology) { st.Bridges[0].Relays = nil }, "relays no streams"},
		{"unknown stream", func(st *SimTopology) { st.Bridges[0].Relays[0].FromStream = "nope" }, "not a high-priority stream"},
		{"bad deadline", func(st *SimTopology) { st.Bridges[0].Relays[0].Deadline = 0 }, "must be positive"},
		{"low-priority endpoint", func(st *SimTopology) {
			st.Segments[0].Cfg.Masters[0].Streams[0].High = false
		}, "not a high-priority stream"},
		{"double target", func(st *SimTopology) {
			st.Bridges[0].Relays = append(st.Bridges[0].Relays,
				Relay{Name: "r2", FromStream: "sensor", ToStream: "relayin", Deadline: 1})
		}, "targeted by relays"},
		{"ambiguous stream", func(st *SimTopology) {
			st.Segments[0].Cfg.Masters[0].Streams = append(st.Segments[0].Cfg.Masters[0].Streams,
				simStream("sensor", testPeriod))
		}, "ambiguous"},
		{"horizon mismatch", func(st *SimTopology) { st.Segments[1].Cfg.Horizon = testHorizon / 2 }, "horizon"},
		{"cyclic chain", func(st *SimTopology) {
			st.Bridges = append(st.Bridges, Bridge{
				Name: "back", From: "B", To: "A", Latency: 1,
				Relays: []Relay{{Name: "rb", FromStream: "relayin", ToStream: "sensor", Deadline: 1_000}},
			})
		}, "cyclic"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := base()
			tc.mutate(&st)
			err := st.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("Validate() = %v, want error containing %q", err, tc.wantSub)
			}
			if _, simErr := Simulate(st, SimOptions{}); simErr == nil {
				t.Error("Simulate accepted an invalid topology")
			}
		})
	}
}

// TestAnalyticValidation mirrors a couple of rejects on the analytic
// view (shared helper, distinct entry point).
func TestAnalyticValidation(t *testing.T) {
	top := analyticTopology(twoSegment(30_000))
	top.Bridges[0].Relays[0].ToStream = "nope"
	if _, err := Analyze(top, Options{}); err == nil ||
		!strings.Contains(err.Error(), "not a high-priority stream") {
		t.Errorf("Analyze() = %v, want unknown-stream error", err)
	}
	top = analyticTopology(twoSegment(30_000))
	top.Segments = nil
	if _, err := Analyze(top, Options{}); err == nil {
		t.Error("Analyze accepted an empty topology")
	}
}

// TestRelayFailedDeliveriesCountAsMissed injects faults on the
// destination ring: a relayed cycle abandoned after all retries is a
// lost delivery and must be reported Failed and Missed, never Pending,
// and the accounting must stay closed.
func TestRelayFailedDeliveriesCountAsMissed(t *testing.T) {
	st := twoSegment(30_000)
	st.Segments[1].Cfg.Faults.CycleFailProb = 0.6
	sim, err := Simulate(st, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := sim.Relays[0]
	if r.Failed == 0 {
		t.Fatal("fault injection produced no failed deliveries; raise the probability")
	}
	if r.Missed < r.Failed {
		t.Errorf("missed %d < failed %d: lost deliveries must count as misses", r.Missed, r.Failed)
	}
	if r.Completed+r.Failed+r.Pending != r.Relayed {
		t.Errorf("accounting broken: %d+%d+%d != %d", r.Completed, r.Failed, r.Pending, r.Relayed)
	}
}

// TestRelayDeadlineSumSaturates: a relay deadline accepted up to
// MaxTicks never misses, because origin + Deadline saturates instead
// of wrapping negative. It holds for completed deliveries and for one
// still pending at the horizon.
func TestRelayDeadlineSumSaturates(t *testing.T) {
	st := twoSegment(timeunit.MaxTicks)
	sim, err := Simulate(st, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := sim.Relays[0]
	if r.Relayed == 0 || r.Completed != r.Relayed || r.Missed != 0 {
		t.Errorf("relayed %d, completed %d, missed %d: want all completed, none missed", r.Relayed, r.Completed, r.Missed)
	}
	// Cut the horizon one tick after the last delivery's release, so
	// that request is relayed but still pending at the horizon.
	trace := sim.Segments[1].Result.PerMaster[0].PerStream[0].Trace
	cut := trace[len(trace)-1].Release + 1
	for i := range st.Segments {
		st.Segments[i].Cfg.Horizon = cut
	}
	if sim, err = Simulate(st, SimOptions{}); err != nil {
		t.Fatal(err)
	}
	if r := sim.Relays[0]; r.Pending != 1 || r.Missed != 0 {
		t.Errorf("horizon %d: pending %d, missed %d; want 1 pending, none missed", cut, r.Pending, r.Missed)
	}
}

// TestRelayTargetOwnsReleases checks the bridge really owns the target
// stream's release pattern: the relayed stream must release exactly as
// many requests as the source completed (shifted by latency), not its
// own periodic pattern.
func TestRelayTargetOwnsReleases(t *testing.T) {
	st := twoSegment(30_000)
	sim, err := Simulate(st, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	src := sim.Segments[0].Result.PerMaster[0].PerStream[0]
	dst := sim.Segments[1].Result.PerMaster[0].PerStream[0]
	if dst.Released != sim.Relays[0].Relayed {
		t.Errorf("target released %d, want relayed count %d", dst.Released, sim.Relays[0].Relayed)
	}
	if dst.Released == 0 || dst.Released > src.Completed {
		t.Errorf("target released %d, source completed %d", dst.Released, src.Completed)
	}
}

// cachedTopology is twoSegment's analytic topology with every segment
// on one dispatcher.
func cachedTopology(pol ap.Policy) Topology {
	top := analyticTopology(twoSegment(30_000))
	for i := range top.Segments {
		top.Segments[i].Dispatcher = pol
	}
	return top
}

// TestCachedResultMatchesUncached: analysing one topology twice on one
// cache must give the uncached Result both times, and the second
// analysis must be served from the per-master entries the first left
// behind (no new misses; FCFS never touches the cache).
func TestCachedResultMatchesUncached(t *testing.T) {
	for _, pol := range []ap.Policy{ap.FCFS, ap.DM, ap.EDF} {
		top := cachedTopology(pol)
		want, err := Analyze(top, Options{})
		if err != nil {
			t.Fatalf("%v: uncached: %v", pol, err)
		}
		opts := Options{Cache: memo.New(0)}
		miss, err := Analyze(top, opts)
		if err != nil {
			t.Fatalf("%v: cached miss: %v", pol, err)
		}
		before := opts.Cache.Stats()
		hit, err := Analyze(top, opts)
		if err != nil {
			t.Fatalf("%v: cached hit: %v", pol, err)
		}
		if !reflect.DeepEqual(miss, want) {
			t.Errorf("%v: cached miss diverged from uncached:\n%+v\nvs\n%+v", pol, miss, want)
		}
		if !reflect.DeepEqual(hit, want) {
			t.Errorf("%v: cached hit diverged from uncached:\n%+v\nvs\n%+v", pol, hit, want)
		}
		after := opts.Cache.Stats()
		if after.Misses != before.Misses || (pol != ap.FCFS) != (after.Hits > before.Hits) {
			t.Errorf("%v: second analysis: cache stats %+v -> %+v", pol, before, after)
		}
	}
}

// TestCachedResultsAreFresh: overwriting every verdict and relay report
// of a Result analysed on a cache must not reach the next analysis of
// the same topology on that cache.
func TestCachedResultsAreFresh(t *testing.T) {
	for _, pol := range []ap.Policy{ap.FCFS, ap.DM, ap.EDF} {
		top := cachedTopology(pol)
		want, err := Analyze(top, Options{})
		if err != nil {
			t.Fatalf("%v: uncached: %v", pol, err)
		}
		opts := Options{Cache: memo.New(0)}
		first, err := Analyze(top, opts)
		if err != nil {
			t.Fatalf("%v: first cached: %v", pol, err)
		}
		for _, seg := range first.Segments {
			for i := range seg.Verdicts {
				seg.Verdicts[i] = core.StreamVerdict{Master: "clobbered", Stream: "clobbered", R: -1}
			}
		}
		for i := range first.Relays {
			first.Relays[i] = RelayReport{Name: "clobbered", EndToEnd: -1}
		}
		second, err := Analyze(top, opts)
		if err != nil {
			t.Fatalf("%v: second cached: %v", pol, err)
		}
		if !reflect.DeepEqual(second, want) {
			t.Fatalf("%v: second cached Result diverged:\n%+v\nvs\n%+v", pol, second, want)
		}
	}
}
