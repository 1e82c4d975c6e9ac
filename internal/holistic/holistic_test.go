package holistic

import (
	"reflect"
	"testing"

	"profirt/internal/ap"
	"profirt/internal/core"
	"profirt/internal/memo"
	"profirt/internal/sched"
	"profirt/internal/timeunit"
)

// cellConfig builds a small two-master system with comfortable
// deadlines: host tasks are light, so the fixed point should converge
// quickly and everything should be schedulable.
func cellConfig(dispatcher ap.Policy) Config {
	tx := func(name string, cGen, period, ch, dMsg, delivery, deadline Ticks) Transaction {
		return Transaction{
			Name: name,
			Generation: sched.Task{
				Name: name + ".gen", C: cGen, D: period / 2, T: period,
			},
			Stream:   core.Stream{Name: name + ".msg", Ch: ch, D: dMsg},
			Delivery: delivery,
			Deadline: deadline,
		}
	}
	return Config{
		TTR:       1_000,
		TokenPass: 70,
		Masters: []MasterSpec{
			{
				Name:       "plc",
				Dispatcher: dispatcher,
				Transactions: []Transaction{
					tx("press", 200, 20_000, 400, 10_000, 100, 16_000),
					tx("valve", 300, 40_000, 450, 20_000, 150, 30_000),
				},
			},
			{
				Name:       "drive",
				Dispatcher: dispatcher,
				LongestLow: 600,
				Transactions: []Transaction{
					tx("axis", 250, 30_000, 500, 15_000, 120, 24_000),
				},
			},
		},
	}
}

// TestCompositionOriginAnchored pins the composition on cellConfig.
// The message bound includes g, so on every finite transaction the
// delivery response past it is the rest of E, and the queuing share is
// what the bound leaves after g and C. On press's two-stream master the
// FCFS bound g + nh·T_cycle and the revised DM/EDF bounds (own visit +
// one blocking visit + J = g) coincide, so E must be equal under all
// three dispatchers; counting g once more in Q would make it 5080
// under DM and EDF.
func TestCompositionOriginAnchored(t *testing.T) {
	for _, pol := range []ap.Policy{ap.FCFS, ap.DM, ap.EDF} {
		res, err := Analyze(cellConfig(pol), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range res.Transactions {
			b, r := tr.Breakdown, tr.MessageResponse
			if b.Total() == timeunit.MaxTicks || r == timeunit.MaxTicks {
				continue
			}
			if b.Total() != r+b.Delivery {
				t.Errorf("%v %s: E = %v, want MessageResponse %v + d %v", pol, tr.Name, b.Total(), r, b.Delivery)
			}
			if b.Queuing != r-b.Generation-b.Cycle {
				t.Errorf("%v %s: Q = %v, want MessageResponse %v − g %v − C %v",
					pol, tr.Name, b.Queuing, r, b.Generation, b.Cycle)
			}
		}
		if press := res.Transactions[0]; press.Breakdown.Total() != 4880 {
			t.Errorf("%v press: E = %v, want 4880 (%+v)", pol, press.Breakdown.Total(), press.Breakdown)
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := Analyze(Config{}, nil); err == nil {
		t.Error("empty config must fail")
	}
	bad := cellConfig(ap.DM)
	bad.TTR = 0
	if _, err := Analyze(bad, nil); err == nil {
		t.Error("zero TTR must fail")
	}
	bad = cellConfig(ap.DM)
	bad.Masters[0].Transactions = nil
	if _, err := Analyze(bad, nil); err == nil {
		t.Error("empty master must fail")
	}
	bad = cellConfig(ap.DM)
	bad.Masters[0].Transactions[0].Generation.C = 0
	if _, err := Analyze(bad, nil); err == nil {
		t.Error("invalid generation task must fail")
	}
	bad = cellConfig(ap.DM)
	bad.Masters[0].Transactions[0].Stream.Ch = 0
	if _, err := Analyze(bad, nil); err == nil {
		t.Error("invalid stream must fail")
	}
	bad = cellConfig(ap.DM)
	bad.Masters[0].Transactions[0].Deadline = 0
	if _, err := Analyze(bad, nil); err == nil {
		t.Error("invalid deadline must fail")
	}
	bad = cellConfig(ap.DM)
	bad.TokenPass = -1
	if _, err := Analyze(bad, nil); err == nil {
		t.Error("negative token pass must fail")
	}
}

func TestConvergesAndSchedulable(t *testing.T) {
	for _, pol := range []ap.Policy{ap.FCFS, ap.DM, ap.EDF} {
		res, err := Analyze(cellConfig(pol), nil)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if !res.Converged {
			t.Fatalf("%v: fixed point did not converge in %d iterations", pol, res.Iterations)
		}
		if !res.Schedulable {
			t.Errorf("%v: cell should be schedulable: %+v", pol, res.Transactions)
		}
		if len(res.Transactions) != 3 {
			t.Fatalf("%v: transactions = %d, want 3", pol, len(res.Transactions))
		}
		for _, tr := range res.Transactions {
			e := tr.Breakdown
			if e.Generation <= 0 || e.Cycle <= 0 || e.Delivery <= 0 {
				t.Errorf("%v %s: degenerate breakdown %+v", pol, tr.Name, e)
			}
			if e.Total() > tr.Deadline {
				t.Errorf("%v %s: total %v exceeds deadline %v but OK=%v",
					pol, tr.Name, e.Total(), tr.Deadline, tr.OK)
			}
			// The message response covers at least one token cycle.
			if tr.MessageResponse < res.TokenCycle {
				t.Errorf("%v %s: message response %v below T_cycle %v",
					pol, tr.Name, tr.MessageResponse, res.TokenCycle)
			}
		}
	}
}

// The coupling must be genuine: inflating the delivery cost of one
// transaction raises the host interference and thereby the *other*
// transaction's generation response, message jitter and end-to-end
// bound.
func TestCouplingPropagates(t *testing.T) {
	base, err := Analyze(cellConfig(ap.DM), nil)
	if err != nil {
		t.Fatal(err)
	}
	heavy := cellConfig(ap.DM)
	heavy.Masters[0].Transactions[0].Delivery = 5_000 // press delivery blows up
	res, err := Analyze(heavy, nil)
	if err != nil {
		t.Fatal(err)
	}
	// valve (same master) must see a larger end-to-end bound.
	baseValve := base.Transactions[1].Breakdown.Total()
	heavyValve := res.Transactions[1].Breakdown.Total()
	if heavyValve <= baseValve {
		t.Errorf("coupling broken: valve E %v -> %v after inflating press delivery",
			baseValve, heavyValve)
	}
	// drive (other master) shares only the bus; its generation response
	// must be unchanged.
	if res.Transactions[2].Breakdown.Generation != base.Transactions[2].Breakdown.Generation {
		t.Error("cross-host interference should not exist")
	}
}

func TestJitterInheritanceRaisesMessageBound(t *testing.T) {
	// Two identical systems except one generation task is much slower,
	// which becomes message release jitter (Sec. 4.1) and must raise
	// the *other* stream's DM message bound on the same master.
	slow := cellConfig(ap.DM)
	slow.Masters[0].Transactions[1].Generation.C = 9_000 // valve gen slow
	res, err := Analyze(slow, nil)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Analyze(cellConfig(ap.DM), nil)
	if err != nil {
		t.Fatal(err)
	}
	// press has the tighter message deadline and outranks valve in the
	// DM queue, so press's bound is driven by blocking, not valve's
	// jitter; but valve's own message bound reflects its larger
	// generation response via the end-to-end total.
	if res.Transactions[1].Breakdown.Total() <= base.Transactions[1].Breakdown.Total() {
		t.Error("slower generation must grow the end-to-end bound")
	}
}

func TestInfeasibleHostReportsUnschedulable(t *testing.T) {
	cfg := cellConfig(ap.DM)
	// Saturate the host: generation C = T on one transaction.
	cfg.Masters[0].Transactions[0].Generation.C = 20_000
	cfg.Masters[0].Transactions[0].Generation.D = 20_000
	res, err := Analyze(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedulable {
		t.Error("saturated host must not be schedulable")
	}
	// The poisoned transactions report MaxTicks components rather than
	// bogus finite bounds.
	found := false
	for _, tr := range res.Transactions {
		if tr.Master == "plc" && !tr.OK {
			found = true
		}
	}
	if !found {
		t.Error("expected a failing plc transaction")
	}
}

func TestFCFSDominatedByPriorityQueues(t *testing.T) {
	// Under FCFS every message is charged nh·T_cycle; DM charges the
	// tight stream less on a 2-stream master (blocking + own = 2·T_c =
	// nh·T_c here), so compare on a 3-transaction master where the
	// difference is strict.
	cfg := cellConfig(ap.FCFS)
	cfg.Masters[0].Transactions = append(cfg.Masters[0].Transactions, Transaction{
		Name:       "extra",
		Generation: sched.Task{Name: "extra.gen", C: 100, D: 30_000, T: 60_000},
		Stream:     core.Stream{Name: "extra.msg", Ch: 420, D: 30_000},
		Delivery:   100,
		Deadline:   55_000,
	})
	fcfs, err := Analyze(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfgDM := cfg
	cfgDM.Masters = append([]MasterSpec(nil), cfg.Masters...)
	for k := range cfgDM.Masters {
		cfgDM.Masters[k].Dispatcher = ap.DM
	}
	dm, err := Analyze(cfgDM, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The tightest-deadline message on the 3-stream master (press) must
	// have a strictly smaller message bound under DM.
	if dm.Transactions[0].MessageResponse >= fcfs.Transactions[0].MessageResponse {
		t.Errorf("DM (%v) should beat FCFS (%v) for the tight stream",
			dm.Transactions[0].MessageResponse, fcfs.Transactions[0].MessageResponse)
	}
}

func TestDivergenceSaturatesNotOverflows(t *testing.T) {
	cfg := cellConfig(ap.DM)
	cfg.Masters[0].Transactions[0].Generation.C = 19_999
	cfg.Masters[0].Transactions[0].Generation.D = 20_000
	cfg.Masters[0].Transactions[1].Generation.C = 39_999
	res, err := Analyze(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Transactions {
		if tr.Breakdown.Generation < 0 || tr.MessageResponse < 0 {
			t.Errorf("%s: negative component after divergence: %+v", tr.Name, tr.Breakdown)
		}
	}
	if res.Schedulable {
		t.Error("overloaded host cannot be schedulable")
	}
	_ = timeunit.MaxTicks
}

// TestCachedResultMatchesUncached: analysing one configuration twice
// on one cache must give the uncached Result both times, and the second
// analysis must be served from the per-master entries the first left
// behind (no new misses; FCFS never touches the cache).
func TestCachedResultMatchesUncached(t *testing.T) {
	for _, pol := range []ap.Policy{ap.FCFS, ap.DM, ap.EDF} {
		cfg := cellConfig(pol)
		want, err := Analyze(cfg, nil)
		if err != nil {
			t.Fatalf("%v: uncached: %v", pol, err)
		}
		cache := memo.New(0)
		miss, err := Analyze(cfg, cache)
		if err != nil {
			t.Fatalf("%v: cached miss: %v", pol, err)
		}
		before := cache.Stats()
		hit, err := Analyze(cfg, cache)
		if err != nil {
			t.Fatalf("%v: cached hit: %v", pol, err)
		}
		if !reflect.DeepEqual(miss, want) {
			t.Errorf("%v: cached miss diverged from uncached:\n%+v\nvs\n%+v", pol, miss, want)
		}
		if !reflect.DeepEqual(hit, want) {
			t.Errorf("%v: cached hit diverged from uncached:\n%+v\nvs\n%+v", pol, hit, want)
		}
		after := cache.Stats()
		if after.Misses != before.Misses || (pol != ap.FCFS) != (after.Hits > before.Hits) {
			t.Errorf("%v: second analysis: cache stats %+v -> %+v", pol, before, after)
		}
	}
}

// TestCachedResultsAreFresh: overwriting every report of a Result
// analysed on a cache must not reach the next analysis of the same
// configuration on that cache.
func TestCachedResultsAreFresh(t *testing.T) {
	for _, pol := range []ap.Policy{ap.FCFS, ap.DM, ap.EDF} {
		cfg := cellConfig(pol)
		want, err := Analyze(cfg, nil)
		if err != nil {
			t.Fatalf("%v: uncached: %v", pol, err)
		}
		cache := memo.New(0)
		first, err := Analyze(cfg, cache)
		if err != nil {
			t.Fatalf("%v: first cached: %v", pol, err)
		}
		for i := range first.Transactions {
			first.Transactions[i] = TransactionReport{Master: "clobbered", Name: "clobbered", MessageResponse: -1}
		}
		second, err := Analyze(cfg, cache)
		if err != nil {
			t.Fatalf("%v: second cached: %v", pol, err)
		}
		if !reflect.DeepEqual(second, want) {
			t.Fatalf("%v: second cached Result diverged:\n%+v\nvs\n%+v", pol, second, want)
		}
	}
}

// TestCacheIsNameBlind: per-master entries are keyed on stream
// attributes only, so a configuration that differs only in names is
// served entirely from the first analysis's entries, yet its Result
// carries its own names.
func TestCacheIsNameBlind(t *testing.T) {
	cache := memo.New(0)
	if _, err := Analyze(cellConfig(ap.DM), cache); err != nil {
		t.Fatal(err)
	}
	renamed := cellConfig(ap.DM)
	for k := range renamed.Masters {
		m := &renamed.Masters[k]
		m.Name = "renamed-" + m.Name
		for x := range m.Transactions {
			tr := &m.Transactions[x]
			tr.Name = "renamed-" + tr.Name
			tr.Generation.Name = "renamed-" + tr.Generation.Name
			tr.Stream.Name = "renamed-" + tr.Stream.Name
		}
	}
	want, err := Analyze(renamed, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := cache.Stats()
	got, err := Analyze(renamed, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("renamed configuration on a shared cache:\n%+v\nvs uncached\n%+v", got, want)
	}
	if got.Transactions[0].Master != "renamed-plc" || got.Transactions[0].Name != "renamed-press" {
		t.Fatalf("report names %q/%q", got.Transactions[0].Master, got.Transactions[0].Name)
	}
	if after := cache.Stats(); after.Misses != before.Misses || after.Hits == before.Hits {
		t.Errorf("renamed configuration was not served from the shared entries: %+v -> %+v", before, after)
	}
}
