package core_test

// Cross-validation of the Section 3/4 message analyses against the
// bit-time-accurate PROFIBUS simulator: for every randomly generated
// network that the analysis declares schedulable, the simulated worst
// response must stay below the analytic bound and the observed token
// rotation below T_cycle. These tests are the in-tree versions of
// experiments E6/E7/E9/E10.

import (
	"math/rand"
	"testing"

	"profirt/internal/ap"
	"profirt/internal/core"
	"profirt/internal/fdl"
	"profirt/internal/profibus"
)

// buildScenario generates a random simulator configuration and the
// analytic network derived from it. All masters use the given
// dispatcher.
func buildScenario(rng *rand.Rand, dispatcher ap.Policy, ttr core.Ticks) (core.Network, profibus.Config) {
	bus := fdl.DefaultBusParams()
	bus.MaxRetry = 0 // deterministic cycle lengths unless faults injected

	nMasters := 2 + rng.Intn(2)
	cfg := profibus.Config{
		Bus:     bus,
		TTR:     ttr,
		Horizon: 600_000,
		Slaves:  []profibus.SlaveConfig{{Addr: 50, TSDR: bus.TSDRmax}},
		Jitter:  profibus.JitterAdversarial,
		Seed:    rng.Int63(),
	}
	for k := 0; k < nMasters; k++ {
		mc := profibus.MasterConfig{Addr: byte(k + 1), Dispatcher: dispatcher}
		nStreams := 1 + rng.Intn(3)
		for s := 0; s < nStreams; s++ {
			period := core.Ticks(20_000 + rng.Intn(60_000))
			mc.Streams = append(mc.Streams, profibus.StreamConfig{
				Name:      "s",
				Slave:     50,
				High:      true,
				Period:    period,
				Deadline:  period - core.Ticks(rng.Intn(int(period)/4)),
				Jitter:    core.Ticks(rng.Intn(2_000)),
				Offset:    core.Ticks(rng.Intn(5_000)),
				ReqBytes:  rng.Intn(16),
				RespBytes: rng.Intn(16),
			})
		}
		cfg.Masters = append(cfg.Masters, mc)
	}
	return profibus.Network(cfg), cfg
}

func TestTokenCycleBoundsSimulatedRotation(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 25; trial++ {
		net, cfg := buildScenario(rng, ap.FCFS, 8_000)
		res, err := profibus.Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bound := net.TokenCycle()
		if got := res.WorstTRR(); got > bound {
			t.Fatalf("trial %d: observed TRR %d > T_cycle bound %d", trial, got, bound)
		}
		// The refined bound must hold as well.
		if got := res.WorstTRR(); got > net.RefinedTokenCycle() {
			t.Fatalf("trial %d: observed TRR %d > refined bound %d",
				trial, got, net.RefinedTokenCycle())
		}
	}
}

func TestFCFSBoundVsSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	asserted := 0
	for trial := 0; trial < 30; trial++ {
		net, cfg := buildScenario(rng, ap.FCFS, 5_000)
		ok, verdicts := core.FCFSSchedulable(net)
		if !ok {
			continue // Eq. 11's one-pending-per-stream premise needs schedulability
		}
		res, err := profibus.Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		vi := 0
		for mi, m := range res.PerMaster {
			for si, st := range m.PerStream {
				bound := verdicts[vi].R
				vi++
				if st.WorstResponse > bound {
					t.Fatalf("trial %d master %d stream %d: simulated %d > Eq.11 bound %d",
						trial, mi, si, st.WorstResponse, bound)
				}
				if st.Missed > 0 {
					t.Fatalf("trial %d: deadline miss in an Eq.12-schedulable net", trial)
				}
				asserted++
			}
		}
	}
	if asserted == 0 {
		t.Error("no schedulable scenarios generated — test workload degenerate")
	}
}

func TestDMBoundVsSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	asserted := 0
	for trial := 0; trial < 30; trial++ {
		net, cfg := buildScenario(rng, ap.DM, 5_000)
		ok, verdicts := core.DMSchedulable(net, core.DMOptions{})
		if !ok {
			continue
		}
		res, err := profibus.Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		vi := 0
		for mi, m := range res.PerMaster {
			for si, st := range m.PerStream {
				bound := verdicts[vi].R
				vi++
				if st.WorstResponse > bound {
					t.Fatalf("trial %d master %d stream %d: simulated %d > revised Eq.16 bound %d",
						trial, mi, si, st.WorstResponse, bound)
				}
				if st.Missed > 0 {
					t.Fatalf("trial %d: deadline miss under schedulable DM verdicts", trial)
				}
				asserted++
			}
		}
	}
	if asserted == 0 {
		t.Error("no schedulable DM scenarios generated")
	}
}

func TestEDFBoundVsSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	asserted := 0
	for trial := 0; trial < 30; trial++ {
		net, cfg := buildScenario(rng, ap.EDF, 5_000)
		ok, verdicts := core.EDFSchedulableNet(net, core.EDFOptions{})
		if !ok {
			continue
		}
		res, err := profibus.Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		vi := 0
		for mi, m := range res.PerMaster {
			for si, st := range m.PerStream {
				bound := verdicts[vi].R
				vi++
				if st.WorstResponse > bound {
					t.Fatalf("trial %d master %d stream %d: simulated %d > Eq.17/18 bound %d",
						trial, mi, si, st.WorstResponse, bound)
				}
				asserted++
			}
		}
	}
	if asserted == 0 {
		t.Error("no schedulable EDF scenarios generated")
	}
}

// With fault injection within the modelled retry budget, the worst-case
// cycle lengths C_hi (which include MaxRetry failed attempts) must still
// bound behaviour for streams the analysis accepts.
func TestBoundsHoldUnderRetries(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	asserted := 0
	for trial := 0; trial < 12; trial++ {
		net, cfg := buildScenario(rng, ap.FCFS, 6_000)
		// Allow one retry (C_hi grows with it) and inject rare failures.
		cfg.Bus.MaxRetry = 1
		cfg.Faults.CycleFailProb = 0.05
		net = profibus.Network(cfg)
		ok, verdicts := core.FCFSSchedulable(net)
		if !ok {
			continue
		}
		res, err := profibus.Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		vi := 0
		for _, m := range res.PerMaster {
			for _, st := range m.PerStream {
				bound := verdicts[vi].R
				vi++
				if st.WorstResponse > bound {
					t.Fatalf("trial %d: simulated %d > bound %d under retries",
						trial, st.WorstResponse, bound)
				}
				asserted++
			}
		}
		if res.WorstTRR() > net.TokenCycle() {
			t.Fatalf("trial %d: rotation bound violated under retries", trial)
		}
	}
	if asserted == 0 {
		t.Skip("no schedulable scenarios under retry-inflated cycles")
	}
}
