package profirt_test

import (
	"math/rand"
	"testing"

	"profirt"
	"profirt/internal/profibus"
)

// This file holds the safety property the whole repository rests on:
// for any network the simulator can execute, the analytic DM/EDF
// worst-case response-time bound must never fall below the simulator's
// observed worst case. The networks are drawn from a seeded generator
// and the check is table-driven over (seed, dispatcher, jitter mode),
// so a regression in either the analyses or the simulator reproduces
// deterministically.

// randomSimConfig draws a small but varied single-segment network: 1–3
// masters, 1–3 high-priority streams each (plus an occasional
// low-priority stream), random payloads, periods, deadlines and release
// jitter.
func randomSimConfig(rng *rand.Rand, dispatcher profirt.QueuePolicy, jitter profirt.SimConfig) profirt.SimConfig {
	cfg := jitter
	cfg.Bus = profirt.DefaultBusParams()
	cfg.TTR = 1_000 + profirt.Ticks(rng.Int63n(4_000))
	cfg.Horizon = 500_000
	cfg.Slaves = []profirt.SimSlaveConfig{{Addr: 30, TSDR: 11 + profirt.Ticks(rng.Int63n(50))}}
	periods := []profirt.Ticks{10_000, 20_000, 40_000, 80_000}
	nMasters := 1 + rng.Intn(3)
	for mi := 0; mi < nMasters; mi++ {
		mc := profirt.SimMasterConfig{Addr: byte(mi + 1), Dispatcher: dispatcher}
		nStreams := 1 + rng.Intn(3)
		for si := 0; si < nStreams; si++ {
			p := periods[rng.Intn(len(periods))]
			d := p/2 + profirt.Ticks(rng.Int63n(int64(p/2)+1))
			mc.Streams = append(mc.Streams, profirt.SimStreamConfig{
				Name:      "s",
				Slave:     30,
				High:      true,
				Period:    p,
				Deadline:  d,
				Jitter:    profirt.Ticks(rng.Int63n(600)),
				Offset:    profirt.Ticks(rng.Int63n(2_000)),
				ReqBytes:  rng.Intn(17),
				RespBytes: rng.Intn(17),
			})
		}
		if rng.Intn(2) == 0 {
			mc.Streams = append(mc.Streams, profirt.SimStreamConfig{
				Name:     "low",
				Slave:    30,
				High:     false,
				Period:   100_000,
				Deadline: 100_000,
				ReqBytes: rng.Intn(33),
			})
		}
		cfg.Masters = append(cfg.Masters, mc)
	}
	return cfg
}

// analyticBounds runs the dispatcher-matching analysis and returns the
// per-stream bounds in master order then high-stream order.
func analyticBounds(t *testing.T, net profirt.Network, dispatcher profirt.QueuePolicy) []profirt.StreamVerdict {
	t.Helper()
	var verdicts []profirt.StreamVerdict
	switch dispatcher {
	case profirt.DM:
		_, verdicts = profirt.DMSchedulable(net, profirt.DMMessageOptions{})
	case profirt.EDF:
		_, verdicts = profirt.EDFSchedulableNet(net, profirt.EDFMessageOptions{})
	default:
		t.Fatalf("unsupported dispatcher %v", dispatcher)
	}
	return verdicts
}

// TestAnalysisNeverBelowSimulation is the cross-validation property
// test: across randomized networks, dispatchers and jitter
// realisations, every finite analytic bound must dominate the simulated
// worst case of its stream (censored requests included — a pending
// request's horizon − release is a lower bound on its true response).
func TestAnalysisNeverBelowSimulation(t *testing.T) {
	finite := 0
	for _, dispatcher := range []profirt.QueuePolicy{profirt.DM, profirt.EDF} {
		for _, jm := range []struct {
			name string
			mode profirt.SimConfig
		}{
			{"none", profirt.SimConfig{}},
			{"random", profirt.SimConfig{Jitter: profirt.SimJitterRandom}},
			{"adversarial", profirt.SimConfig{Jitter: profirt.SimJitterAdversarial}},
		} {
			for seed := int64(1); seed <= 12; seed++ {
				rng := rand.New(rand.NewSource(seed * 7919))
				cfg := randomSimConfig(rng, dispatcher, jm.mode)
				cfg.Seed = seed
				net := profirt.NetworkFromSimConfig(cfg)
				verdicts := analyticBounds(t, net, dispatcher)
				res, err := profibus.Simulate(cfg)
				if err != nil {
					t.Fatalf("%v/%s/seed %d: %v", dispatcher, jm.name, seed, err)
				}
				vi := 0
				for mi, m := range res.PerMaster {
					for si, st := range m.PerStream {
						if !cfg.Masters[mi].Streams[si].High {
							continue
						}
						bound := verdicts[vi].R
						vi++
						if bound == profirt.MaxTicks {
							continue
						}
						finite++
						if st.WorstResponse > bound {
							t.Errorf("%v/%s/seed %d: master %d stream %d observed %v > analytic bound %v",
								dispatcher, jm.name, seed, mi, si, st.WorstResponse, bound)
						}
					}
				}
				if vi != len(verdicts) {
					t.Fatalf("verdict/stream mismatch: walked %d of %d", vi, len(verdicts))
				}
			}
		}
	}
	// The property is vacuous if every bound diverges; the generator is
	// tuned so most draws stay analysable.
	if finite < 100 {
		t.Fatalf("only %d finite analytic bounds across the population; generator degenerated", finite)
	}
}
