// Multi-segment topology: two PROFIBUS token rings coupled by a
// store-and-forward bridge. A sensor stream on the "plant" ring is
// relayed onto the "control" ring, where a controller stream consumes
// it under an end-to-end deadline spanning both rings. The example
// builds one Topology and passes it to both workloads on one Engine:
// Engine.AnalyzeTopologies (per-segment verdicts + composed end-to-end
// bounds) and Engine.SimulateTopology (per-segment simulation shards on
// the Engine's shared pool, exchanging relayed releases at the bridge),
// showing the simulated worst cases staying below the analytic bounds.
// It then sweeps the bridge latency with the same AnalyzeTopologies
// call to find the largest store-and-forward delay the deadline
// tolerates.
//
// Run with: go run ./examples/multisegment
package main

import (
	"context"
	"fmt"

	"profirt"
)

func ring(streams ...profirt.SimStreamConfig) profirt.SimConfig {
	return profirt.SimConfig{
		Bus:     profirt.DefaultBusParams(),
		TTR:     2_000,
		Horizon: 2_000_000,
		Masters: []profirt.SimMasterConfig{
			{Addr: 1, Dispatcher: profirt.DM, Streams: streams},
		},
		Slaves: []profirt.SimSlaveConfig{{Addr: 30, TSDR: 30}},
	}
}

func buildTopology(latency profirt.Ticks) profirt.Topology {
	plant := ring(
		profirt.SimStreamConfig{Name: "sensor", Slave: 30, High: true,
			Period: 20_000, Deadline: 20_000, Jitter: 300, ReqBytes: 2, RespBytes: 6},
		profirt.SimStreamConfig{Name: "logging", Slave: 30, High: false,
			Period: 100_000, Deadline: 100_000, ReqBytes: 16},
	)
	control := ring(
		profirt.SimStreamConfig{Name: "setpoint", Slave: 30, High: true,
			Period: 40_000, Deadline: 20_000, ReqBytes: 4, RespBytes: 4},
		profirt.SimStreamConfig{Name: "sensor-relay", Slave: 30, High: true,
			Period: 20_000, Deadline: 40_000, ReqBytes: 6, RespBytes: 2},
	)
	plant.Jitter = profirt.SimJitterRandom
	return profirt.Topology{
		Seed: 1,
		Segments: []profirt.TopologySegment{
			{Name: "plant", Cfg: plant},
			{Name: "control", Cfg: control},
		},
		Bridges: []profirt.Bridge{{
			Name: "gateway", From: "plant", To: "control", Latency: latency,
			Relays: []profirt.Relay{{
				Name:       "sensor-e2e",
				FromStream: "sensor",
				ToStream:   "sensor-relay",
				Deadline:   40_000,
			}},
		}},
	}
}

func main() {
	top := buildTopology(1_000)

	// One Engine serves the single analysis, the sharded simulation and
	// the closing sweep.
	eng := profirt.NewEngine()
	defer eng.Close()
	ctx := context.Background()

	anas, err := eng.AnalyzeTopologies(ctx, []profirt.Topology{top}, profirt.TopologyAnalyzeOptions{})
	if err != nil {
		panic(err)
	}
	if anas[0].Err != nil {
		panic(anas[0].Err)
	}
	ana := anas[0].Result
	fmt.Printf("analysis: converged in %d iterations, schedulable = %v\n",
		ana.Iterations, ana.Schedulable)
	for _, seg := range ana.Segments {
		fmt.Printf("  segment %-8s (%v)  T_cycle %v\n", seg.Name, seg.Policy, seg.TokenCycle)
		for _, v := range seg.Verdicts {
			fmt.Printf("    %-14s R = %-8v D = %-8v ok = %v\n", v.Stream, v.R, v.D, v.OK)
		}
	}
	relay := ana.Relays[0]
	fmt.Printf("  relay %s: E2E bound %v (= source R %v + latency %v folded in), deadline %v\n\n",
		relay.Name, relay.EndToEnd, relay.FromResponse, relay.Latency, relay.Deadline)

	sim, err := eng.SimulateTopology(ctx, top, profirt.TopologySimulateOptions{})
	if err != nil {
		panic(err)
	}
	obs := sim.Relays[0]
	fmt.Printf("simulation: %d rounds, converged = %v\n", sim.Rounds, sim.Converged)
	fmt.Printf("  relayed %d requests: worst observed E2E %v, mean %.0f, missed %d\n",
		obs.Relayed, obs.WorstEndToEnd, obs.MeanEndToEnd(), obs.Missed)
	if obs.WorstEndToEnd > relay.EndToEnd {
		panic("observed end-to-end exceeded the analytic bound")
	}
	fmt.Printf("  observed/bound = %.0f%% (the analysis is safe, pessimism is visible)\n\n",
		100*float64(obs.WorstEndToEnd)/float64(relay.EndToEnd))

	// Sweep the bridge latency: how slow may the gateway be before the
	// end-to-end deadline breaks?
	latencies := []profirt.Ticks{1_000, 5_000, 10_000, 20_000, 25_000, 30_000}
	tops := make([]profirt.Topology, len(latencies))
	for i, l := range latencies {
		tops[i] = buildTopology(l)
	}
	fmt.Println("bridge-latency sweep (Engine.AnalyzeTopologies):")
	sweep, err := eng.AnalyzeTopologies(ctx, tops, profirt.TopologyAnalyzeOptions{})
	if err != nil {
		panic(err)
	}
	for i, r := range sweep {
		if r.Err != nil {
			panic(r.Err)
		}
		fmt.Printf("  latency %-6v E2E bound %-8v schedulable = %v\n",
			latencies[i], r.Result.Relays[0].EndToEnd, r.Result.Schedulable)
	}
}
