// Command profisim simulates a PROFIBUS network described by a JSON
// file and reports per-stream response-time statistics alongside the
// analytic bounds, so analysis pessimism is visible at a glance.
//
// With -topology the file describes a bridged multi-segment
// installation instead: every segment is simulated as its own shard on
// a worker pool, relayed releases are exchanged at the bridges, and the
// report adds per-relay end-to-end observations against the composed
// analytic bounds.
//
// Usage:
//
//	profisim [-horizon N] [-seed N] [-format plain|md|csv] network.json
//	profisim -topology [-parallel N] [-seed N] [-format plain|md|csv] topology.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"profirt"
	"profirt/internal/configfile"
	"profirt/internal/core"
	"profirt/internal/profibus"
	"profirt/internal/stats"
	"profirt/internal/topology"
)

func main() {
	topo := flag.Bool("topology", false, "treat the file as a bridged multi-segment topology")
	horizon := flag.Int64("horizon", 0, "override simulation horizon (bit times)")
	seed := flag.Int64("seed", -1, "override random seed")
	parallel := flag.Int("parallel", 0, "segment worker pool size for -topology (0 = GOMAXPROCS)")
	format := flag.String("format", "plain", "output format: plain, md or csv")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: profisim [flags] network.json\n")
		fmt.Fprintf(os.Stderr, "       profisim -topology [flags] topology.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	// One Engine owns the worker pool for both modes; the topology
	// path fans its per-round segment shards out on it.
	eng := profirt.NewEngine(profirt.WithParallelism(*parallel))
	defer eng.Close()
	var tables []*stats.Table
	var err error
	if *topo {
		tables, err = runTopology(eng, flag.Arg(0), *horizon, *seed)
	} else {
		tables, err = runSingle(eng, flag.Arg(0), *horizon, *seed)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "profisim: %v\n", err)
		os.Exit(1)
	}
	for _, t := range tables {
		if err := profirt.RenderTable(os.Stdout, t, *format); err != nil {
			fmt.Fprintf(os.Stderr, "profisim: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

func runSingle(eng *profirt.Engine, path string, horizon, seed int64) ([]*stats.Table, error) {
	net, cfg, err := configfile.Load(path)
	if err != nil {
		return nil, err
	}
	if horizon > 0 {
		cfg.Horizon = core.Ticks(horizon)
	}
	if seed >= 0 {
		cfg.Seed = seed
	}
	res, err := eng.Simulate(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	return report(net, cfg, res), nil
}

func runTopology(eng *profirt.Engine, path string, horizon, seed int64) ([]*stats.Table, error) {
	top, err := configfile.LoadTopology(path)
	if err != nil {
		return nil, err
	}
	if horizon > 0 {
		for i := range top.Segments {
			top.Segments[i].Cfg.Horizon = core.Ticks(horizon)
		}
	}
	if seed >= 0 {
		top.Seed = seed
	}
	anas, err := eng.AnalyzeTopologies(context.Background(), []profirt.Topology{top}, profirt.TopologyAnalyzeOptions{})
	if err != nil {
		return nil, err
	}
	if anas[0].Err != nil {
		return nil, anas[0].Err
	}
	res, err := eng.SimulateTopology(context.Background(), top, profirt.TopologySimulateOptions{})
	if err != nil {
		return nil, err
	}
	return topologyReport(top, anas[0].Result, res), nil
}

func report(net core.Network, cfg profibus.Config, res profibus.Result) []*stats.Table {
	ring := stats.NewTable("Token ring", "master", "arrivals", "worst TRR", "mean TRR", "late tokens", "TTH overruns")
	for i, m := range res.PerMaster {
		ring.AddRow(cfg.Masters[i].Addr, m.TokenArrivals, m.WorstTRR,
			fmt.Sprintf("%.0f", m.MeanTRR()), m.LateTokens, m.TTHOverruns)
	}
	ring.Note = fmt.Sprintf("analytic T_cycle bound: %v (refined %v); horizon %v",
		net.TokenCycle(), net.RefinedTokenCycle(), cfg.Horizon)

	streams := stats.NewTable("Per-stream results",
		"master", "stream", "released", "completed", "missed", "worst resp", "mean resp", "retries")
	for mi, m := range res.PerMaster {
		for si, st := range m.PerStream {
			sc := cfg.Masters[mi].Streams[si]
			streams.AddRow(cfg.Masters[mi].Addr, sc.Name, st.Released, st.Completed,
				st.Missed, st.WorstResponse, fmt.Sprintf("%.0f", st.MeanResponse()), st.Retries)
		}
	}
	return []*stats.Table{ring, streams}
}

// topologyReport renders one summary table per segment plus the
// bridge-level end-to-end comparison.
func topologyReport(top topology.Topology, ana topology.Result, res topology.SimResult) []*stats.Table {
	var out []*stats.Table
	for i, seg := range res.Segments {
		rep := ana.Segments[i]
		t := stats.NewTable(fmt.Sprintf("Segment %s (%v)", seg.Name, rep.Policy),
			"master", "stream", "released", "completed", "missed", "worst resp", "analytic R", "D", "ok")
		vi := 0
		cfg := top.Segments[i].Cfg
		for mi, m := range seg.Result.PerMaster {
			for si, st := range m.PerStream {
				sc := cfg.Masters[mi].Streams[si]
				if !sc.High {
					t.AddRow(cfg.Masters[mi].Addr, sc.Name, st.Released, st.Completed,
						st.Missed, st.WorstResponse, "-", "-", "-")
					continue
				}
				v := rep.Verdicts[vi]
				vi++
				t.AddRow(cfg.Masters[mi].Addr, sc.Name, st.Released, st.Completed,
					st.Missed, st.WorstResponse, v.R, v.D, v.OK)
			}
		}
		t.Note = fmt.Sprintf("analytic T_cycle bound: %v; horizon %v; rounds %d; converged %v",
			rep.TokenCycle, cfg.Horizon, res.Rounds, res.Converged)
		out = append(out, t)
	}
	relays := stats.NewTable("Bridge relays (end-to-end)",
		"bridge", "relay", "relayed", "completed", "missed", "worst E2E", "mean E2E", "analytic E2E", "deadline", "ok")
	for i, r := range res.Relays {
		a := ana.Relays[i]
		relays.AddRow(r.Bridge, r.Name, r.Relayed, r.Completed, r.Missed,
			r.WorstEndToEnd, fmt.Sprintf("%.0f", r.MeanEndToEnd()), a.EndToEnd, a.Deadline, a.OK)
	}
	if len(res.Relays) > 0 {
		out = append(out, relays)
	}
	return out
}
