// Command profisched runs the paper's pre-run-time schedulability
// analyses on a JSON network description: the Eq. 13/14 token-cycle
// bounds, the FCFS test (Eqs. 11–12), the Eq. 15 T_TR rule, and the
// DM/EDF message response-time analyses (Eqs. 16–18).
//
// Usage:
//
//	profisched [-format plain|md|csv] network.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"profirt"
	"profirt/internal/configfile"
	"profirt/internal/core"
	"profirt/internal/stats"
)

func main() {
	format := flag.String("format", "plain", "output format: plain, md or csv")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: profisched [-format plain|md|csv] network.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	net, _, err := configfile.Load(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "profisched: %v\n", err)
		os.Exit(1)
	}
	// The Engine runs the three per-policy analyses (one network is one
	// batch entry); the token-cycle summary reads closed-form bounds
	// straight off the model.
	eng := profirt.NewEngine()
	defer eng.Close()
	batch, err := eng.AnalyzeNetworks(context.Background(), []profirt.Network{net}, profirt.AnalyzeOptions{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "profisched: %v\n", err)
		os.Exit(1)
	}
	verdicts := batch[0]
	tables := analyse(net, verdicts)
	for _, t := range tables {
		if err := profirt.RenderTable(os.Stdout, t, *format); err != nil {
			fmt.Fprintf(os.Stderr, "profisched: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

func analyse(net core.Network, verdicts profirt.BatchResult) []*stats.Table {
	sum := stats.NewTable("Token-cycle analysis (Eqs. 13-14)", "quantity", "bit times")
	sum.AddRow("TTR", net.TTR)
	sum.AddRow("T_del (Eq. 13)", net.TokenDelay())
	sum.AddRow("T_cycle (Eq. 14)", net.TokenCycle())
	sum.AddRow("refined T_del", net.RefinedTokenDelay())
	sum.AddRow("refined T_cycle", net.RefinedTokenCycle())
	if ttr, err := core.MaxTTR(net); err == nil {
		sum.AddRow("max TTR by Eq. 15", ttr)
	} else {
		sum.AddRow("max TTR by Eq. 15", fmt.Sprintf("infeasible (%v)", err))
	}

	per := stats.NewTable("Per-stream worst-case response times",
		"master", "stream", "D", "R FCFS (Eq.11)", "R DM (Eq.16 rev)", "R EDF (Eq.17/18)", "FCFS ok", "DM ok", "EDF ok")
	fv, dv, ev := verdicts.FCFS.Verdicts, verdicts.DM.Verdicts, verdicts.EDF.Verdicts
	for i := range fv {
		per.AddRow(fv[i].Master, fv[i].Stream, fv[i].D,
			fv[i].R, dv[i].R, ev[i].R,
			fv[i].OK, dv[i].OK, ev[i].OK)
	}
	return []*stats.Table{sum, per}
}
