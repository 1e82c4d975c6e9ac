package profirt_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"profirt"
	"profirt/internal/workload"
)

// demoConfig builds a small two-master network through the public API.
func demoConfig() profirt.SimConfig {
	return profirt.SimConfig{
		Bus: profirt.DefaultBusParams(),
		TTR: 2_000,
		Masters: []profirt.SimMasterConfig{
			{
				Addr:       1,
				Dispatcher: profirt.DM,
				Streams: []profirt.SimStreamConfig{
					{Name: "loop", Slave: 30, High: true, Period: 20_000, Deadline: 15_000, ReqBytes: 2, RespBytes: 4},
					{Name: "bg", Slave: 30, High: false, Period: 100_000, Deadline: 100_000, ReqBytes: 8, RespBytes: 8},
				},
			},
			{
				Addr:       2,
				Dispatcher: profirt.DM,
				Streams: []profirt.SimStreamConfig{
					{Name: "poll", Slave: 30, High: true, Period: 40_000, Deadline: 30_000, ReqBytes: 4, RespBytes: 4},
				},
			},
		},
		Slaves:  []profirt.SimSlaveConfig{{Addr: 30, TSDR: 30}},
		Horizon: 400_000,
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	cfg := demoConfig()
	net := profirt.NetworkFromSimConfig(cfg)
	if len(net.Masters) != 2 {
		t.Fatalf("masters = %d, want 2", len(net.Masters))
	}
	if net.Masters[0].NH() != 1 || net.Masters[0].LongestLow == 0 {
		t.Error("master 1 model wrong")
	}
	if net.TokenPass == 0 {
		t.Error("token-pass overhead missing")
	}

	okDM, verdicts := profirt.DMSchedulable(net, profirt.DMMessageOptions{})
	if !okDM {
		t.Fatalf("demo network should be DM-schedulable: %+v", verdicts)
	}

	res, err := profirt.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vi := 0
	for mi, m := range res.PerMaster {
		for si, st := range m.PerStream {
			if !cfg.Masters[mi].Streams[si].High {
				continue
			}
			if st.WorstResponse > verdicts[vi].R {
				t.Errorf("stream %s: simulated %v > bound %v",
					verdicts[vi].Stream, st.WorstResponse, verdicts[vi].R)
			}
			vi++
		}
	}
}

func TestFacadeTaskAnalysis(t *testing.T) {
	ts := profirt.TaskSet{
		{Name: "a", C: 3, D: 7, T: 7},
		{Name: "b", C: 3, D: 12, T: 12},
		{Name: "c", C: 5, D: 20, T: 20},
	}
	ts = profirt.SortDM(ts)
	ok, rs := profirt.FPSchedulable(ts, profirt.FPOptions{Preemptive: true})
	if !ok || rs[2] != 20 {
		t.Errorf("classic set: ok=%v rs=%v", ok, rs)
	}
	if !profirt.EDFFeasiblePreemptive(ts).Feasible {
		t.Error("classic set must be EDF-feasible")
	}
	res, err := profirt.SimulateCPU(ts, profirt.CPUSimOptions{Policy: profirt.FPPreemptive})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerTask[2].WorstResponse != 20 {
		t.Errorf("simulated worst = %v, want 20", res.PerTask[2].WorstResponse)
	}
	if profirt.LiuLaylandBound(1) != 1 {
		t.Error("LL(1) must be 1")
	}
}

// batchNets draws a deterministic population of analytic networks.
func batchNets(t *testing.T, n int) []profirt.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	p := workload.DefaultStreamSetParams()
	nets := make([]profirt.Network, n)
	for i := range nets {
		nets[i], _ = workload.StreamSet(rng, p)
	}
	return nets
}

// analyzeNetworks runs nets through Engine.AnalyzeNetworks on a fresh
// Engine of the given pool width. The AnalyzeBatch* and
// AnalyzeTopologyBatch* tests below cover the Engine's two batch
// analysis methods through these helpers.
func analyzeNetworks(t *testing.T, ctx context.Context, width int, nets []profirt.Network) []profirt.BatchResult {
	t.Helper()
	eng := profirt.NewEngine(profirt.WithParallelism(width))
	defer eng.Close()
	out, err := eng.AnalyzeNetworks(ctx, nets, profirt.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// analyzeTopologies runs tops through Engine.AnalyzeTopologies on a
// fresh Engine of the given pool width.
func analyzeTopologies(t *testing.T, ctx context.Context, width int, tops []profirt.Topology) []profirt.TopologyBatchResult {
	t.Helper()
	eng := profirt.NewEngine(profirt.WithParallelism(width))
	defer eng.Close()
	out, err := eng.AnalyzeTopologies(ctx, tops, profirt.TopologyAnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAnalyzeBatchMatchesIndividual(t *testing.T) {
	nets := batchNets(t, 20)
	got := analyzeNetworks(t, context.Background(), 4, nets)
	if len(got) != len(nets) {
		t.Fatalf("results = %d, want %d", len(got), len(nets))
	}
	for i, r := range got {
		if r.Index != i {
			t.Errorf("result %d carries index %d", i, r.Index)
		}
		if r.Skipped {
			t.Errorf("result %d skipped without cancellation", i)
		}
		okF, vF := profirt.FCFSSchedulable(nets[i])
		okD, vD := profirt.DMSchedulable(nets[i], profirt.DMMessageOptions{})
		okE, vE := profirt.EDFSchedulableNet(nets[i], profirt.EDFMessageOptions{})
		if r.FCFS.Schedulable != okF || !reflect.DeepEqual(r.FCFS.Verdicts, vF) {
			t.Errorf("net %d: FCFS batch verdict diverges from FCFSSchedulable", i)
		}
		if r.DM.Schedulable != okD || !reflect.DeepEqual(r.DM.Verdicts, vD) {
			t.Errorf("net %d: DM batch verdict diverges from DMSchedulable", i)
		}
		if r.EDF.Schedulable != okE || !reflect.DeepEqual(r.EDF.Verdicts, vE) {
			t.Errorf("net %d: EDF batch verdict diverges from EDFSchedulableNet", i)
		}
	}
}

func TestAnalyzeBatchDeterministicAcrossParallelism(t *testing.T) {
	nets := batchNets(t, 30)
	seq := analyzeNetworks(t, context.Background(), 1, nets)
	par := analyzeNetworks(t, context.Background(), 8, nets)
	if !reflect.DeepEqual(seq, par) {
		t.Error("sequential and 8-worker batches disagree")
	}
}

func TestAnalyzeBatchCancellation(t *testing.T) {
	nets := batchNets(t, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, r := range analyzeNetworks(t, ctx, 0, nets) {
		if !r.Skipped {
			t.Errorf("net %d evaluated despite cancelled context", i)
		}
		if r.Index != i {
			t.Errorf("result %d carries index %d", i, r.Index)
		}
	}
}

func TestAnalyzeBatchEmpty(t *testing.T) {
	if got := analyzeNetworks(t, context.Background(), 0, nil); len(got) != 0 {
		t.Errorf("empty batch returned %d results", len(got))
	}
}

// demoTopology couples two copies of the demo network through one
// bridge relaying master 1's "loop" stream onto the second ring.
func demoTopology(relayDeadline profirt.Ticks) profirt.SimTopology {
	east := demoConfig()
	east.Masters[0].Streams[0].Name = "relayin"
	east.Masters[0].Streams[0].Deadline = relayDeadline
	return profirt.SimTopology{
		Seed: 11,
		Segments: []profirt.SimTopologySegment{
			{Name: "west", Cfg: demoConfig()},
			{Name: "east", Cfg: east},
		},
		Bridges: []profirt.Bridge{{
			Name: "wb", From: "west", To: "east", Latency: 700,
			Relays: []profirt.Relay{{
				Name: "loop-relay", FromStream: "loop", ToStream: "relayin", Deadline: relayDeadline,
			}},
		}},
	}
}

func TestFacadeTopology(t *testing.T) {
	st := demoTopology(60_000)
	top := profirt.TopologyFromSimTopology(st)
	ana, err := profirt.AnalyzeTopology(top, profirt.TopologyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !ana.Converged || !ana.Schedulable {
		t.Fatalf("demo topology should be schedulable: %+v", ana)
	}
	eng := profirt.NewEngine()
	defer eng.Close()
	sim, err := eng.SimulateTopology(context.Background(), st, profirt.TopologySimulateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sim.Converged {
		t.Fatalf("simulation did not converge in %d rounds", sim.Rounds)
	}
	if sim.Relays[0].Relayed == 0 || sim.Relays[0].Missed != 0 {
		t.Errorf("relay observed %+v, want traffic with no misses", sim.Relays[0])
	}
	if sim.Relays[0].WorstEndToEnd > ana.Relays[0].EndToEnd {
		t.Errorf("observed end-to-end %v exceeds analytic bound %v",
			sim.Relays[0].WorstEndToEnd, ana.Relays[0].EndToEnd)
	}
}

// batchTopologies sweeps the relay deadline so the batch holds a mix of
// schedulable and unschedulable entries plus one invalid topology.
func batchTopologies() []profirt.Topology {
	var tops []profirt.Topology
	for _, d := range []profirt.Ticks{100, 5_000, 20_000, 60_000, 120_000} {
		tops = append(tops, profirt.TopologyFromSimTopology(demoTopology(d)))
	}
	bad := profirt.TopologyFromSimTopology(demoTopology(60_000))
	bad.Bridges[0].To = "nowhere"
	return append(tops, bad)
}

func TestAnalyzeTopologyBatchMatchesIndividual(t *testing.T) {
	tops := batchTopologies()
	got := analyzeTopologies(t, context.Background(), 4, tops)
	if len(got) != len(tops) {
		t.Fatalf("results = %d, want %d", len(got), len(tops))
	}
	for i, r := range got {
		if r.Index != i {
			t.Errorf("result %d carries index %d", i, r.Index)
		}
		if r.Skipped {
			t.Errorf("result %d skipped without cancellation", i)
		}
		want, wantErr := profirt.AnalyzeTopology(tops[i], profirt.TopologyOptions{})
		if (r.Err == nil) != (wantErr == nil) {
			t.Errorf("topology %d: batch err %v, individual err %v", i, r.Err, wantErr)
		}
		if !reflect.DeepEqual(r.Result, want) {
			t.Errorf("topology %d: batch result diverges from AnalyzeTopology", i)
		}
	}
	if got[len(got)-1].Err == nil {
		t.Error("invalid topology produced no error")
	}
	if got[0].Result.Schedulable || !got[3].Result.Schedulable {
		t.Error("sweep should contain both verdicts")
	}
}

func TestAnalyzeTopologyBatchDeterministicAndCancelable(t *testing.T) {
	tops := batchTopologies()
	seq := analyzeTopologies(t, context.Background(), 1, tops)
	par := analyzeTopologies(t, context.Background(), 8, tops)
	if !reflect.DeepEqual(seq, par) {
		t.Error("sequential and 8-worker topology batches disagree")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, r := range analyzeTopologies(t, ctx, 0, tops) {
		if !r.Skipped {
			t.Errorf("topology %d evaluated despite cancelled context", i)
		}
	}
}

func TestFacadeEndToEndComposition(t *testing.T) {
	// R = 500 covers Q + C, so Q = 500 − 200 = 300 and
	// E = g + Q + C + d = 100 + 300 + 200 + 50 = 650.
	e := profirt.ComposeEndToEnd(100, 500, 200, 50)
	if e.Total() != 650 {
		t.Errorf("Total = %v, want 650", e.Total())
	}
	if e.Queuing != 300 {
		t.Errorf("Queuing = %v, want 300", e.Queuing)
	}
}
