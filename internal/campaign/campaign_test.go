package campaign

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"profirt/internal/configfile"
	"profirt/internal/memo"
	"profirt/internal/pool"
	"profirt/internal/stats"
	"profirt/internal/timeunit"
)

// testNetFile builds a small two-master inline network description.
func testNetFile(ttr timeunit.Ticks) *configfile.File {
	return &configfile.File{
		TTR:     ttr,
		Horizon: 300_000,
		Masters: []configfile.MasterJSON{
			{Addr: 1, Streams: []configfile.StreamJSON{
				{Name: "a1", Slave: 30, High: true, Period: 20_000, Deadline: 15_000},
				{Name: "a2", Slave: 30, High: true, Period: 50_000, Deadline: 40_000},
			}},
			{Addr: 2, Streams: []configfile.StreamJSON{
				{Name: "b1", Slave: 31, High: true, Period: 30_000, Deadline: 25_000},
			}},
		},
		Slaves: []configfile.SlaveJSON{{Addr: 30, TSDR: 30}, {Addr: 31, TSDR: 60}},
	}
}

// testManifest is the small grid used across the tests:
// 2 networks × 2 scales × 2 policies × 2 trials = 16 jobs, 4 rows.
func testManifest() Manifest {
	return Manifest{
		Name:           "test",
		Seed:           7,
		Trials:         2,
		Policies:       []string{"fcfs", "dm"},
		DeadlineScales: []float64{1.0, 0.5},
		Networks: []NetworkSpec{
			{Name: "cell-a", Network: testNetFile(2_000)},
			{Name: "cell-b", Network: testNetFile(3_000)},
		},
	}
}

func mustCampaign(t *testing.T) *Campaign {
	t.Helper()
	c, err := New(testManifest())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func runTable(t *testing.T, c *Campaign, opts RunOptions) (string, RunResult) {
	t.Helper()
	res, err := c.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.Table.String(), res
}

func TestCompileGrid(t *testing.T) {
	c := mustCampaign(t)
	if got, want := len(c.Jobs()), 2*2*2*2; got != want {
		t.Fatalf("compiled %d jobs, want %d", got, want)
	}
	if got, want := c.Rows(), 4; got != want {
		t.Fatalf("Rows() = %d, want %d", got, want)
	}
	seenKeys := map[memo.Key]int{}
	for i, j := range c.Jobs() {
		if j.Index != i {
			t.Fatalf("job %d has Index %d", i, j.Index)
		}
		if prev, dup := seenKeys[j.Key]; dup {
			t.Fatalf("jobs %d and %d share a key", prev, i)
		}
		seenKeys[j.Key] = i
		if j.Config.Seed == 0 {
			t.Fatalf("job %d has no derived seed", i)
		}
	}
	// Scaled deadlines must actually reach the configs.
	full, half := c.Jobs()[0].Config, c.Jobs()[c.Manifest.Trials*2].Config
	if half.Masters[0].Streams[0].Deadline*2 != full.Masters[0].Streams[0].Deadline {
		t.Fatalf("deadline scaling missing: full %d, half %d",
			full.Masters[0].Streams[0].Deadline, half.Masters[0].Streams[0].Deadline)
	}
}

// TestRunParallelismDeterminism: a storeless campaign's table is
// byte-identical at any pool size.
func TestRunParallelismDeterminism(t *testing.T) {
	c := mustCampaign(t)
	var want string
	for _, par := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		p := pool.NewShared(par)
		got, res := runTable(t, c, RunOptions{Pool: p})
		p.Close()
		if res.Executed != res.Jobs {
			t.Fatalf("parallelism %d: executed %d of %d jobs", par, res.Executed, res.Jobs)
		}
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("table differs at parallelism %d:\n--- got ---\n%s--- want ---\n%s", par, got, want)
		}
	}
}

// TestResumeByteIdentical is the acceptance-criterion test: a campaign
// killed at an arbitrary point and resumed produces a table
// byte-identical to an uninterrupted run, and a second identical
// campaign against the same store executes nothing.
func TestResumeByteIdentical(t *testing.T) {
	c := mustCampaign(t)
	p := pool.NewShared(2)
	defer p.Close()
	uninterrupted, _ := runTable(t, c, RunOptions{Pool: p})

	dir := t.TempDir()
	store, err := memo.OpenStore(filepath.Join(dir, "results.jsonl"), c.Hash[:])
	if err != nil {
		t.Fatal(err)
	}
	// Kill after a few jobs, repeatedly, resuming each time — the
	// store must carry the campaign through arbitrary interruption
	// points.
	for round := 0; ; round++ {
		if round > len(c.Jobs()) {
			t.Fatal("campaign never completes under repeated kills")
		}
		res, err := c.Run(RunOptions{Pool: p, Store: store, StopAfter: 3})
		if err != nil {
			t.Fatal(err)
		}
		if res.Skipped == 0 {
			if got := res.Table.String(); got != uninterrupted {
				t.Fatalf("resumed table differs from uninterrupted:\n--- resumed ---\n%s--- uninterrupted ---\n%s", got, uninterrupted)
			}
			break
		}
		if res.Executed == 0 && res.Skipped > 0 {
			t.Fatal("interrupted run made no progress")
		}
	}
	// Warm start: everything restored, nothing executed.
	res, err := c.Run(RunOptions{Pool: p, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 0 || res.Restored != res.Jobs {
		t.Fatalf("warm start executed %d, restored %d of %d", res.Executed, res.Restored, res.Jobs)
	}
	if got := res.Table.String(); got != uninterrupted {
		t.Fatalf("warm-start table differs:\n%s", got)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestResumeAcrossProcesses closes and reopens the store between the
// interrupted and resumed runs, exercising the load path a real
// process restart takes — including a torn final line.
func TestResumeAcrossProcesses(t *testing.T) {
	c := mustCampaign(t)
	uninterrupted, _ := runTable(t, c, RunOptions{})
	path := filepath.Join(t.TempDir(), "results.jsonl")

	store, err := memo.OpenStore(path, c.Hash[:])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(RunOptions{Store: store, StopAfter: 5}); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final line, as a kill mid-write would.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	store2, err := memo.OpenStore(path, c.Hash[:])
	if err != nil {
		t.Fatal(err)
	}
	if s := store2.Stats(); s.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1 (the torn line)", s.Dropped)
	}
	res, err := c.Run(RunOptions{Store: store2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 0 {
		t.Fatalf("resume skipped %d jobs", res.Skipped)
	}
	if res.Restored == 0 || res.Executed == 0 {
		t.Fatalf("resume should mix restored (%d) and executed (%d) jobs", res.Restored, res.Executed)
	}
	if got := res.Table.String(); got != uninterrupted {
		t.Fatalf("resumed-across-processes table differs:\n--- got ---\n%s--- want ---\n%s", got, uninterrupted)
	}
	if err := store2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreRejectsForeignManifest: a store is bound to its manifest
// hash; resuming under an edited manifest must fail loudly.
func TestStoreRejectsForeignManifest(t *testing.T) {
	c := mustCampaign(t)
	path := filepath.Join(t.TempDir(), "results.jsonl")
	store, err := memo.OpenStore(path, c.Hash[:])
	if err != nil {
		t.Fatal(err)
	}
	store.Close()
	m := testManifest()
	m.Trials = 3
	c2, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Hash == c.Hash {
		t.Fatal("distinct manifests share a hash")
	}
	if _, err := memo.OpenStore(path, c2.Hash[:]); err == nil {
		t.Fatal("store accepted a different manifest's hash")
	}
}

// TestRunRefusesForeignStore: a store opened for one manifest must not
// take another manifest's jobs. Run refuses it before restoring or
// executing anything, and the store's own manifest still runs on it.
func TestRunRefusesForeignStore(t *testing.T) {
	c := mustCampaign(t)
	store, err := memo.OpenStore(filepath.Join(t.TempDir(), "results.jsonl"), c.Hash[:])
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	m := testManifest()
	m.Name, m.Seed = "other", 99
	other, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Run(RunOptions{Store: store}); err == nil {
		t.Fatal("Run accepted a store opened for another manifest")
	}
	if st := store.Stats(); st.Entries != 0 || st.Hits+st.Misses != 0 {
		t.Fatalf("refused run touched the store: %+v", st)
	}
	res, err := c.Run(RunOptions{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 0 || res.Executed != res.Jobs || store.Len() != res.Jobs {
		t.Fatalf("own manifest on the store: %+v, %d records", res, store.Len())
	}
}

// TestRowStreamingOrder: rows arrive at the sink in strict grid order
// with the advertised total, even under a parallel pool.
func TestRowStreamingOrder(t *testing.T) {
	c := mustCampaign(t)
	type ev struct{ index, total int }
	var mu sync.Mutex
	var events []ev
	p := pool.NewShared(runtime.GOMAXPROCS(0))
	defer p.Close()
	_, res := runTable(t, c, RunOptions{
		Pool: p,
		RowSink: func(e stats.RowEvent) {
			mu.Lock()
			events = append(events, ev{e.Index, e.Total})
			mu.Unlock()
		},
	})
	if res.Skipped != 0 {
		t.Fatal("unexpected skips")
	}
	if len(events) != c.Rows() {
		t.Fatalf("sink saw %d rows, want %d", len(events), c.Rows())
	}
	for i, e := range events {
		if e.index != i || e.total != c.Rows() {
			t.Fatalf("event %d = %+v, want index %d total %d", i, e, i, c.Rows())
		}
	}
}

func TestStatus(t *testing.T) {
	c := mustCampaign(t)
	path := filepath.Join(t.TempDir(), "results.jsonl")
	store, err := memo.OpenStore(path, c.Hash[:])
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rep := c.Status(store)
	if rep.Done != 0 || rep.Jobs != len(c.Jobs()) || rep.RowsDone != 0 {
		t.Fatalf("empty-store status = %+v", rep)
	}
	if _, err := c.Run(RunOptions{Store: store}); err != nil {
		t.Fatal(err)
	}
	rep = c.Status(store)
	if rep.Done != rep.Jobs || rep.RowsDone != rep.Rows {
		t.Fatalf("complete-store status = %+v", rep)
	}
}

func TestCancelledContext(t *testing.T) {
	c := mustCampaign(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := c.Run(RunOptions{Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != res.Jobs {
		t.Fatalf("cancelled run skipped %d of %d", res.Skipped, res.Jobs)
	}
}

func TestManifestValidation(t *testing.T) {
	for name, mutate := range map[string]func(*Manifest){
		"no trials":      func(m *Manifest) { m.Trials = 0 },
		"no networks":    func(m *Manifest) { m.Networks = nil },
		"bad policy":     func(m *Manifest) { m.Policies = []string{"rm"} },
		"zero scale":     func(m *Manifest) { m.DeadlineScales = []float64{0} },
		"negative scale": func(m *Manifest) { m.DeadlineScales = []float64{-1} },
		"dup name":       func(m *Manifest) { m.Networks = append(m.Networks, m.Networks[0]) },
		"unresolved ref": func(m *Manifest) { m.Networks[0].Network = nil; m.Networks[0].File = "x.json" },
		"bad network":    func(m *Manifest) { m.Networks[0].Network = &configfile.File{} },
	} {
		m := testManifest()
		mutate(&m)
		if _, err := New(m); err == nil {
			t.Errorf("%s: New accepted an invalid manifest", name)
		}
	}
}

func TestLoadResolvesFileReferences(t *testing.T) {
	dir := t.TempDir()
	writeJSON := func(name, data string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeJSON("net.json", `{"ttr": 2000, "horizon": 100000,
		"masters": [{"addr": 1, "streams": [
			{"name": "s", "slave": 30, "high": true, "period": 20000, "deadline": 15000}]}],
		"slaves": [{"addr": 30, "tsdr": 30}]}`)
	writeJSON("campaign.json", `{"name": "ref", "trials": 1,
		"policies": ["dm"], "networks": [{"name": "n", "file": "net.json"}]}`)
	c, err := Load(filepath.Join(dir, "campaign.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Jobs()) != 1 {
		t.Fatalf("compiled %d jobs, want 1", len(c.Jobs()))
	}
	if c.Manifest.Networks[0].Network == nil || c.Manifest.Networks[0].File != "" {
		t.Fatal("file reference not inlined into the resolved manifest")
	}
}

// TestParseRejectsTrailingData: a manifest followed by a second value
// or stray text is an error for Parse and Load alike, and so is a
// referenced network file with data after its description.
func TestParseRejectsTrailingData(t *testing.T) {
	raw, err := json.Marshal(testManifest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(append(raw, " \n"...)); err != nil {
		t.Fatalf("Parse rejected a manifest with trailing whitespace: %v", err)
	}
	for _, tail := range []string{` {"name": "second"}`, ` xyz`} {
		if _, err := Parse(append(raw, tail...)); err == nil {
			t.Errorf("Parse accepted a manifest followed by %q", tail)
		}
	}
	dir := t.TempDir()
	net := `{"ttr": 2000, "horizon": 100000,
		"masters": [{"addr": 1, "streams": [
			{"name": "s", "slave": 30, "high": true, "period": 20000, "deadline": 15000}]}],
		"slaves": [{"addr": 30, "tsdr": 30}]}`
	manifest := `{"name": "ref", "trials": 1,
		"policies": ["dm"], "networks": [{"name": "n", "file": "net.json"}]}`
	for _, c := range []struct{ net, manifest string }{
		{net, manifest + ` {}`},
		{net + ` {}`, manifest},
	} {
		for name, data := range map[string]string{"net.json": c.net, "campaign.json": c.manifest} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := Load(filepath.Join(dir, "campaign.json")); err == nil {
			t.Errorf("Load accepted trailing data:\nnet.json: %s\ncampaign.json: %s", c.net, c.manifest)
		}
	}
}
