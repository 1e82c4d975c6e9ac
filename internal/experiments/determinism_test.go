package experiments

import (
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"profirt/internal/core"
	"profirt/internal/memo"
	"profirt/internal/pool"
	"profirt/internal/stats"
)

// testPools builds shared pools of widths 1, 2 and GOMAXPROCS, closed
// once t and all its subtests have finished.
func testPools(t *testing.T) []*pool.Shared {
	var ps []*pool.Shared
	for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		p := pool.NewShared(w)
		t.Cleanup(p.Close)
		ps = append(ps, p)
	}
	return ps
}

// render renders every table an experiment produces into one string,
// so byte-level comparison covers titles, notes, headers and rows.
func render(e Experiment, cfg Config) string {
	var sb strings.Builder
	for _, t := range e.Run(cfg) {
		sb.WriteString(t.String())
		sb.WriteString("\n")
	}
	return sb.String()
}

// TestParallelismDeterminism is the core guarantee of the cell-job
// harness: for every experiment, the tables produced without a pool
// (grid order on the caller) and on pools of width 1, 2 and GOMAXPROCS
// must be byte-identical. Each grid cell owns a deterministically
// seeded RNG, so scheduling order cannot leak into any draw.
func TestParallelismDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped with -short")
	}
	pools := testPools(t)
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			want := render(e, QuickConfig())
			for _, p := range pools {
				cfg := QuickConfig()
				cfg.Pool = p
				if got := render(e, cfg); got != want {
					t.Errorf("tables at width %d differ from sequential:\n--- width %d ---\n%s--- sequential ---\n%s", p.Workers(), p.Workers(), got, want)
				}
			}
		})
	}
}

// TestTrialShardingDeterminism is the regression gate for trial-level
// sharding: with per-trial sub-jobs forced on (TrialShardMin 1), the
// tables of every trial-sharded driver — E1–E5 plus the E6/E7/E9/E10
// message-level sweeps sharded in this PR — must be byte-identical at
// pool widths 1, 2 and GOMAXPROCS: every trial owns an RNG seeded
// cellSeed ⊕ FNV(trial) and the reducers fold per-trial slots in trial
// order, so scheduling cannot leak into any number.
func TestTrialShardingDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped with -short")
	}
	pools := testPools(t)
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E9", "E10"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("%s missing", id)
		}
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			cfg := QuickConfig()
			cfg.TrialShardMin = 1 // force sharding at the quick trial count
			if !cfg.shardTrials() {
				t.Fatal("sharding not active; the test is vacuous")
			}
			var want string
			for _, p := range pools {
				c := cfg
				c.Pool = p
				got := render(e, c)
				if want == "" {
					want = got
				} else if got != want {
					t.Fatalf("sharded tables differ at width %d:\n--- got ---\n%s--- want ---\n%s", p.Workers(), got, want)
				}
			}
		})
	}
}

// TestTrialShardingSeedsReachDraws proves the sharded mode actually
// re-seeds each trial (so the byte-equality above is not vacuous):
// per-(cell, trial) draws must match the trialSeed derivation exactly
// in sharded mode and the shared cell RNG sequence in unsharded mode.
func TestTrialShardingSeedsReachDraws(t *testing.T) {
	const cells, trials = 3, 4
	draws := func(min int) [][]int64 {
		cfg := Config{Seed: 5, Trials: trials, TrialShardMin: min}
		out := make([][]int64, cells)
		for i := range out {
			out[i] = make([]int64, trials)
		}
		forEachCellTrial(cfg, "test", cells, func(cell, trial int, rng *rand.Rand) {
			out[cell][trial] = rng.Int63()
		})
		return out
	}
	sharded, unsharded := draws(1), draws(-1)
	for c := 0; c < cells; c++ {
		cellRNG := rand.New(rand.NewSource(cellSeed(5, "test", c)))
		for tr := 0; tr < trials; tr++ {
			if want := rand.New(rand.NewSource(trialSeed(5, "test", c, tr))).Int63(); sharded[c][tr] != want {
				t.Fatalf("sharded draw (%d,%d) = %d, want trialSeed-derived %d", c, tr, sharded[c][tr], want)
			}
			if want := cellRNG.Int63(); unsharded[c][tr] != want {
				t.Fatalf("unsharded draw (%d,%d) = %d, want shared-cell-RNG %d", c, tr, unsharded[c][tr], want)
			}
		}
	}
}

// TestTrialShardMinThreshold pins the activation rule: default
// threshold 16 (quick 8-trial runs keep historical draws, full-size 40
// shard), negative disables.
func TestTrialShardMinThreshold(t *testing.T) {
	for _, tc := range []struct {
		trials, min int
		want        bool
	}{
		{8, 0, false}, {16, 0, true}, {40, 0, true},
		{8, 1, true}, {40, -1, false}, {4, 4, true}, {4, 5, false},
	} {
		cfg := Config{Trials: tc.trials, TrialShardMin: tc.min}
		if got := cfg.shardTrials(); got != tc.want {
			t.Errorf("shardTrials(Trials=%d, Min=%d) = %v, want %v", tc.trials, tc.min, got, tc.want)
		}
	}
}

// TestCachedExperimentsDeterminism is the engine-level equivalence
// gate: E9–E13 (the drivers threading Config.Cache into the DM/EDF and
// holistic fixed points) must render byte-identical tables with a
// shared cache and with caching disabled, while actually hitting the
// cache.
func TestCachedExperimentsDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped with -short")
	}
	for _, id := range []string{"E9", "E10", "E11", "E12", "E13"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("%s missing", id)
		}
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			plain := QuickConfig()
			cached := QuickConfig()
			cached.Cache = memo.New(0)
			got, want := render(e, cached), render(e, plain)
			if got != want {
				t.Errorf("cached tables differ from uncached:\n--- cached ---\n%s--- uncached ---\n%s", got, want)
			}
			if s := cached.Cache.Stats(); s.Hits+s.Misses == 0 {
				t.Errorf("cache never consulted (stats %+v); the driver is not threading Config.Cache", s)
			}
		})
	}
}

// TestRowStreaming is the row-streaming contract: for every
// experiment, cfg.RowSink must see each streamed table's rows in
// strict grid order, with cells equal to the assembled table's rows —
// while the tables themselves stay byte-identical to a sink-less run.
func TestRowStreaming(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped with -short")
	}
	p := pool.NewShared(runtime.GOMAXPROCS(0))
	t.Cleanup(p.Close)
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			plain := render(e, QuickConfig())

			var mu sync.Mutex
			next := map[*stats.Table]int{}
			streamed := map[*stats.Table][][]string{}
			cfg := QuickConfig()
			cfg.Pool = p
			cfg.RowSink = func(ev stats.RowEvent) {
				mu.Lock()
				defer mu.Unlock()
				if ev.Index != next[ev.Table] {
					t.Errorf("table %q: row %d streamed out of order (want %d)", ev.Table.Title, ev.Index, next[ev.Table])
				}
				next[ev.Table]++
				streamed[ev.Table] = append(streamed[ev.Table], ev.Cells)
			}
			var sb strings.Builder
			var tables []*stats.Table
			for _, tab := range e.Run(cfg) {
				tables = append(tables, tab)
				sb.WriteString(tab.String())
				sb.WriteString("\n")
			}
			if got := sb.String(); got != plain {
				t.Errorf("tables differ with a row sink attached:\n--- sink ---\n%s--- plain ---\n%s", got, plain)
			}
			seen := 0
			for _, tab := range tables {
				rows, ok := streamed[tab]
				if !ok {
					continue // small direct-assembly tables (E6b, E12b) do not stream
				}
				seen++
				if len(rows) != tab.NumRows() {
					t.Fatalf("table %q: sink saw %d rows, table has %d", tab.Title, len(rows), tab.NumRows())
				}
				for i, cells := range rows {
					want := tab.Row(i)
					if strings.Join(cells, "\x00") != strings.Join(want, "\x00") {
						t.Fatalf("table %q row %d: sink cells %v != table row %v", tab.Title, i, cells, want)
					}
				}
			}
			if seen == 0 {
				t.Fatalf("%s streamed no tables", e.ID)
			}
		})
	}
}

// TestTrialSeedDistinct guards the per-trial seed derivation: distinct
// (experiment, cell, trial) triples — and the cell seeds themselves —
// must all map to distinct RNG seeds for a fixed Seed.
func TestTrialSeedDistinct(t *testing.T) {
	seen := map[int64]string{}
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5"} {
		for cell := 0; cell < 16; cell++ {
			key := func(kind string, v int64) {
				if prev, dup := seen[v]; dup {
					t.Fatalf("seed collision: (%s,%d,%s) and %s both map to %d", id, cell, kind, prev, v)
				}
				seen[v] = id + kind
			}
			key("cell", cellSeed(1, id, cell))
			for trial := 0; trial < 40; trial++ {
				key("trial", trialSeed(1, id, cell, trial))
			}
		}
	}
	if trialSeed(1, "E1", 0, 0) == trialSeed(2, "E1", 0, 0) {
		t.Error("trialSeed ignores the configured Seed")
	}
}

// TestSeedStability asserts QuickConfig tables are stable across two
// runs with equal seeds (and change when the seed changes, so the seed
// actually reaches the cells).
func TestSeedStability(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped with -short")
	}
	e, ok := ByID("E7")
	if !ok {
		t.Fatal("E7 missing")
	}
	first := render(e, QuickConfig())
	second := render(e, QuickConfig())
	if first != second {
		t.Errorf("equal seeds produced different tables:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
	other := QuickConfig()
	other.Seed = 999
	if render(e, other) == first {
		t.Error("changing the seed did not change the E7 table; seed is not reaching the cells")
	}
}

// TestCellSeedDistinct guards the seed derivation: distinct cells and
// distinct experiments must get distinct RNG seeds for a fixed Seed.
func TestCellSeedDistinct(t *testing.T) {
	seen := map[int64]string{}
	for _, id := range []string{"E1", "E2", "E11", "E11/base"} {
		for cell := 0; cell < 64; cell++ {
			s := cellSeed(1, id, cell)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: (%s,%d) and %s both map to %d", id, cell, prev, s)
			}
			seen[s] = id
		}
	}
	if cellSeed(1, "E1", 0) == cellSeed(2, "E1", 0) {
		t.Error("cellSeed ignores the configured Seed")
	}
}

// TestForEachCellCoversAllCells checks the pool visits every index
// exactly once and that per-cell RNGs are independent of worker count.
func TestForEachCellCoversAllCells(t *testing.T) {
	const n = 100
	draws := func(p *pool.Shared) []int64 {
		cfg := Config{Seed: 7, Pool: p}
		out := make([]int64, n)
		visits := make([]int32, n)
		forEachCell(cfg, "test", n, func(cell int, rng *rand.Rand) {
			visits[cell]++
			out[cell] = rng.Int63()
		})
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("pool %v: cell %d visited %d times", p != nil, i, v)
			}
		}
		return out
	}
	p := pool.NewShared(4)
	defer p.Close()
	seq := draws(nil)
	par := draws(p)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("cell %d drew %d sequentially but %d in parallel", i, seq[i], par[i])
		}
	}
}

// TestCacheArmedOnExperimentsPath: a cache threaded through the
// experiment fan-out stays live for the whole run. An all-distinct
// fan-out — the shape of most drivers' per-trial random stream sets —
// must give results identical to the uncached analyses, and repeating
// the same fan-out afterwards must be served from the cache.
func TestCacheArmedOnExperimentsPath(t *testing.T) {
	p := pool.NewShared(2)
	defer p.Close()
	cfg := Config{Seed: 3, Pool: p, Cache: memo.New(0)}
	const cells = 64
	fanOut := func() {
		bad := make([]int32, cells)
		forEachCell(cfg, "arm-test", cells, func(cell int, rng *rand.Rand) {
			for i := 0; i < 16; i++ {
				streams := make([]core.Stream, 5)
				for k := range streams {
					T := core.Ticks(50_000 + rng.Intn(200_000))
					streams[k] = core.Stream{
						Ch: core.Ticks(200 + rng.Intn(400)),
						D:  T - core.Ticks(rng.Intn(10_000)),
						T:  T,
						J:  core.Ticks(rng.Intn(2_000)),
					}
				}
				got := memo.DMResponseTimes(cfg.Cache, streams, 2_500, core.DMOptions{})
				want := core.DMResponseTimes(streams, 2_500, core.DMOptions{})
				for k := range want {
					if got[k] != want[k] {
						atomic.AddInt32(&bad[cell], 1)
					}
				}
			}
		})
		for cell, n := range bad {
			if n != 0 {
				t.Fatalf("cell %d: %d cached results diverged from uncached", cell, n)
			}
		}
	}
	fanOut()
	cold := cfg.Cache.Stats()
	fanOut()
	warm := cfg.Cache.Stats()
	if lookups := int64(cells * 16); warm.Hits-cold.Hits != lookups {
		t.Fatalf("repeated fan-out hit %d of %d lookups (cold %+v, warm %+v)", warm.Hits-cold.Hits, lookups, cold, warm)
	}
}
