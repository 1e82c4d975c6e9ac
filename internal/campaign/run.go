package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"profirt/internal/ap"
	"profirt/internal/core"
	"profirt/internal/memo"
	"profirt/internal/obs"
	"profirt/internal/pool"
	"profirt/internal/profibus"
	"profirt/internal/stats"
	"profirt/internal/timeunit"
)

// JobResult is the persisted outcome of one job: integer aggregates
// over the simulated network's high-priority streams, chosen so the
// table reduction is pure integer folding — a result decoded from the
// store and a freshly computed one are indistinguishable, which is
// what makes resumed tables byte-identical.
type JobResult struct {
	Released      int64          `json:"released"`
	Completed     int64          `json:"completed"`
	Missed        int64          `json:"missed"`
	Failed        int64          `json:"failed"`
	WorstResponse timeunit.Ticks `json:"worstResponse"`
	WorstTRR      timeunit.Ticks `json:"worstTRR"`
	HighCycles    int64          `json:"highCycles"`
	TokenPasses   int64          `json:"tokenPasses"`
}

// summarize reduces one simulation to its persisted aggregates.
func summarize(res profibus.Result, cfg profibus.Config) JobResult {
	var jr JobResult
	for mi, m := range res.PerMaster {
		for si, st := range m.PerStream {
			if !cfg.Masters[mi].Streams[si].High {
				continue
			}
			jr.Released += st.Released
			jr.Completed += st.Completed
			jr.Missed += st.Missed
			jr.Failed += st.Failed
			if st.WorstResponse > jr.WorstResponse {
				jr.WorstResponse = st.WorstResponse
			}
		}
		jr.HighCycles += m.HighCycles
	}
	jr.WorstTRR = res.WorstTRR()
	jr.TokenPasses = res.TokenPasses
	return jr
}

// Event reports one completed campaign job.
type Event struct {
	// Done and Total count settled vs scheduled jobs; Restored marks a
	// job satisfied from the store rather than executed.
	Done, Total int
	// Restored is true when the job's result came from the store.
	Restored bool
}

// RunOptions tunes Campaign.Run.
type RunOptions struct {
	// Pool executes the campaign's simulations, so concurrent
	// campaigns (and other batch work) share one bounded worker set;
	// nil runs them in grid order on the caller. Tables are
	// byte-identical at any pool width.
	Pool *pool.Shared
	// Context cancels the campaign early; nil means
	// context.Background(). Jobs not yet started when it is done are
	// counted in RunResult.Skipped and their rows are withheld.
	Context context.Context
	// Store is the durable result store (nil runs storeless). Completed
	// jobs found in it are restored instead of re-executed; newly
	// executed jobs are written through the moment they finish.
	Store *memo.Store
	// Cache memoizes the per-row DM/EDF verdict analyses (nil
	// disables).
	Cache *memo.Cache
	// RowSink, when non-nil, receives each table row the moment its
	// last job settles, in grid order (same contract as
	// experiments.Config.RowSink). Called from worker goroutines.
	RowSink func(stats.RowEvent)
	// Progress, when non-nil, receives one Event per settled job.
	// Called from worker goroutines; keep it cheap.
	Progress func(Event)
	// StopAfter, when positive, cancels the campaign after that many
	// newly executed jobs have completed — the deterministic stand-in
	// for kill -9 used by the resume tests and the CI smoke step.
	StopAfter int
}

// RunResult summarizes one Run.
type RunResult struct {
	// Table is the assembled campaign table; complete only when
	// Skipped == 0.
	Table *stats.Table
	// Jobs is the compiled grid size; Restored came from the store,
	// Executed were simulated and persisted now, Skipped were left
	// unsettled (cancellation, or jobs abandoned when Run returns an
	// error). Jobs == Restored + Executed + Skipped always holds.
	Jobs, Restored, Executed, Skipped int
}

// Run executes the campaign: restore completed jobs from the store,
// simulate the rest on the shared pool (write-through as each lands),
// and assemble the table with rows streaming in grid order. The table
// of a completed Run is a pure function of the manifest — independent
// of parallelism, of how often the campaign was killed and resumed,
// and of whether results were computed or restored.
func (c *Campaign) Run(opts RunOptions) (RunResult, error) {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	jobs := c.jobs
	// Tracing (when ctx carries an obs.Tracer) wraps the whole run in
	// one campaign.run span; simulations and row reductions nest under
	// it. Observational only — the table is byte-identical either way.
	ctx, runSpan := obs.StartSpanArg(ctx, "campaign.run", int64(len(jobs)))
	defer runSpan.End()
	results := make([]JobResult, len(jobs))
	settled := make([]bool, len(jobs))
	out := RunResult{Jobs: len(jobs)}
	for i, j := range jobs {
		raw, ok := opts.Store.Get(j.Key)
		if !ok {
			continue
		}
		var jr JobResult
		if err := json.Unmarshal(raw, &jr); err != nil {
			// A record from an incompatible build: recompute it.
			continue
		}
		results[i] = jr
		settled[i] = true
		out.Restored++
	}

	table := c.newTable()
	out.Table = table
	rs := stats.NewRowStreamer(table, c.Rows(), opts.RowSink)
	remaining := make([]atomic.Int32, c.Rows())
	perRow := len(c.policies) * c.Manifest.Trials
	for r := range remaining {
		remaining[r].Store(int32(perRow))
	}
	reduce := func(row int) { c.reduceRow(ctx, row, results, opts.Cache, rs) }

	var done atomic.Int64
	note := func(restored bool) {
		if opts.Progress != nil {
			opts.Progress(Event{Done: int(done.Add(1)), Total: len(jobs), Restored: restored})
		} else {
			done.Add(1)
		}
	}
	// Settle restored jobs first, in grid order, so fully restored rows
	// stream immediately and partially restored rows only await their
	// missing jobs.
	for i := range jobs {
		if settled[i] {
			note(true)
			if remaining[jobs[i].Row].Add(-1) == 0 {
				reduce(jobs[i].Row)
			}
		}
	}

	var pending []int
	var cfgs []profibus.Config
	for i := range jobs {
		if !settled[i] {
			pending = append(pending, i)
			cfgs = append(cfgs, jobs[i].Config)
		}
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var executed atomic.Int64
	var errMu sync.Mutex
	var firstErr error
	// fail records the first error and cancels the batch: a failing
	// store or an invalid job must not let a million-job campaign grind
	// through every remaining simulation before reporting.
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		cancel()
	}
	profibus.SimulateBatch(cfgs, profibus.BatchOptions{
		Pool:        opts.Pool,
		Context:     runCtx,
		ConfigSeeds: true, // seeds are pinned to grid positions at compile time
		OnResult: func(br profibus.BatchResult) {
			gi := pending[br.Index]
			job := jobs[gi]
			if br.Err != nil {
				fail(fmt.Errorf("campaign: job %d (%s): %w", job.Index, c.nets[job.Net].name, br.Err))
				return
			}
			jr := summarize(br.Result, job.Config)
			raw, err := json.Marshal(jr)
			if err != nil {
				fail(err)
				return
			}
			if err := opts.Store.Put(job.Key, raw); err != nil {
				fail(fmt.Errorf("campaign: persisting job %d: %w", job.Index, err))
				return
			}
			results[gi] = jr
			note(false)
			if remaining[job.Row].Add(-1) == 0 {
				reduce(job.Row)
			}
			if n := executed.Add(1); opts.StopAfter > 0 && int(n) >= opts.StopAfter {
				cancel()
			}
		},
	})
	// executed counts jobs that completed the whole settle path
	// (simulated, persisted, reduced); everything else pending —
	// cancelled before dispatch, or abandoned by fail() — counts as
	// skipped, keeping Jobs == Restored + Executed + Skipped.
	out.Executed = int(executed.Load())
	out.Skipped = len(pending) - out.Executed
	errMu.Lock()
	defer errMu.Unlock()
	return out, firstErr
}

// newTable builds the campaign table skeleton: one row per
// network×scale, per-policy verdict/simulation columns.
func (c *Campaign) newTable() *stats.Table {
	header := []string{"network", "D-scale"}
	for _, pol := range c.policies {
		p := pol.String()
		header = append(header, p+" analytic", p+" miss-free", p+" worst R")
	}
	t := stats.NewTable(fmt.Sprintf("campaign %s: %d networks × %d scales × %d policies × %d trials",
		c.Manifest.Name, len(c.nets), len(c.scales), len(c.policies), c.Manifest.Trials), header...)
	t.Note = "analytic = Eq. 11/16/17-18 verdict on the scaled network; miss-free = trials with zero simulated deadline misses; worst R = max observed response (bit times)"
	return t
}

// reduceRow folds one row's job results (in job order) into its table
// row and emits it. Pure integer folding over persisted aggregates
// plus deterministic analyses of the scaled network — byte-identical
// whether results were computed or restored. ctx carries tracing
// only: a traced run records one campaign.row span per reduction.
func (c *Campaign) reduceRow(ctx context.Context, row int, results []JobResult, cache *memo.Cache, rs *stats.RowStreamer) {
	ctx, sp := obs.StartSpanArg(ctx, "campaign.row", int64(row))
	defer sp.End()
	net := c.scaledNet(row)
	perPol := c.Manifest.Trials
	base := row * len(c.policies) * perPol
	cells := []any{c.nets[row/len(c.scales)].name, fmt.Sprintf("%.2f", c.scales[row%len(c.scales)])}
	for pi, pol := range c.policies {
		var ok bool
		switch pol {
		case ap.DM:
			ok, _ = memo.DMSchedulableCtx(ctx, cache, net, core.DMOptions{})
		case ap.EDF:
			ok, _ = memo.EDFSchedulableNetCtx(ctx, cache, net, core.EDFOptions{})
		default:
			ok, _ = core.FCFSSchedulable(net)
		}
		missFree := 0
		var worst timeunit.Ticks
		for t := 0; t < perPol; t++ {
			jr := results[base+pi*perPol+t]
			if jr.Missed == 0 {
				missFree++
			}
			if jr.WorstResponse > worst {
				worst = jr.WorstResponse
			}
		}
		cells = append(cells, ok, stats.Ratio{K: missFree, N: perPol}, worst)
	}
	rs.Emit(row, cells...)
}

// StatusReport summarizes a store's coverage of a campaign.
type StatusReport struct {
	// Jobs is the grid size; Done counts jobs whose results are
	// resident in the store.
	Jobs, Done int
	// Rows is the table row count; RowsDone counts rows with every job
	// resident.
	Rows, RowsDone int
}

// Status reports how much of the campaign the store already holds,
// without executing anything.
func (c *Campaign) Status(store *memo.Store) StatusReport {
	rep := StatusReport{Jobs: len(c.jobs), Rows: c.Rows()}
	rowMissing := make([]int, c.Rows())
	for _, j := range c.jobs {
		if _, ok := store.Get(j.Key); ok {
			rep.Done++
		} else {
			rowMissing[j.Row]++
		}
	}
	for _, m := range rowMissing {
		if m == 0 {
			rep.RowsDone++
		}
	}
	return rep
}
