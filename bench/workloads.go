package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"profirt"
	"profirt/internal/obs"
	"profirt/internal/serve"
)

// workloadOrder fixes the order workloads are listed and collected in.
var workloadOrder = []string{"analyze-unique", "analyze-hot", "simulate-batch", "experiments-full"}

// workloads runs each workload once; BENCHMARK.json and the README say
// why each exists. The open-loop rates are pinned at about 40% of each
// serve workload's closed-loop capacity at the commit that introduced
// the benchmark, on a 2-CPU host running slow (unique ≈ 400, hot ≈ 600,
// simulate ≈ 225 requests/s; up to twice that when it runs fast), so
// latency is read well below saturation.
var workloads = map[string]func(*env) (*record, error){
	"analyze-unique":   serveSpec{name: "analyze-unique", path: pathAnalyze, warmup: 600, rssAt: 1000, rate: 160, openN: 1500, poolRPS: 1000}.run,
	"analyze-hot":      serveSpec{name: "analyze-hot", path: pathAnalyze, warmup: hotWorkingSet / netsPerRequest, distinct: bodyCycle, rssAt: 2000, rate: 250, openN: 2500}.run,
	"simulate-batch":   serveSpec{name: "simulate-batch", path: pathSimulate, warmup: 32, distinct: bodyCycle, rssAt: 1000, rate: 100, openN: 1000}.run,
	"experiments-full": runSuite,
}

// calibrate times a fixed SHA-256 loop, so a report can tell host
// speed drift apart from a code change. It is a diagnostic only: on a
// shared host memory-bound work drifts far more than this loop does,
// so it cannot correct the measured times.
func calibrate() float64 {
	var b [64]byte
	t0 := obs.Now()
	for range 100_000 {
		s := sha256.Sum256(b[:])
		b[0] = s[0]
	}
	return ms(obs.Now().Sub(t0))
}

// coldStartN is how many times a burst starts the program from cold
// to measure setup_s; the median absorbs a slow exec.
const coldStartN = 15

// coldStarts runs start, which starts the program from cold once and
// returns the time it took to be ready, coldStartN times. A run times
// one burst at its start and one at its end, so its median spans the
// host's state over the whole run rather than one moment of it.
func coldStarts(start func() (time.Duration, error)) ([]float64, error) {
	var out []float64
	for range coldStartN {
		d, err := start()
		if err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// serveSpec is a profiserve workload: warm-up, then a closed loop for
// the seconds the open loop leaves, then an open loop of openN Poisson
// arrivals at rate per second.
type serveSpec struct {
	name   string
	path   string
	warmup int
	// rssAt is how many closed-loop requests run before the server's
	// memory high-water mark is read. The mark keeps climbing slowly as
	// requests churn the cache, so a reading after a fixed amount of work
	// stays put when the host's speed drifts; one taken at the end of a
	// fixed time would not. A host must finish rssAt requests well within
	// the closed loop's time.
	rssAt int
	// distinct is how many bodies the run cycles through; 0 means no
	// body is ever sent twice, so poolRPS sizes the pool of fresh
	// bodies generated before timing for a closed loop of up to that
	// many requests per second.
	distinct int
	poolRPS  float64
	rate     float64
	openN    int
}

func (s serveSpec) run(e *env) (*record, error) {
	rec := newRecord()
	closedDur := time.Duration((e.seconds - float64(s.openN)/s.rate) * float64(time.Second))
	if closedDur < time.Duration(e.seconds*float64(time.Second))/4 {
		return nil, fmt.Errorf("%d s leave under a quarter of the run for the closed loop", int(e.seconds))
	}
	n := s.distinct
	if n == 0 {
		n = s.warmup + int(closedDur.Seconds()*s.poolRPS) + s.openN
	}
	t0 := obs.Now()
	reqs, err := genRequests(s.name, e.seed, n, e.conns)
	if err != nil {
		return nil, err
	}
	e.logf("%s: generated %d requests in %.2f s", s.name, n, obs.Now().Sub(t0).Seconds())
	// Sequence numbers of each phase map onto bodies: cycled for a
	// repeating workload; for a never-repeating one the warm-up and
	// closed loop take bodies from the front and the open loop owns the
	// last openN, so the closed loop stops early if it ever runs dry.
	closedN := -1
	warmNext := func(i int) *request { return &reqs[i%n] }
	closedNext := func(i int) *request { return &reqs[(s.warmup+i)%n] }
	openNext := closedNext
	if s.distinct == 0 {
		openAt := n - s.openN
		closedN = openAt - s.warmup
		openNext = func(i int) *request { return &reqs[openAt+i] }
	}
	// Leave the generator's garbage behind before anything is timed.
	runtime.GC()

	bin := filepath.Join(e.bin, "profiserve")
	startCold := func() (time.Duration, error) {
		srv, err := startServer(bin, newClient(1))
		if err != nil {
			return 0, err
		}
		return srv.ready, srv.stop()
	}
	readies, err := coldStarts(startCold)
	if err != nil {
		return nil, err
	}

	hc := newClient(e.conns)
	defer hc.CloseIdleConnections()
	srv, err := startServer(bin, hc)
	if err != nil {
		return nil, err
	}
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	l := &loader{hc: hc, url: srv.url + s.path, conns: e.conns}
	rec.addPhase(l.closedLoop("warmup", warmNext, s.warmup, 0))
	calib := []float64{calibrate()}
	fixed := l.closedLoop("closed-fixed", closedNext, s.rssAt, 0)
	rec.addPhase(fixed)
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	timed := phase{Name: "closed-timed"}
	if left := closedDur - time.Duration(fixed.Seconds*float64(time.Second)); left > 0 {
		if closedN >= 0 {
			closedN = max(0, closedN-s.rssAt)
		}
		timed = l.closedLoop("closed-timed", func(i int) *request { return closedNext(s.rssAt + i) }, closedN, left)
	}
	rec.addPhase(timed)
	calib = append(calib, calibrate())
	m0, err := srv.metrics(hc)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seedFor(e.seed, s.name+"/arrivals", 0)))
	open := l.openLoop("open", openNext, s.openN, s.rate, rng)
	rec.addPhase(open)
	m1, err := srv.metrics(hc)
	if err != nil {
		return nil, err
	}
	calib = append(calib, calibrate())
	replay := make([]request, min(replayN, n))
	for i := range replay {
		replay[i] = *closedNext(i)
	}
	if e.traced {
		if err := idleProbe(rec, srv, s.path, replay[:min(probeN, len(replay))]); err != nil {
			return nil, err
		}
	}
	err = srv.stop()
	srv = nil
	if err != nil {
		return nil, err
	}
	more, err := coldStarts(startCold)
	if err != nil {
		return nil, err
	}
	rec.summarize(rec.e2e, "setup_s", append(readies, more...))
	if l.firstErr != nil {
		rec.Detail.FirstError = l.firstErr.Error()
	}
	for _, p := range rec.Detail.Phases {
		e.logf("%s %s: sent %d ok %d failed %d in %.2f s", s.name, p.Name, p.Sent, p.OK, p.Failed, p.Seconds)
	}

	rec.e2e["peak_rss_mb"] = rss

	L := rec.layer
	L["host.calib_ms"] = median(calib)
	L["e2e.capacity_rps"] = float64(fixed.OK+timed.OK) / (fixed.Seconds + timed.Seconds)
	rec.summarize(L, "e2e.p50_ms", open.lat)
	tail := tailPercentile(len(open.lat))
	rec.Detail.TailPercentile = tail
	L["e2e.tail_ms"] = percentile(open.lat, tail)
	L["loadgen.late_p99_ms"] = percentile(open.late, tail)
	L["loadgen.cpu_s"] = (fixed.cpu + timed.cpu + open.cpu).Seconds()
	counters(L, m0.Engine, m1.Engine, m1.Server.RequestsTotal-m0.Server.RequestsTotal)
	if e.traced {
		smp := sample{path: s.path, warm: reqs[:s.warmup], replay: replay}
		if _, _, err := layerPass(e, s.name, rec, smp); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// counters derives the per-request pool and memo metrics from two
// Engine snapshots taken around a phase that made the given number of
// requests, or of Engine calls.
func counters(L map[string]float64, m0, m1 profirt.EngineStats, requests int64) {
	perReq := func(d int64) float64 { return float64(d) / float64(max(1, requests)) }
	L["pool.jobs_per_req"] = perReq(m1.Pool.Jobs - m0.Pool.Jobs)
	L["pool.queue_wait_mean_us"] = us(histMean(m0.Latency.PoolQueueWait, m1.Latency.PoolQueueWait))
	L["pool.run_mean_us"] = us(histMean(m0.Latency.PoolRun, m1.Latency.PoolRun))
	hits, misses := m1.Cache.Hits-m0.Cache.Hits, m1.Cache.Misses-m0.Cache.Misses
	L["memo.hit_ratio"] = float64(hits) / float64(max(1, hits+misses))
	L["memo.evictions_per_req"] = perReq(m1.Cache.Evictions - m0.Cache.Evictions)
}

// idleProbe sends reqs one at a time to an otherwise idle server and
// charges the loopback HTTP stack with the round trip minus the
// handler time the server itself recorded for the same requests.
func idleProbe(rec *record, srv *server, path string, reqs []request) error {
	hc := newClient(1)
	defer hc.CloseIdleConnections()
	m0, err := srv.metrics(hc)
	if err != nil {
		return err
	}
	var rtt time.Duration
	var buf bytes.Buffer
	for i := range reqs {
		t0 := obs.Now()
		err := post(hc, srv.url+path, reqs[i].body, &buf)
		rtt += obs.Now().Sub(t0)
		if err != nil {
			return fmt.Errorf("idle probe: %w", err)
		}
		if !verify(&reqs[i], buf.Bytes()) {
			return errors.New("idle probe: response differs from the expected bytes")
		}
	}
	m1, err := srv.metrics(hc)
	if err != nil {
		return err
	}
	h0, h1 := endpointLatency(m0, path), endpointLatency(m1, path)
	if h1.Count-h0.Count != uint64(len(reqs)) {
		return fmt.Errorf("idle probe: server recorded %d requests, sent %d", h1.Count-h0.Count, len(reqs))
	}
	rec.layer["http.self_us"] = us(rtt)/float64(len(reqs)) - us(histMean(h0, h1))
	rec.addPhase(phase{Name: "idle-probe", Sent: len(reqs), OK: len(reqs)})
	return nil
}

func endpointLatency(m serve.Metrics, path string) profirt.LatencySnapshot {
	for _, ep := range m.Server.Endpoints {
		if ep.Endpoint == path {
			return ep.Latency
		}
	}
	return profirt.LatencySnapshot{}
}

// suiteRunsMin is the least number of timed suite runs in one
// experiments-full run, whatever --seconds says.
const suiteRunsMin = 3

// runSuite is experiments-full: back-to-back full-grid suite runs of
// the built experiments command, each byte-compared to an untimed
// sequential reference run.
func runSuite(e *env) (*record, error) {
	rec := newRecord()
	bin := filepath.Join(e.bin, "experiments")
	seed := strconv.FormatInt(e.seed, 10)
	ref, refWall, err := runCmd(bin, "-format", "md", "-parallel", "1", "-seed", seed)
	if err != nil {
		return nil, fmt.Errorf("reference suite run: %w", err)
	}
	rec.addPhase(phase{Name: "reference", Sent: 1, OK: 1, Seconds: refWall.Seconds()})

	listOnce := func() (time.Duration, error) {
		_, wall, err := runCmd(bin, "-list")
		return wall, err
	}
	starts, err := coldStarts(listOnce)
	if err != nil {
		return nil, err
	}

	// Suite runs go through peakrss, so their max RSS is read without
	// this process's own memory under it (see bench/peakrss).
	rssFile := filepath.Join(e.out, "peakrss.txt")
	suiteArgs := []string{rssFile, bin, "-format", "md", "-parallel", strconv.Itoa(e.conns), "-seed", seed}
	p := phase{Name: "suite"}
	var walls, rss, gaps []float64
	calib := []float64{calibrate()}
	c0, t0 := cpuTime(), obs.Now()
	last := t0
	for p.Sent < suiteRunsMin || obs.Now().Sub(t0).Seconds() < e.seconds {
		gaps = append(gaps, ms(obs.Now().Sub(last)))
		out, wall, err := runCmd(filepath.Join(e.bin, "peakrss"), suiteArgs...)
		last = obs.Now()
		p.Sent++
		var floor, peak float64
		if err == nil {
			floor, peak, err = readPeakRSS(rssFile)
		}
		switch {
		case err != nil:
			p.Failed++
			rec.Detail.FirstError = err.Error()
		case !bytes.Equal(out, ref):
			p.Failed++
			rec.Detail.FirstError = "suite output differs from the -parallel 1 reference"
		default:
			p.OK++
		}
		walls = append(walls, ms(wall))
		rss = append(rss, peak)
		rec.Detail.RSSFloorMB = max(rec.Detail.RSSFloorMB, floor)
	}
	p.Seconds = obs.Now().Sub(t0).Seconds()
	p.lat = walls
	cpu := cpuTime() - c0
	rec.addPhase(p)
	if peak := median(rss); 2*rec.Detail.RSSFloorMB >= peak {
		return nil, fmt.Errorf("peakrss's own memory, %.1f MB, is over half the suite's peak RSS, %.1f MB, which counts it", rec.Detail.RSSFloorMB, peak)
	}
	calib = append(calib, calibrate())
	e.logf("experiments-full suite: sent %d ok %d failed %d in %.2f s", p.Sent, p.OK, p.Failed, p.Seconds)
	more, err := coldStarts(listOnce)
	if err != nil {
		return nil, err
	}
	rec.summarize(rec.e2e, "setup_s", append(starts, more...))

	rec.summarize(rec.e2e, "peak_rss_mb", rss)

	L := rec.layer
	L["host.calib_ms"] = median(calib)
	L["e2e.capacity_rps"] = float64(p.OK) / p.Seconds
	rec.summarize(L, "e2e.p50_ms", walls)
	// With a handful of suite runs no percentile has ten samples beyond
	// it, so the tail rows report the slowest run and the longest gap
	// the benchmark left between runs.
	L["e2e.tail_ms"] = percentile(walls, 100)
	L["loadgen.late_p99_ms"] = percentile(gaps, 100)
	L["loadgen.cpu_s"] = cpu.Seconds()
	if e.traced {
		// No request reaches a server in this workload, but a traced
		// result line carries every per-layer metric BENCHMARK.json lists.
		// The serve, engine, memo, core and simulator rows are measured on
		// analyze-unique's first bodies, a control no suite change should
		// move.
		replay, err := genRequests("analyze-unique", e.seed, replayN, e.conns)
		if err != nil {
			return nil, err
		}
		srv, err := startServer(filepath.Join(e.bin, "profiserve"), newClient(1))
		if err != nil {
			return nil, err
		}
		err = idleProbe(rec, srv, pathAnalyze, replay[:probeN])
		if serr := srv.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
		before, after, err := layerPass(e, "experiments-full", rec, sample{path: pathAnalyze, replay: replay})
		if err != nil {
			return nil, err
		}
		counters(L, before, after, int64(len(profirt.Experiments())))
		L["pool.speedup"] = ms(refWall) / median(walls)
	}
	return rec, nil
}

// runCmd runs one command to completion and returns its stdout and
// wall time; a non-zero exit is an error.
func runCmd(bin string, args ...string) ([]byte, time.Duration, error) {
	var stdout, stderr bytes.Buffer
	c := exec.Command(bin, args...)
	c.Stdout, c.Stderr = &stdout, &stderr
	t0 := obs.Now()
	err := c.Run()
	wall := obs.Now().Sub(t0)
	if err != nil {
		return nil, wall, fmt.Errorf("%s %v: %w: %s", filepath.Base(bin), args, err, bytes.TrimSpace(stderr.Bytes()))
	}
	return stdout.Bytes(), wall, nil
}

// readPeakRSS reads what peakrss wrote, in MB: its own memory
// high-water mark, the floor under the reading, and the command's peak.
func readPeakRSS(path string) (floor, peak float64, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	var own, child int64
	if _, err := fmt.Sscan(string(raw), &own, &child); err != nil {
		return 0, 0, fmt.Errorf("reading %s: %w", path, err)
	}
	return float64(own) / 1024, float64(child) / 1024, nil
}
