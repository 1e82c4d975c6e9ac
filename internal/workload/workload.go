// Package workload generates synthetic task sets and PROFIBUS stream
// sets for the experiments: UUniFast utilisation splitting, log-uniform
// periods, constrained deadlines, payload sizing, and the
// distributed-computer-controlled-system (DCCS) presets that mirror the
// workloads motivating the paper's introduction (sensor polling,
// actuator updates, alarm traffic).
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"profirt/internal/ap"
	"profirt/internal/core"
	"profirt/internal/fdl"
	"profirt/internal/profibus"
	"profirt/internal/sched"
	"profirt/internal/timeunit"
)

// Ticks aliases the shared time base.
type Ticks = timeunit.Ticks

// UUniFast splits total utilisation u across n tasks with an unbiased
// uniform distribution over the simplex (Bini & Buttazzo's UUniFast).
func UUniFast(rng *rand.Rand, n int, u float64) []float64 {
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	sum := u
	for i := 0; i < n-1; i++ {
		next := sum * math.Pow(rng.Float64(), 1/float64(n-i-1))
		out[i] = sum - next
		sum = next
	}
	out[n-1] = sum
	return out
}

// TaskSetParams controls random task-set generation.
type TaskSetParams struct {
	// N is the number of tasks.
	N int
	// Utilization is the target total utilisation.
	Utilization float64
	// PeriodMin/PeriodMax bound the log-uniform period draw.
	PeriodMin, PeriodMax Ticks
	// DeadlineMin is the lower bound of the deadline ratio D/T; the
	// ratio is drawn uniformly in [DeadlineMin, 1]. Use 1 for implicit
	// deadlines.
	DeadlineRatioMin float64
}

// DefaultTaskSetParams returns a reasonable sweep configuration.
func DefaultTaskSetParams(n int, u float64) TaskSetParams {
	return TaskSetParams{
		N:                n,
		Utilization:      u,
		PeriodMin:        100,
		PeriodMax:        10_000,
		DeadlineRatioMin: 1,
	}
}

// TaskSet draws a random task set with the given parameters and no
// release jitter. Execution times are max(1, round(U_i * T_i)), so
// very small utilisation shares are clamped and the realised total
// utilisation can deviate slightly; callers that need exactness
// should inspect the result.
func TaskSet(rng *rand.Rand, p TaskSetParams) sched.TaskSet {
	if p.PeriodMin <= 0 || p.PeriodMax < p.PeriodMin {
		panic(fmt.Sprintf("workload: bad period range [%d,%d]", p.PeriodMin, p.PeriodMax))
	}
	us := UUniFast(rng, p.N, p.Utilization)
	ts := make(sched.TaskSet, p.N)
	for i := range ts {
		T := logUniform(rng, p.PeriodMin, p.PeriodMax)
		c := Ticks(math.Round(us[i] * float64(T)))
		if c < 1 {
			c = 1
		}
		if c > T {
			c = T
		}
		ratio := 1.0
		if p.DeadlineRatioMin < 1 {
			ratio = p.DeadlineRatioMin + rng.Float64()*(1-p.DeadlineRatioMin)
		}
		d := Ticks(math.Round(ratio * float64(T)))
		if d < c {
			d = c
		}
		ts[i] = sched.Task{
			Name: fmt.Sprintf("t%d", i),
			C:    c, D: d, T: T,
		}
	}
	return ts
}

// logUniform draws from [lo, hi] with log-uniform density, giving the
// classic wide spread of periods.
func logUniform(rng *rand.Rand, lo, hi Ticks) Ticks {
	if lo == hi {
		return lo
	}
	x := math.Exp(math.Log(float64(lo)) + rng.Float64()*(math.Log(float64(hi))-math.Log(float64(lo))))
	t := Ticks(math.Round(x))
	if t < lo {
		t = lo
	}
	if t > hi {
		t = hi
	}
	return t
}

// StreamSetParams controls random PROFIBUS network generation.
type StreamSetParams struct {
	// Masters is the number of master stations.
	Masters int
	// StreamsPerMaster is the number of high-priority streams each.
	StreamsPerMaster int
	// PeriodMin/PeriodMax bound stream periods (bit times).
	PeriodMin, PeriodMax Ticks
	// DeadlineRatioMin: D/T drawn uniformly in [DeadlineRatioMin, 1].
	DeadlineRatioMin float64
	// PayloadMax bounds request/response payload bytes.
	PayloadMax int
	// MaxJitter bounds per-stream release jitter (bit times).
	MaxJitter Ticks
	// TTR is the target rotation time for both analysis and simulation.
	TTR Ticks
	// Dispatcher configures every master's AP policy.
	Dispatcher ap.Policy
	// LowPriorityLoad adds one low-priority background stream per
	// master when true.
	LowPriorityLoad bool
}

// DefaultStreamSetParams returns a mid-size network setup.
func DefaultStreamSetParams() StreamSetParams {
	return StreamSetParams{
		Masters:          3,
		StreamsPerMaster: 3,
		PeriodMin:        20_000,
		PeriodMax:        80_000,
		DeadlineRatioMin: 0.6,
		PayloadMax:       16,
		MaxJitter:        1_000,
		TTR:              5_000,
		Dispatcher:       ap.FCFS,
	}
}

// SlaveAddr is the shared responder address used by generated networks.
const SlaveAddr byte = 100

// StreamSet draws a random simulator configuration and returns it with
// the analytic network model profibus.Network derives from it.
func StreamSet(rng *rand.Rand, p StreamSetParams) (core.Network, profibus.Config) {
	bus := fdl.DefaultBusParams()
	cfg := profibus.Config{
		Bus:     bus,
		TTR:     p.TTR,
		Horizon: 1_000_000,
		Slaves:  []profibus.SlaveConfig{{Addr: SlaveAddr, TSDR: bus.TSDRmax}},
		Jitter:  profibus.JitterAdversarial,
		Seed:    rng.Int63(),
	}
	for k := 0; k < p.Masters; k++ {
		mc := profibus.MasterConfig{Addr: byte(k + 1), Dispatcher: p.Dispatcher}
		for s := 0; s < p.StreamsPerMaster; s++ {
			period := logUniform(rng, p.PeriodMin, p.PeriodMax)
			ratio := p.DeadlineRatioMin
			if ratio < 1 {
				ratio += rng.Float64() * (1 - ratio)
			}
			deadline := Ticks(math.Round(ratio * float64(period)))
			var jitter Ticks
			if p.MaxJitter > 0 {
				jitter = Ticks(rng.Int63n(int64(p.MaxJitter) + 1))
			}
			mc.Streams = append(mc.Streams, profibus.StreamConfig{
				Name:      fmt.Sprintf("M%d.S%d", k+1, s),
				Slave:     SlaveAddr,
				High:      true,
				Period:    period,
				Deadline:  deadline,
				Jitter:    jitter,
				Offset:    Ticks(rng.Int63n(4_000)),
				ReqBytes:  rng.Intn(p.PayloadMax + 1),
				RespBytes: rng.Intn(p.PayloadMax + 1),
			})
		}
		if p.LowPriorityLoad {
			mc.Streams = append(mc.Streams, profibus.StreamConfig{
				Name:      fmt.Sprintf("M%d.low", k+1),
				Slave:     SlaveAddr,
				High:      false,
				Period:    p.PeriodMax,
				Deadline:  p.PeriodMax,
				ReqBytes:  p.PayloadMax,
				RespBytes: p.PayloadMax,
			})
		}
		cfg.Masters = append(cfg.Masters, mc)
	}
	return profibus.Network(cfg), cfg
}

// ScaleDeadlines returns a copy of cfg with every high-priority
// deadline multiplied by factor (used by the deadline-tightening
// sweeps); derive the scaled analytic model with profibus.Network.
// Factors below 1 tighten.
func ScaleDeadlines(cfg profibus.Config, factor float64) profibus.Config {
	c2 := cfg
	c2.Masters = append([]profibus.MasterConfig(nil), cfg.Masters...)
	for k := range c2.Masters {
		c2.Masters[k].Streams = append([]profibus.StreamConfig(nil), cfg.Masters[k].Streams...)
		for s := range c2.Masters[k].Streams {
			if !c2.Masters[k].Streams[s].High {
				continue
			}
			d := Ticks(math.Round(factor * float64(c2.Masters[k].Streams[s].Deadline)))
			if d < 1 {
				d = 1
			}
			c2.Masters[k].Streams[s].Deadline = d
		}
	}
	return c2
}

// WithDispatcher returns a copy of cfg with every master's dispatcher
// replaced (for policy-comparison sweeps on identical traffic).
func WithDispatcher(cfg profibus.Config, pol ap.Policy) profibus.Config {
	c2 := cfg
	c2.Masters = append([]profibus.MasterConfig(nil), cfg.Masters...)
	for k := range c2.Masters {
		c2.Masters[k].Dispatcher = pol
	}
	return c2
}
