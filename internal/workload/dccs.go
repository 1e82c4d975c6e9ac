package workload

import (
	"profirt/internal/ap"
	"profirt/internal/core"
	"profirt/internal/fdl"
	"profirt/internal/profibus"
)

// DCCSCell builds the distributed computer-controlled system scenario
// that motivates the paper's introduction: a machining cell with three
// masters on one PROFIBUS segment at 500 kbit/s. It returns the
// simulator configuration with the analytic model profibus.Network
// derives from it, its masters renamed plc, dri and sup.
//
//   - a PLC master polling two pressure sensors (fast loops) and one
//     temperature sensor (slow loop), and updating a valve actuator;
//   - a drive controller master running two axis position loops and an
//     emergency-stop status poll with a tight deadline;
//   - a supervisory master gathering production counters as
//     low-priority background traffic plus one alarm stream.
//
// Periods are in bit times at 500 kbit/s: 1 ms = 500 ticks, so a 20 ms
// control loop is 10 000 ticks. The timings are tuned so that at
// TTR ≈ 1000 the cell is schedulable under the paper's DM/EDF
// architecture but NOT under stock FCFS (the pressure loops fail
// Eq. 12) — the paper's headline situation — while Eq. 15 still admits
// a small positive T_TR for pure FCFS operation.
func DCCSCell(dispatcher ap.Policy, ttr Ticks) (core.Network, profibus.Config) {
	bus := fdl.DefaultBusParams()
	bus.MaxRetry = 0 // the cell runs on a clean segment; retries off
	const (
		ms        = 500 // bit times per millisecond at 500 kbit/s
		plcAddr   = 2
		driveAddr = 4
		supAddr   = 6
		sensorsA  = 20 // slaves
		sensorsB  = 21
		tempSens  = 22
		valve     = 23
		axis1     = 30
		axis2     = 31
		estop     = 32
		counters  = 40
		alarms    = 41
	)

	mkStream := func(name string, slave byte, high bool, periodMS, deadlineMS int, req, rsp int) profibus.StreamConfig {
		return profibus.StreamConfig{
			Name:      name,
			Slave:     slave,
			High:      high,
			Period:    Ticks(periodMS * ms),
			Deadline:  Ticks(deadlineMS * ms),
			ReqBytes:  req,
			RespBytes: rsp,
		}
	}

	plc := profibus.MasterConfig{
		Addr:       plcAddr,
		Dispatcher: dispatcher,
		Streams: []profibus.StreamConfig{
			mkStream("plc.pressureA", sensorsA, true, 20, 16, 2, 4),
			mkStream("plc.pressureB", sensorsB, true, 20, 16, 2, 4),
			mkStream("plc.temperature", tempSens, true, 200, 120, 2, 4),
			mkStream("plc.valve", valve, true, 40, 30, 6, 1),
		},
	}
	drive := profibus.MasterConfig{
		Addr:       driveAddr,
		Dispatcher: dispatcher,
		Streams: []profibus.StreamConfig{
			mkStream("drive.axis1", axis1, true, 30, 24, 8, 8),
			mkStream("drive.axis2", axis2, true, 30, 24, 8, 8),
			mkStream("drive.estop", estop, true, 50, 20, 1, 1),
		},
	}
	sup := profibus.MasterConfig{
		Addr:       supAddr,
		Dispatcher: dispatcher,
		Streams: []profibus.StreamConfig{
			mkStream("sup.alarms", alarms, true, 100, 60, 2, 8),
			mkStream("sup.counters", counters, false, 400, 400, 8, 16),
		},
	}

	cfg := profibus.Config{
		Bus:     bus,
		TTR:     ttr,
		Masters: []profibus.MasterConfig{plc, drive, sup},
		Slaves: []profibus.SlaveConfig{
			{Addr: sensorsA, TSDR: 30}, {Addr: sensorsB, TSDR: 30},
			{Addr: tempSens, TSDR: 45}, {Addr: valve, TSDR: 30},
			{Addr: axis1, TSDR: 20}, {Addr: axis2, TSDR: 20},
			{Addr: estop, TSDR: 15}, {Addr: counters, TSDR: 60},
			{Addr: alarms, TSDR: 30},
		},
		Horizon: 2_000_000, // 4 s of bus time
		Jitter:  profibus.JitterAdversarial,
	}

	net := profibus.Network(cfg)
	for k := range net.Masters {
		net.Masters[k].Name = cfg.Masters[k].Streams[0].Name[:3] // plc, dri, sup
	}
	return net, cfg
}
