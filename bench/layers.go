package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/wisc-arch/datascalar/internal/bus"
	"github.com/wisc-arch/datascalar/internal/cache"
	"github.com/wisc-arch/datascalar/internal/core"
	"github.com/wisc-arch/datascalar/internal/emu"
	"github.com/wisc-arch/datascalar/internal/fault"
	"github.com/wisc-arch/datascalar/internal/mem"
	"github.com/wisc-arch/datascalar/internal/ooo"
	"github.com/wisc-arch/datascalar/internal/sim"
)

// The layer probes call one layer's public functions at a time, on
// inputs recorded from the workload, and time those calls. Streams
// shorter than probeMinOps are replayed until they reach it, so small
// workloads still time enough calls to read.
const probeMinOps = 200_000

// clones is how many emulator clones emu.clone_us averages.
const clones = 8

// kernelStats carries what the kernel probes learn beyond the metrics:
// the instruction mix and the core's cost per instruction, which the
// stage budget scales by the machines' IPC.
type kernelStats struct {
	memPerInstr   float64 // memory operations per instruction
	oooNsPerInstr float64 // ooo host time per committed instruction (perfect memory)
}

// kernelBudgets returns each distinct kernel of the grid, in order, with
// the largest instruction budget any op gives it.
func kernelBudgets(ops []op) []op {
	var out []op
	seen := map[string]int{}
	for _, o := range ops {
		if i, ok := seen[o.Kernel]; ok {
			out[i].Instr = max(out[i].Instr, o.Instr)
			continue
		}
		seen[o.Kernel] = len(out)
		out = append(out, op{Name: o.Kernel, Kernel: o.Kernel, Instr: o.Instr})
	}
	return out
}

// kernelProbes times the per-instruction layers on each kernel's
// measured window: the emulator (fast-forward, clone, Step), the
// out-of-order core replaying the recorded stream, and the L1 and DRAM
// models on its data addresses.
func kernelProbes(m map[string]float64, spans *spanLog, parent int, ops []op) (kernelStats, error) {
	var (
		ffT, cloneT, stepT, oooT, cacheT, dramT           time.Duration
		ffN, cloneN, stepN, polled, cacheN, dramN, misses uint64
		oooInstr                                          uint64
		slowPolled, slowSkipped                           uint64
	)
	dramCfg := mem.DefaultDRAM()
	for _, k := range kernelBudgets(ops) {
		err := spans.timed("kernel "+k.Kernel, parent, func() error {
			p, ff, err := k.program()
			if err != nil {
				return err
			}
			master, err := emu.New(p)
			if err != nil {
				return err
			}
			t := time.Now()
			n, ok, err := master.RunUntilPC(ff, 200_000_000)
			ffT += time.Since(t)
			ffN += n
			if err != nil || !ok {
				return fmt.Errorf("%s: fast-forward failed: %v", k.Kernel, err)
			}
			reps := int(max(1, probeMinOps/k.Instr))
			t = time.Now()
			for i := 0; i < clones; i++ {
				master.Clone()
			}
			cloneT += time.Since(t)
			cloneN += clones

			var dyns []emu.Dyn
			for rep := 0; rep < reps; rep++ {
				em := master.Clone()
				dyns = make([]emu.Dyn, 0, k.Instr)
				t = time.Now()
				for uint64(len(dyns)) < k.Instr {
					d, err := em.Step()
					if errors.Is(err, emu.ErrHalted) {
						break
					}
					if err != nil {
						return err
					}
					dyns = append(dyns, d)
				}
				stepT += time.Since(t)
				stepN += uint64(len(dyns))
			}

			for rep := 0; rep < reps; rep++ {
				c := ooo.New(ooo.DefaultConfig(), ooo.NewSliceSource(dyns), ooo.PerfectMem{})
				t = time.Now()
				np, _, err := driveCore(c)
				oooT += time.Since(t)
				polled += np
				oooInstr += uint64(len(dyns))
				if err != nil {
					return err
				}
			}
			slow := ooo.New(ooo.DefaultConfig(), ooo.NewSliceSource(dyns),
				ooo.FixedLatencyMem{Cycles: dramCfg.AccessCycles + dramCfg.BusCycles})
			np, ns, err := driveCore(slow)
			if err != nil {
				return err
			}
			slowPolled += np
			slowSkipped += ns

			var missAddrs []uint64
			for rep := 0; rep < reps; rep++ {
				l1 := cache.New(core.DefaultConfig(2).L1)
				missAddrs = missAddrs[:0]
				t = time.Now()
				for _, d := range dyns {
					if op := d.Instr.Op; op.IsMem() {
						if !l1.Access(d.EA, op.IsStore()).Hit {
							missAddrs = append(missAddrs, d.EA)
						}
						cacheN++
					}
				}
				cacheT += time.Since(t)
				misses += uint64(len(missAddrs))
			}
			dramReps := int(max(1, probeMinOps/uint64(max(len(missAddrs), 1))))
			for rep := 0; rep < dramReps; rep++ {
				d := mem.NewDRAM(dramCfg)
				t = time.Now()
				for i, a := range missAddrs {
					d.Access(uint64(i)*dramCfg.AccessCycles, a)
				}
				dramT += time.Since(t)
				dramN += uint64(len(missAddrs))
			}
			return nil
		})
		if err != nil {
			return kernelStats{}, err
		}
	}
	m["emu.ff_ns_per_instr"] = ratio(float64(ffT), float64(ffN))
	m["emu.clone_us"] = ratio(float64(cloneT)/1e3, float64(cloneN))
	m["emu.step_ns"] = ratio(float64(stepT), float64(stepN))
	m["ooo.cycle_ns"] = ratio(float64(oooT), float64(polled))
	m["ooo.skip_frac"] = ratio(float64(slowSkipped), float64(slowPolled+slowSkipped))
	m["cache.access_ns"] = ratio(float64(cacheT), float64(cacheN))
	m["cache.miss_ratio"] = ratio(float64(misses), float64(cacheN))
	m["mem.dram_access_ns"] = ratio(float64(dramT), float64(dramN))
	return kernelStats{memPerInstr: ratio(float64(cacheN), float64(stepN)),
		oooNsPerInstr: ratio(float64(oooT), float64(oooInstr))}, nil
}

// driveCore runs a standalone core to completion the way the machines'
// next-event loops do, counting polled and skipped cycles.
func driveCore(c *ooo.Core) (polled, skipped uint64, err error) {
	now := uint64(0)
	for !c.Done() {
		if next, ok := c.NextEventCycle(now); ok && next > now {
			if next == ooo.NoEvent {
				return polled, skipped, errors.New("ooo: standalone core stalled with no pending event")
			}
			c.SkipCycles(now, next-now)
			skipped += next - now
			now = next
		}
		c.Cycle(now)
		polled++
		if err := c.Err(); err != nil {
			return polled, skipped, err
		}
		now++
	}
	return polled, skipped, nil
}

// timerCost is the cost of reading the clock around an empty interval,
// subtracted from every per-call timing.
func timerCost() time.Duration {
	samples := make([]time.Duration, 1001)
	for i := range samples {
		t := time.Now()
		samples[i] = time.Since(t)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[len(samples)/2]
}

// callTimer accumulates per-call host time net of the clock's own cost.
type callTimer struct {
	cost  time.Duration
	total time.Duration
	calls uint64
}

func (c *callTimer) since(t time.Time) {
	c.total += time.Since(t) - c.cost
	c.calls++
}

func (c *callTimer) nsPerCall() float64 { return ratio(float64(c.total), float64(c.calls)) }

// bshrProbe replays the recorded per-node BSHR call streams into fresh
// BSHRs: core.bshr_request_ns and core.bshr_arrive_ns.
func bshrProbe(m map[string]float64, spans *spanLog, parent int, streams [][]bshrRec) {
	id := spans.begin("core.BSHR replay", parent)
	defer spans.end(id)
	cost := timerCost()
	req, arr := callTimer{cost: cost}, callTimer{cost: cost}
	var total int
	for _, s := range streams {
		total += len(s)
	}
	reps := int(max(1, probeMinOps/max(total, 1)))
	bufCap := core.DefaultConfig(2).BSHRBufferCap
	for rep := 0; rep < reps; rep++ {
		for _, s := range streams {
			b := core.NewBSHR(bufCap)
			var tok ooo.LoadToken
			for _, c := range s {
				switch c.call {
				case callRequest:
					t := time.Now()
					b.Request(c.line, tok, c.cycle)
					req.since(t)
					tok++
				case callArriveOwed:
					b.Absorb(c.line)
					t := time.Now()
					b.Arrive(c.line, c.cycle)
					arr.since(t)
				case callArrive:
					t := time.Now()
					b.Arrive(c.line, c.cycle)
					arr.since(t)
				case callAbsorb:
					b.Absorb(c.line)
				}
			}
		}
	}
	m["core.bshr_request_ns"] = req.nsPerCall()
	m["core.bshr_arrive_ns"] = arr.nsPerCall()
}

// busProbe replays the recorded broadcasts into a fresh interconnect of
// the op's topology, at their recorded cycles: bus.enqueue_ns, bus.tick_ns
// and bus.dataphase_ns (one stall-classification query per busy cycle,
// for the newest message).
func busProbe(m map[string]float64, spans *spanLog, parent int, o op, sends []sendRec) error {
	id := spans.begin("bus replay ("+o.Name+")", parent)
	defer spans.end(id)
	cfg := o.dsConfig(0)
	if err := cfg.Topology.Validate(); err != nil {
		return err
	}
	cost := timerCost()
	enq, tick, phase := callTimer{cost: cost}, callTimer{cost: cost}, callTimer{cost: cost}
	for enq.calls+tick.calls+phase.calls < probeMinOps && len(sends) > 0 {
		net := cfg.Topology.Build(o.Nodes)
		var last bus.Message
		now, i := sends[0].cycle, 0
		for i < len(sends) || net.Pending() > 0 {
			for ; i < len(sends) && sends[i].cycle <= now; i++ {
				s := sends[i]
				last = bus.Message{Kind: bus.Broadcast, Src: s.src, Addr: s.addr,
					PayloadBytes: cfg.L1.LineBytes, ReadyAt: s.cycle + cfg.BcastQueueCycles,
					Seq: uint64(i), Reparative: s.reparative}
				t := time.Now()
				net.Enqueue(last)
				enq.since(t)
			}
			t := time.Now()
			net.Tick(now)
			tick.since(t)
			if net.Pending() > 0 {
				t = time.Now()
				net.DataPhase(last.Addr, (last.Src+1)%o.Nodes, now)
				phase.since(t)
			}
			next := net.NextDeliveryCycle(now)
			if i < len(sends) {
				next = min(next, sends[i].cycle)
			}
			if next == bus.NoEvent {
				break
			}
			now = max(now+1, next)
		}
	}
	m["bus.enqueue_ns"] = enq.nsPerCall()
	m["bus.tick_ns"] = tick.nsPerCall()
	m["bus.dataphase_ns"] = phase.nsPerCall()
	return nil
}

// tradProbe runs each of the workload's kernels on the two-chip
// traditional machine at the workload's budget.
func tradProbe(m map[string]float64, spans *spanLog, parent int, ops []op) error {
	var run time.Duration
	var cycles, mallocs uint64
	for _, k := range kernelBudgets(ops) {
		o := op{Name: k.Kernel + "/trad2", Kernel: k.Kernel, Kind: sim.KindTraditional, Nodes: 2, Instr: k.Instr}
		r, err := execFresh(spans, parent, "traditional", o)
		if err != nil {
			return err
		}
		run += r.Run
		cycles += r.Cycles
		mallocs += r.Mallocs
	}
	m["traditional.run_ns_per_cycle"] = ratio(float64(run), float64(cycles))
	m["traditional.allocs_per_kcycle"] = ratio(float64(mallocs)*1000, float64(cycles))
	return nil
}

// execFresh runs one probe op from a collected heap inside a span named
// after it (and, for a fault-campaign op, its outcome).
func execFresh(spans *spanLog, parent int, label string, o op) (opRun, error) {
	runtime.GC()
	id := spans.begin(label+" "+o.Name, parent)
	r, err := o.exec(nil)
	spans.end(id)
	if err != nil {
		return r, fmt.Errorf("%s %s: %w", label, o.Name, err)
	}
	if r.Outcome != "" {
		spans.spans[id-1].Name += " (" + r.Outcome + ")"
	}
	return r, nil
}

// repMinRun is how much Run time each repProbes variant accumulates,
// so a small op is repeated until its ratio is readable.
const repMinRun = 200 * time.Millisecond

// repProbes rerun the workload's largest DataScalar op three ways, with
// two cores available: serially with no faults, under the first cascade
// scenario (node 1 dies at cycle 4000 and the machine recovers), and on
// two node-loop workers. fault.host_overhead and core.par_speedup are
// Run-time ratios against the serial fault-free run.
func repProbes(m map[string]float64, spans *spanLog, parent int, rep op, seed uint64) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	serial := rep
	serial.Parallel = 0
	faulted := serial
	faulted.Fault = sim.DefaultFaultScenarios()[0].Base
	faulted.Fault.Seed = campaignSeed(0, 0, seed)
	faulted.Fault.Deaths = []fault.Death{{Node: 1, Cycle: 4000}}
	faulted.Fault.Recover = true
	faulted.Campaign = true
	par := serial
	par.Parallel = 2
	var run [3]time.Duration
	var last opRun
	for i, o := range []op{serial, faulted, par} {
		for run[i] == 0 || run[i] < repMinRun {
			r, err := execFresh(spans, parent, [...]string{"serial", "faulted", "parallel2"}[i], o)
			if err != nil {
				return err
			}
			run[i] += r.Run
			if i == 1 {
				last = r
			}
		}
	}
	m["fault.host_overhead"] = ratio(run[1].Seconds(), run[0].Seconds())
	m["core.par_speedup"] = ratio(run[0].Seconds(), run[2].Seconds())
	if st := last.FaultStats; st != nil {
		m["fault.retries"] = float64(st.Retries)
		m["fault.warm_fill_msgs"] = float64(st.WarmFillMsgs)
		m["fault.remapped_pages"] = float64(st.RemappedPages)
	}
	return nil
}
