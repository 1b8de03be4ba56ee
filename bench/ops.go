package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"time"

	"github.com/wisc-arch/datascalar/internal/bus"
	"github.com/wisc-arch/datascalar/internal/cache"
	"github.com/wisc-arch/datascalar/internal/core"
	"github.com/wisc-arch/datascalar/internal/fault"
	"github.com/wisc-arch/datascalar/internal/mem"
	"github.com/wisc-arch/datascalar/internal/obs"
	"github.com/wisc-arch/datascalar/internal/ooo"
	"github.com/wisc-arch/datascalar/internal/prog"
	"github.com/wisc-arch/datascalar/internal/sim"
	"github.com/wisc-arch/datascalar/internal/traditional"
	"github.com/wisc-arch/datascalar/internal/workload"
)

// An op is one simulated machine: assemble the kernel, partition its
// pages, build the machine (fast-forward and per-node clones included)
// and run it. Ops run one at a time, so every workload is a closed loop
// with a single client.
type op struct {
	Name   string
	Kernel string
	Kind   sim.MachineKind
	// Nodes is the DataScalar node count or traditional chip count
	// (unused for the perfect-cache machine).
	Nodes    int
	Topo     bus.TopologyKind
	Instr    uint64
	Parallel int // core.Config.ParallelNodes
	// Param and Value are the op's Figure 8 sweep point (Param "" for
	// none).
	Param sim.Figure8Param
	Value int
	// Fault is the op's fault plan. Campaign ops classify a structured
	// halt as an outcome, the way sim.FaultCampaign does, instead of
	// failing.
	Fault    fault.Config
	Campaign bool
}

// budgets are the per-op instruction counts of the grids; the
// benchmark measures at fullBudgets and tests shrink them.
type budgets struct {
	Timing    uint64 // fig7 ops, and the base of the mesh budgets
	Sweep     uint64 // sweep8 ops
	Cascade   uint64 // the 64-node cascade ops of faults
	FaultGrid uint64 // the 2-node fault grid of faults
}

var fullBudgets = budgets{Timing: 300_000, Sweep: 5_000, Cascade: 20_000, FaultGrid: 60_000}

// workloadDef is one benchmark workload: a fixed grid of ops. Only the
// faults grid depends on the seed (through its fault-plan seeds).
type workloadDef struct {
	Name   string
	Seeded bool
	Ops    func(seed uint64, b budgets) []op
}

// workloads are listed in the suite's round-robin order.
var workloads = []workloadDef{
	{Name: "fig7", Ops: fig7Ops},
	{Name: "sweep8", Ops: sweep8Ops},
	{Name: "mesh", Ops: func(_ uint64, b budgets) []op { return meshOps(b, 0) }},
	{Name: "mesh-par2", Ops: func(_ uint64, b budgets) []op { return meshOps(b, 2) }},
	{Name: "faults", Seeded: true, Ops: faultsOps},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// fiveSystems is Figure 7's machine set for one kernel, in the order
// the sim harnesses enumerate it: perfect, DS2, DS4, trad 1/2, trad 1/4.
func fiveSystems(kernel string, instr uint64, param sim.Figure8Param, v int) []op {
	prefix := kernel
	if param != "" {
		prefix = fmt.Sprintf("%s/%s=%d", kernel, paramKeys[param], v)
	}
	systems := []struct {
		kind  sim.MachineKind
		nodes int
		label string
	}{
		{sim.KindPerfect, 0, "perfect"}, {sim.KindDS, 2, "DS2"}, {sim.KindDS, 4, "DS4"},
		{sim.KindTraditional, 2, "trad2"}, {sim.KindTraditional, 4, "trad4"},
	}
	out := make([]op, len(systems))
	for i, s := range systems {
		out[i] = op{Name: prefix + "/" + s.label, Kernel: kernel, Kind: s.kind, Nodes: s.nodes,
			Instr: instr, Param: param, Value: v}
	}
	return out
}

// fig7Ops is dstiming's grid: the six timing kernels on the five
// Figure 7 systems.
func fig7Ops(_ uint64, b budgets) []op {
	var ops []op
	for _, w := range workload.TimingSet() {
		ops = append(ops, fiveSystems(w.Name, b.Timing, "", 0)...)
	}
	return ops
}

// paramKeys are short op-name spellings of the Figure 8 axes.
var paramKeys = map[sim.Figure8Param]string{
	sim.ParamCacheKB:  "cache_kb",
	sim.ParamMemNs:    "mem_cycles",
	sim.ParamBusClock: "bus_clock",
	sim.ParamBusWidth: "bus_width",
	sim.ParamRUU:      "ruu",
}

// sweep8Ops is the Figure 8 grid: go and compress, every axis value,
// all five systems.
func sweep8Ops(_ uint64, b budgets) []op {
	sweeps := sim.Figure8Sweeps()
	var ops []op
	for _, kernel := range []string{"go", "compress"} {
		for _, param := range sim.Figure8Order {
			for _, v := range sweeps[param] {
				ops = append(ops, fiveSystems(kernel, b.Sweep, param, v)...)
			}
		}
	}
	return ops
}

// applyParam mirrors the sim package's Figure 8 mutator (a test pins
// the mirror to sim.Figure8's IPCs).
func applyParam(param sim.Figure8Param, v int, l1 *cache.Config, dram *mem.DRAMConfig, b *bus.Config, c *ooo.Config) {
	switch param {
	case sim.ParamCacheKB:
		l1.SizeBytes = v * 1024
	case sim.ParamMemNs:
		dram.AccessCycles = uint64(v)
	case sim.ParamBusClock:
		b.ClockDivisor = uint64(v)
	case sim.ParamBusWidth:
		b.WidthBytes = v
	case sim.ParamRUU:
		c.RUUSize = v
		c.LSQSize = max(v/2, 1)
		c.FwdDist = uint64(c.LSQSize)
	}
}

// scalingInstr mirrors the Scaling harness's per-point budget: the
// timing budget scaled by 8/N, at least 1024 instructions.
func scalingInstr(timing uint64, nodes int) uint64 {
	if nodes <= 8 {
		return timing
	}
	return max(timing*8/uint64(nodes), 1024)
}

// meshOps is the large-N grid: compress and mgrid on a 256-node mesh and
// a 64-node torus, at the Scaling harness's budgets.
func meshOps(b budgets, parallel int) []op {
	var ops []op
	for _, kernel := range []string{"compress", "mgrid"} {
		for _, t := range []struct {
			topo  bus.TopologyKind
			nodes int
		}{{bus.TopoMesh, 256}, {bus.TopoTorus, 64}} {
			ops = append(ops, op{Name: fmt.Sprintf("%s/%s%d", kernel, t.topo, t.nodes), Kernel: kernel,
				Kind: sim.KindDS, Nodes: t.nodes, Topo: t.topo,
				Instr: scalingInstr(b.Timing, t.nodes), Parallel: parallel})
		}
	}
	return ops
}

// campaignSeed mixes a fault-plan seed from grid position exactly as
// sim.FaultCampaign does for its n-th seed (n counting from 1).
func campaignSeed(wi, si int, n uint64) uint64 {
	return fault.Mix64(uint64(wi+1)<<40 | uint64(si+1)<<16 | n)
}

// gridSeeds is how many fault seeds each randomized scenario of the
// 2-node grid runs per pass. Averaging several keeps the pass's
// simulated work, and so its metrics, from swinging with the seed.
const gridSeeds = 6

// faultsOps mirrors two fault campaigns: the 64-node mesh cascade
// (compress, cascade-1..3) and the 2-node default grid over compress and
// mgrid, each after its fault-free baselines. Benchmark seed s runs the
// cascade campaign's seed s and, for the randomized (drop, delay, flip)
// scenarios, the 2-node campaign's seeds gridSeeds·(s-1)+1 .. gridSeeds·s.
// The death scenarios ignore their seed and run once.
func faultsOps(seed uint64, b budgets) []op {
	ops := []op{{Name: "compress/mesh64/baseline", Kernel: "compress", Kind: sim.KindDS,
		Nodes: 64, Topo: bus.TopoMesh, Instr: b.Cascade}}
	for si, sc := range sim.CascadeScenarios(3) {
		fc := sc.Base
		fc.Seed = campaignSeed(0, si, seed)
		ops = append(ops, op{Name: "compress/mesh64/" + sc.Name, Kernel: "compress", Kind: sim.KindDS,
			Nodes: 64, Topo: bus.TopoMesh, Instr: b.Cascade, Fault: fc, Campaign: true})
	}
	kernels := []string{"compress", "mgrid"}
	for _, k := range kernels {
		ops = append(ops, op{Name: k + "/DS2/baseline", Kernel: k, Kind: sim.KindDS, Nodes: 2, Instr: b.FaultGrid})
	}
	for wi, k := range kernels {
		for si, sc := range sim.DefaultFaultScenarios() {
			name := k + "/DS2/" + sc.Name
			fc := sc.Base
			if fc.DropRate == 0 && fc.DelayRate == 0 && fc.FlipRate == 0 {
				fc.Seed = campaignSeed(wi, si, seed)
				ops = append(ops, op{Name: name, Kernel: k, Kind: sim.KindDS, Nodes: 2,
					Instr: b.FaultGrid, Fault: fc, Campaign: true})
				continue
			}
			for j := uint64(1); j <= gridSeeds; j++ {
				fc.Seed = campaignSeed(wi, si, gridSeeds*(seed-1)+j)
				ops = append(ops, op{Name: fmt.Sprintf("%s/%d", name, j), Kernel: k, Kind: sim.KindDS, Nodes: 2,
					Instr: b.FaultGrid, Fault: fc, Campaign: true})
			}
		}
	}
	return ops
}

// opRun is one executed op: where its host time went, what it
// simulated, and the digest the golden file pins.
type opRun struct {
	Start, RunStart time.Time
	// Program, Partition and Build are the set-up calls (Build includes
	// fast-forward and the per-node emulator clones); the perfect-cache
	// machine has no separate build, so its fast-forward is in Run.
	Program, Partition, Build, Run time.Duration
	// Wall is the op's whole slot in its pass: the collection before it,
	// set-up, run and verification.
	Wall time.Duration
	// Cycles is the simulated machine cycle count (the detection cycle
	// of a halted run) and NodeCycles sums it over a DataScalar machine's
	// nodes.
	Cycles, NodeCycles uint64
	Instr              uint64 // committed instructions per node
	IPC                float64
	Mallocs            uint64 // heap allocations during Run
	AllocBytes         uint64 // bytes allocated by set-up and Run
	DS                 *core.Result
	Trad               *traditional.Result
	// Outcome and Failure are set for fault-campaign ops only.
	Outcome    string
	Failure    string
	FaultStats *fault.Stats
	Digest     string
}

func (r opRun) setup() time.Duration { return r.Program + r.Partition + r.Build }

func partition(p *prog.Program, nodes int) (*mem.PageTable, error) {
	return mem.Partition{NumNodes: nodes, BlockPages: 1, ReplicateText: true}.Build(p)
}

// dsConfig is the op's DataScalar configuration, built the way the sim
// experiment engine builds it.
func (o op) dsConfig(ff uint64) core.Config {
	cfg := core.DefaultConfig(o.Nodes)
	cfg.Topology.Kind = o.Topo
	cfg.MaxInstr = o.Instr
	cfg.FastForwardPC = ff
	cfg.ParallelNodes = o.Parallel
	cfg.Fault = o.Fault
	if o.Param != "" {
		applyParam(o.Param, o.Value, &cfg.L1, &cfg.DRAM, &cfg.Topology.Bus, &cfg.Core)
	}
	return cfg
}

// tradConfig is the op's traditional (or perfect-cache) configuration.
func (o op) tradConfig(ff uint64) traditional.Config {
	chips := o.Nodes
	if o.Kind == sim.KindPerfect {
		chips = 2
	}
	cfg := traditional.DefaultConfig(chips)
	cfg.Topology.Kind = o.Topo
	cfg.MaxInstr = o.Instr
	cfg.FastForwardPC = ff
	if o.Param != "" {
		applyParam(o.Param, o.Value, &cfg.L1, &cfg.DRAM, &cfg.Topology.Bus, &cfg.Core)
	}
	return cfg
}

// program assembles the op's kernel and finds its fast-forward point.
func (o op) program() (*prog.Program, uint64, error) {
	w, ok := workload.ByName(o.Kernel)
	if !ok {
		return nil, 0, fmt.Errorf("unknown kernel %q", o.Kernel)
	}
	p, err := w.Program(1)
	if err != nil {
		return nil, 0, err
	}
	ff, ok := p.Labels["bench_main"]
	if !ok {
		return nil, 0, fmt.Errorf("kernel %s has no bench_main label", o.Kernel)
	}
	return p, ff, nil
}

// exec runs the op through the simulator's public constructors, with ob
// (which may be nil) attached to the machine.
func (o op) exec(ob obs.Observer) (opRun, error) {
	var r opRun
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	r.Start = time.Now()
	lap := r.Start
	since := func() time.Duration {
		now := time.Now()
		d := now.Sub(lap)
		lap = now
		return d
	}
	p, ff, err := o.program()
	if err != nil {
		return r, err
	}
	r.Program = since()

	var run func() error
	switch o.Kind {
	case sim.KindPerfect:
		cfg := o.tradConfig(ff)
		run = func() error {
			res, err := traditional.RunPerfect(cfg.Core, p, o.Instr, ff)
			r.Trad = &res
			return err
		}
	case sim.KindDS:
		pt, err := partition(p, o.Nodes)
		if err != nil {
			return r, err
		}
		r.Partition = since()
		cfg := o.dsConfig(ff)
		cfg.Observer = ob
		m, err := core.NewMachine(cfg, p, pt)
		if err != nil {
			return r, err
		}
		r.Build = since()
		run = func() error {
			res, err := m.Run()
			r.FaultStats = m.FaultStats()
			if err != nil {
				// A campaign op's fault report or watchdog diagnosis is an
				// outcome to classify, as in sim.FaultCampaign.
				var rep *fault.Report
				var dl *core.DeadlockError
				switch {
				case !o.Campaign:
					return err
				case errors.As(err, &rep):
					r.Outcome, r.Cycles = sim.OutcomeHalted, rep.Cycle
				case errors.As(err, &dl):
					r.Outcome, r.Cycles = sim.OutcomeWatchdog, dl.Cycle
				default:
					return err
				}
				r.Failure = err.Error()
				return nil
			}
			if !res.CorrespondenceOK {
				return errors.New("cache correspondence violated")
			}
			r.DS = &res
			return nil
		}
	case sim.KindTraditional:
		pt, err := partition(p, o.Nodes)
		if err != nil {
			return r, err
		}
		r.Partition = since()
		cfg := o.tradConfig(ff)
		cfg.Observer = ob
		m, err := traditional.NewMachine(cfg, p, pt)
		if err != nil {
			return r, err
		}
		r.Build = since()
		run = func() error {
			res, err := m.Run()
			r.Trad = &res
			return err
		}
	default:
		return r, fmt.Errorf("unknown machine kind %v", o.Kind)
	}

	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	r.RunStart = time.Now()
	err = run()
	r.Run = time.Since(r.RunStart)
	runtime.ReadMemStats(&ms)
	r.Mallocs = ms.Mallocs - mallocs0
	r.AllocBytes = ms.TotalAlloc - alloc0
	if err != nil {
		return r, err
	}

	var record any
	switch {
	case r.DS != nil:
		r.Cycles, r.Instr, r.IPC = r.DS.Cycles, r.DS.Instructions, r.DS.IPC
		record = r.DS
	case r.Trad != nil:
		r.Cycles, r.Instr, r.IPC = r.Trad.Cycles, r.Trad.Instructions, r.Trad.IPC
		record = r.Trad
	}
	r.NodeCycles = r.Cycles
	if o.Kind == sim.KindDS {
		r.NodeCycles = r.Cycles * uint64(o.Nodes)
	}
	if o.Campaign {
		if r.Outcome == "" {
			r.Outcome = classifyOutcome(r.FaultStats)
		}
		record = struct {
			Outcome string
			Result  *core.Result
			Stats   *fault.Stats
			Failure string
		}{r.Outcome, r.DS, r.FaultStats, r.Failure}
	}
	var buf bytes.Buffer
	if err := sim.WriteJSON(&buf, record); err != nil {
		return r, err
	}
	sum := sha256.Sum256(buf.Bytes())
	r.Digest = hex.EncodeToString(sum[:])
	return r, nil
}

// classifyOutcome mirrors sim.FaultCampaign's outcome classes for a
// completed run (a test pins the mirror to the campaign's runs).
func classifyOutcome(st *fault.Stats) string {
	switch {
	case st == nil:
		return sim.OutcomeClean
	case st.InjectedFlips > 0 && st.DetectedFlips == 0:
		return sim.OutcomeCorrupted
	case st.Degraded || len(st.Deaths) > 0:
		return sim.OutcomeRecovered
	}
	return sim.OutcomeClean
}

// checkInvariants verifies what every correct run satisfies whatever
// its inputs: each node's CPI stack sums to the cycle count, and a
// completed op committed instructions.
func checkInvariants(o op, r opRun) error {
	if r.Failure != "" {
		return nil
	}
	if r.Instr == 0 {
		return errors.New("committed no instructions")
	}
	if r.DS != nil {
		if len(r.DS.CPIStacks) != o.Nodes {
			return fmt.Errorf("%d CPI stacks for %d nodes", len(r.DS.CPIStacks), o.Nodes)
		}
		for i, s := range r.DS.CPIStacks {
			if s.Total() != r.Cycles {
				return fmt.Errorf("node %d CPI stack sums to %d, not %d cycles", i, s.Total(), r.Cycles)
			}
		}
	}
	if r.Trad != nil && r.Trad.CPIStack.Total() != r.Cycles {
		return fmt.Errorf("CPI stack sums to %d, not %d cycles", r.Trad.CPIStack.Total(), r.Cycles)
	}
	return nil
}
