package sim

import (
	"context"
	"fmt"

	"github.com/wisc-arch/datascalar/internal/analysis"
	"github.com/wisc-arch/datascalar/internal/asm"
	"github.com/wisc-arch/datascalar/internal/bus"
	"github.com/wisc-arch/datascalar/internal/cache"
	"github.com/wisc-arch/datascalar/internal/core"
	"github.com/wisc-arch/datascalar/internal/mem"
	"github.com/wisc-arch/datascalar/internal/mmm"
	"github.com/wisc-arch/datascalar/internal/prog"
	"github.com/wisc-arch/datascalar/internal/stats"
	"github.com/wisc-arch/datascalar/internal/trace"
	"github.com/wisc-arch/datascalar/internal/workload"
)

// This file holds the ablation studies DESIGN.md §6 calls out: design
// choices the paper discusses but does not (or only partially)
// evaluates. Each ablation isolates one mechanism of the DataScalar
// design and measures its contribution. Like every harness, the
// ablations enumerate their sweeps as engine jobs, so they parallelize
// under Options.Parallel with bit-identical results.

// ---------------------------------------------------------------------------
// Ablation 1: bus versus ring interconnect (paper Section 4.4).

// InterconnectRow compares one benchmark across interconnects at one node
// count.
type InterconnectRow struct {
	Benchmark string
	Nodes     int
	BusIPC    float64
	RingIPC   float64
}

// InterconnectResult holds the interconnect ablation.
type InterconnectResult struct {
	Rows []InterconnectRow
}

// Table renders the ablation.
func (r InterconnectResult) Table() *stats.Table {
	t := stats.NewTable(
		"Ablation: DataScalar IPC on a global bus vs a unidirectional ring",
		"benchmark", "nodes", "bus IPC", "ring IPC")
	for _, row := range r.Rows {
		t.AddRowf(row.Benchmark, row.Nodes, row.BusIPC, row.RingIPC)
	}
	return t
}

// AblationInterconnect compares the default global bus against a ring of
// equal link width and clock. The paper argues buses make broadcast free
// but do not scale, while rings scale aggregate bandwidth at the cost of
// multi-hop broadcast latency; the crossover should appear as node count
// grows.
func AblationInterconnect(ctx context.Context, opts Options) (InterconnectResult, error) {
	opts = opts.withDefaults()
	ws, err := resolveWorkloads([]string{"compress", "mgrid"})
	if err != nil {
		return InterconnectResult{}, err
	}
	// One point per (benchmark, node count): a bus run and a ring run.
	nodeCounts := []int{2, 4}
	rows, err := sweep(ctx, opts, len(ws)*len(nodeCounts), func(i int) []Job {
		onBus := Job{Workload: ws[i/len(nodeCounts)], Kind: KindDS,
			Nodes: nodeCounts[i%len(nodeCounts)], MaxInstr: opts.TimingInstr}
		onRing := onBus
		onRing.Topology = bus.TopoRing
		return []Job{onBus, onRing}
	}, func(i int, res []JobResult) InterconnectRow {
		return InterconnectRow{
			Benchmark: ws[i/len(nodeCounts)].Name,
			Nodes:     nodeCounts[i%len(nodeCounts)],
			BusIPC:    res[0].IPC(),
			RingIPC:   res[1].IPC(),
		}
	})
	return InterconnectResult{Rows: rows}, err
}

// ---------------------------------------------------------------------------
// Ablation 2: write-allocate versus write-no-allocate under ESP
// (paper Section 4.2 argues no-allocate is superior: "a write miss
// requires sending an inter-processor message, only to overwrite the
// received data").

// WritePolicyRow compares the traffic both policies generate.
type WritePolicyRow struct {
	Benchmark string
	// ESPBytes per policy: under write-allocate every store miss forces
	// a broadcast of a line that is about to be overwritten.
	AllocESPBytes   uint64
	NoAllocESPBytes uint64
	// Saved is the fraction of ESP bytes no-allocate avoids.
	Saved float64
}

// WritePolicyResult holds the write-policy ablation.
type WritePolicyResult struct {
	Rows []WritePolicyRow
}

// Table renders the ablation.
func (r WritePolicyResult) Table() *stats.Table {
	t := stats.NewTable(
		"Ablation: ESP broadcast bytes under write-allocate vs write-no-allocate",
		"benchmark", "write-allocate", "write-no-allocate", "saved")
	for _, row := range r.Rows {
		t.AddRow(row.Benchmark,
			fmt.Sprintf("%d", row.AllocESPBytes),
			fmt.Sprintf("%d", row.NoAllocESPBytes),
			stats.FormatPercent(row.Saved*100))
	}
	return t
}

// AblationWritePolicy measures, at the reference-trace level, the ESP
// broadcast traffic generated under each store-miss policy for the
// store-heavy benchmarks. Write-allocate turns every store miss into a
// line broadcast whose payload is immediately overwritten — the waste
// the paper's chosen write-no-allocate policy avoids. The eight
// (benchmark, policy) measurements are independent analysis units.
func AblationWritePolicy(ctx context.Context, opts Options) (WritePolicyResult, error) {
	opts = opts.withDefaults()
	var out WritePolicyResult
	ws, err := resolveWorkloads([]string{"compress", "vortex", "swim", "wave5"})
	if err != nil {
		return out, err
	}
	policies := []cache.AllocPolicy{cache.WriteAllocate, cache.WriteNoAllocate}
	bytes, err := runIndexed(ctx, opts.Parallel, len(ws)*len(policies), func(i int) (uint64, error) {
		pr, err := prepare(ws[i/len(policies)], opts.Scale)
		if err != nil {
			return 0, err
		}
		cfg := trace.DefaultTrafficConfig()
		cfg.L1.Alloc = policies[i%len(policies)]
		a := trace.NewTrafficAnalyzer(cfg)
		err = trace.ForEachRefFrom(pr.p, pr.ff, opts.RefInstr, false, func(ref trace.Ref) error {
			return a.Observe(ref)
		})
		if err != nil {
			return 0, err
		}
		return a.Finish().ESPBytes, nil
	})
	if err != nil {
		return out, err
	}
	for i, w := range ws {
		allocB, noAllocB := bytes[2*i], bytes[2*i+1]
		row := WritePolicyRow{Benchmark: w.Name, AllocESPBytes: allocB, NoAllocESPBytes: noAllocB}
		if allocB > 0 {
			row.Saved = 1 - float64(noAllocB)/float64(allocB)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Ablation 3: synchronous versus asynchronous ESP (the MMM's single
// datathread versus DataScalar's concurrent ones, paper Sections 2-3).

// SyncESPRow compares one benchmark's miss stream under lock-step ESP
// against the measured asynchronous machine.
type SyncESPRow struct {
	Benchmark string
	// Misses in the analyzed stream.
	Misses uint64
	// SyncCycles is the synchronous-ESP (MMM) cost of the stream: one
	// transfer per miss plus a full catch-up stall at every ownership
	// change.
	SyncCycles uint64
	// IdealCycles is the zero-stall transfer-bound floor.
	IdealCycles uint64
	// Slowdown = SyncCycles / IdealCycles: what lock-step costs; the
	// asynchronous machine's datathreading exists to reclaim this gap.
	Slowdown float64
	// LeadChanges along the stream.
	LeadChanges int
}

// SyncESPResult holds the ablation.
type SyncESPResult struct {
	Rows []SyncESPRow
}

// Table renders the ablation.
func (r SyncESPResult) Table() *stats.Table {
	t := stats.NewTable(
		"Ablation: synchronous (lock-step) ESP cost of each benchmark's miss stream",
		"benchmark", "misses", "lead changes", "sync cycles", "ideal", "slowdown")
	for _, row := range r.Rows {
		t.AddRowf(row.Benchmark, row.Misses, row.LeadChanges,
			row.SyncCycles, row.IdealCycles, stats.Round2(row.Slowdown))
	}
	return t
}

// AblationSyncESP replays each timing benchmark's cache-filtered miss
// stream through the synchronous Massive Memory Machine model: every
// ownership transition stalls all processors for the catch-up delay,
// because lock-step ESP sustains exactly one datathread. The slowdown
// column is the gap asynchronous ESP (the DataScalar machine) closes by
// running datathreads concurrently.
func AblationSyncESP(ctx context.Context, opts Options) (SyncESPResult, error) {
	opts = opts.withDefaults()
	ws := workload.TimingSet()
	rows, err := runIndexed(ctx, opts.Parallel, len(ws), func(i int) (SyncESPRow, error) {
		pr, err := prepare(ws[i], opts.Scale)
		if err != nil {
			return SyncESPRow{}, err
		}
		pt, err := defaultPartition(pr.p, 4)
		if err != nil {
			return SyncESPRow{}, err
		}
		filter := trace.DefaultMissFilter()
		var refs []uint64
		owner := make(map[uint64]int)
		err = trace.ForEachRefFrom(pr.p, pr.ff, opts.RefInstr, false, func(ref trace.Ref) error {
			if !filter.Observe(ref) {
				return nil
			}
			line := ref.Addr &^ 31
			refs = append(refs, line)
			if o := pt.OwnerOf(line); o >= 0 {
				owner[line] = o
			}
			return nil
		})
		if err != nil {
			return SyncESPRow{}, err
		}
		res, err := mmm.Simulate(mmm.Config{Processors: 4, BroadcastDelay: 8}, refs, owner)
		if err != nil {
			return SyncESPRow{}, err
		}
		return SyncESPRow{
			Benchmark:   pr.w.Name,
			Misses:      uint64(len(refs)),
			SyncCycles:  res.Cycles,
			IdealCycles: res.IdealCycles,
			Slowdown:    res.Slowdown(),
			LeadChanges: res.LeadChanges,
		}, nil
	})
	return SyncESPResult{Rows: rows}, err
}

// ---------------------------------------------------------------------------
// Ablation 4: result communication (paper Section 5.1).

// ResultCommRow compares a private-region workload with the optimization
// on and off.
type ResultCommRow struct {
	Nodes          int
	OffIPC         float64
	OnIPC          float64
	OffBroadcasts  uint64
	OnBroadcasts   uint64
	SkippedPerNode float64
}

// ResultCommResult holds the ablation.
type ResultCommResult struct {
	Rows []ResultCommRow
}

// Table renders the ablation.
func (r ResultCommResult) Table() *stats.Table {
	t := stats.NewTable(
		"Ablation: result communication on a private block-reduction workload",
		"nodes", "IPC off", "IPC on", "broadcasts off", "broadcasts on", "skipped instr/node")
	for _, row := range r.Rows {
		t.AddRowf(row.Nodes, row.OffIPC, row.OnIPC,
			row.OffBroadcasts, row.OnBroadcasts, stats.Round1(row.SkippedPerNode))
	}
	return t
}

// resultCommKernel is a block-wise reduction with PRIVB/PRIVE regions:
// the canonical private computation the paper describes — each block's
// owner reduces it locally and only the per-block results are ever
// communicated.
func resultCommKernel() string {
	return `
        .data
blocks: .space 131072            # 16 pages, round-robin distributed
        .space 288
sums:   .space 1024
        .text
        la   r1, blocks
        li   r2, 16384
        li   r3, 1
init:   sd   r3, 0(r1)
        addi r3, r3, 3
        addi r1, r1, 8
        addi r2, r2, -1
        bne  r2, zero, init
bench_main:
        la   r10, blocks
        la   r11, sums
        li   r12, 16
blk:    privb 0(r10)
        li   r2, 1024
        li   r3, 0
        mov  r1, r10
red:    ld   r4, 0(r1)
        add  r3, r3, r4
        addi r1, r1, 8
        addi r2, r2, -1
        bne  r2, zero, red
        sd   r3, 0(r11)
        prive
        addi r10, r10, 8192
        addi r11, r11, 8
        addi r12, r12, -1
        bne  r12, zero, blk
        la   r11, sums
        li   r12, 16
        li   r20, 0
tot:    ld   r4, 0(r11)
        add  r20, r20, r4
        addi r11, r11, 8
        addi r12, r12, -1
        bne  r12, zero, tot
        halt
`
}

// AblationResultComm measures the paper's Section 5.1 optimization on the
// block-reduction workload at two and four nodes.
func AblationResultComm(ctx context.Context, opts Options) (ResultCommResult, error) {
	opts = opts.withDefaults()
	p, err := asm.Assemble("resultcomm", resultCommKernel())
	if err != nil {
		return ResultCommResult{}, err
	}
	w := workload.Workload{Name: "resultcomm"}
	nodeCounts := []int{2, 4}
	rows, err := sweep(ctx, opts, len(nodeCounts), func(i int) []Job {
		off := Job{Workload: w, Program: p, Kind: KindDS, Nodes: nodeCounts[i]}
		on := off
		on.DSMut = func(cfg *core.Config) { cfg.ResultComm = true }
		return []Job{off, on}
	}, func(i int, res []JobResult) ResultCommRow {
		off, on := res[0].DS, res[1].DS
		var skipped uint64
		for _, ns := range on.Nodes {
			skipped += ns.SkippedInstr.Value()
		}
		return ResultCommRow{
			Nodes:          nodeCounts[i],
			OffIPC:         off.IPC,
			OnIPC:          on.IPC,
			OffBroadcasts:  off.BusStats.ByKindMsgs[bus.Broadcast].Value(),
			OnBroadcasts:   on.BusStats.ByKindMsgs[bus.Broadcast].Value(),
			SkippedPerNode: float64(skipped) / float64(nodeCounts[i]),
		}
	})
	return ResultCommResult{Rows: rows}, err
}

// ---------------------------------------------------------------------------
// Ablation 5: BSHR and broadcast-queue latencies.

// LatencyRow is one (bshr, queue) latency point.
type LatencyRow struct {
	BSHRCycles       uint64
	BcastQueueCycles uint64
	IPC              float64
}

// LatencyResult holds the latency ablation.
type LatencyResult struct {
	Benchmark string
	Rows      []LatencyRow
}

// Table renders the ablation.
func (r LatencyResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Ablation: BSHR / broadcast-queue latencies (%s, 2 nodes)", r.Benchmark),
		"BSHR cycles", "bcast-queue cycles", "IPC")
	for _, row := range r.Rows {
		t.AddRowf(row.BSHRCycles, row.BcastQueueCycles, row.IPC)
	}
	return t
}

// AblationLatencies sweeps the two DataScalar-specific structure
// latencies the paper fixes by assumption (2-cycle broadcast queue,
// BSHR access) to show how sensitive the design is to them.
func AblationLatencies(ctx context.Context, opts Options) (LatencyResult, error) {
	opts = opts.withDefaults()
	ws, err := resolveWorkloads([]string{"compress"})
	if err != nil {
		return LatencyResult{}, err
	}
	out := LatencyResult{Benchmark: ws[0].Name}
	points := []struct{ bshr, q uint64 }{
		{1, 1}, {2, 2}, {4, 4}, {8, 8}, {16, 16},
	}
	out.Rows, err = sweep(ctx, opts, len(points), func(i int) []Job {
		point := points[i]
		return []Job{{
			Workload: ws[0], Kind: KindDS, Nodes: 2, MaxInstr: opts.SweepInstr,
			DSMut: func(cfg *core.Config) {
				cfg.BSHRCycles = point.bshr
				cfg.BcastQueueCycles = point.q
			},
		}}
	}, func(i int, res []JobResult) LatencyRow {
		return LatencyRow{
			BSHRCycles:       points[i].bshr,
			BcastQueueCycles: points[i].q,
			IPC:              res[0].IPC(),
		}
	})
	return out, err
}

// ---------------------------------------------------------------------------
// Ablation 6: profile-guided page placement (the paper's "special support
// to increase datathread length", Section 3.2).

// PlacementRow compares round-robin distribution, profile-guided
// placement, and static-affinity placement (internal/analysis, no
// profiling run) on one benchmark.
type PlacementRow struct {
	Benchmark string
	// Mean datathread length over the miss stream under each placement.
	RRThreadMean, OptThreadMean, StaticThreadMean float64
	// Broadcasts per 1000 committed instructions under each placement
	// (default bus). Replication is identical across the three, so this
	// isolates how placement shifts work between owned and remote pages.
	RRBcastPerK, OptBcastPerK, StaticBcastPerK float64
	// DataScalar 4-node IPC under each placement, at the default bus.
	RRIPC, OptIPC, StaticIPC float64
	// The same comparison under a 4x slower global bus, where broadcast
	// latency is exposed and datathread length actually pays.
	RRIPCSlow, OptIPCSlow, StaticIPCSlow float64
}

// PlacementResult holds the placement ablation.
type PlacementResult struct {
	Rows []PlacementRow
}

// Table renders the ablation.
func (r PlacementResult) Table() *stats.Table {
	t := stats.NewTable(
		"Ablation: round-robin vs profile-guided vs static-affinity page placement (4 nodes)",
		"benchmark", "thread RR", "thread opt", "thread static",
		"bcast/1k RR", "bcast/1k opt", "bcast/1k static",
		"IPC RR", "IPC opt", "IPC static",
		"IPC RR slow", "IPC opt slow", "IPC static slow")
	for _, row := range r.Rows {
		t.AddRowf(row.Benchmark,
			stats.Round1(row.RRThreadMean), stats.Round1(row.OptThreadMean), stats.Round1(row.StaticThreadMean),
			stats.Round1(row.RRBcastPerK), stats.Round1(row.OptBcastPerK), stats.Round1(row.StaticBcastPerK),
			row.RRIPC, row.OptIPC, row.StaticIPC,
			row.RRIPCSlow, row.OptIPCSlow, row.StaticIPCSlow)
	}
	return t
}

// bcastPerK returns broadcasts per 1000 committed instructions across
// all nodes of a run.
func bcastPerK(r core.Result) float64 {
	if r.Instructions == 0 {
		return 0
	}
	var total uint64
	for i := range r.Nodes {
		total += r.Nodes[i].Broadcasts.Value()
	}
	return 1000 * float64(total) / float64(r.Instructions)
}

// placementPlan is one benchmark's stage-one output: the three page
// tables to race and the analysis-side datathread means.
type placementPlan struct {
	pr                          prepared
	rrPT, optPT, staticPT       *mem.PageTable
	rrMean, optMean, staticMean float64
}

// AblationPlacement profiles each benchmark's miss-stream page
// transitions, clusters pages that miss consecutively onto the same node
// (capacity-balanced), and measures the effect on datathread length and
// DataScalar IPC against the paper's round-robin distribution. This is
// the software side of the paper's observation that "programs would
// benefit from special support to increase datathread length".
//
// Two engine phases: stage one builds the three placements per benchmark
// (profiling + static analysis, independent per benchmark); stage two
// races the six timing runs per benchmark as one flat job batch.
func AblationPlacement(ctx context.Context, opts Options) (PlacementResult, error) {
	opts = opts.withDefaults()
	const nodes = 4
	// swim/applu are streaming (their loads pipeline regardless of
	// placement, so only thread length moves); gcc/li chase dependent
	// pointers, where fewer ownership transitions shorten the serialized
	// crossing chain and IPC can move too.
	ws, err := resolveWorkloads([]string{"swim", "applu", "gcc", "li"})
	if err != nil {
		return PlacementResult{}, err
	}
	plans, err := runIndexed(ctx, opts.Parallel, len(ws), func(i int) (placementPlan, error) {
		return placementPlanFor(ws[i], nodes, opts)
	})
	if err != nil {
		return PlacementResult{}, err
	}

	slowBus := func(cfg *core.Config) { cfg.Topology.Bus.ClockDivisor = 8 }
	rows, err := sweep(ctx, opts, len(plans), func(i int) []Job {
		// Six timing runs per benchmark: the three placements at the
		// default bus, then the same three under the 4x slower bus.
		plan := plans[i]
		var jobs []Job
		for _, mut := range []func(*core.Config){nil, slowBus} {
			for _, pt := range []*mem.PageTable{plan.rrPT, plan.optPT, plan.staticPT} {
				jobs = append(jobs, Job{
					Workload: plan.pr.w, Kind: KindDS, Nodes: nodes,
					MaxInstr: opts.TimingInstr, PageTable: pt, DSMut: mut,
				})
			}
		}
		return jobs
	}, func(i int, res []JobResult) PlacementRow {
		plan := plans[i]
		rr, opt, static := res[0].DS, res[1].DS, res[2].DS
		rrSlow, optSlow, staticSlow := res[3].DS, res[4].DS, res[5].DS
		return PlacementRow{
			Benchmark:        ws[i].Name,
			RRThreadMean:     plan.rrMean,
			OptThreadMean:    plan.optMean,
			StaticThreadMean: plan.staticMean,
			RRBcastPerK:      bcastPerK(rr),
			OptBcastPerK:     bcastPerK(opt),
			StaticBcastPerK:  bcastPerK(static),
			RRIPC:            rr.IPC,
			OptIPC:           opt.IPC,
			StaticIPC:        static.IPC,
			RRIPCSlow:        rrSlow.IPC,
			OptIPCSlow:       optSlow.IPC,
			StaticIPCSlow:    staticSlow.IPC,
		}
	})
	return PlacementResult{Rows: rows}, err
}

// placementPlanFor builds one benchmark's three candidate placements and
// their analysis-side datathread means.
func placementPlanFor(w workload.Workload, nodes int, opts Options) (placementPlan, error) {
	pr, err := prepare(w, opts.Scale)
	if err != nil {
		return placementPlan{}, err
	}

	// Profile page transitions over the cache-filtered miss stream.
	tp := mem.NewTransitionProfile()
	filter := trace.DefaultMissFilter()
	err = trace.ForEachRefFrom(pr.p, pr.ff, opts.RefInstr, false, func(ref trace.Ref) error {
		if filter.Observe(ref) {
			tp.Observe(ref.Addr)
		}
		return nil
	})
	if err != nil {
		return placementPlan{}, err
	}

	// Fixed set: text pages stay replicated, as in the timing runs.
	fixed := map[uint64]bool{}
	for _, pg := range pr.p.Pages() {
		if prog.SegmentOf(pg*prog.PageSize) == prog.SegText {
			fixed[pg] = true
		}
	}
	placement := tp.OptimizePlacement(nodes, fixed)
	optPT := mem.BuildOptimized(pr.p.Pages(), placement, fixed, nodes)
	rrPT, err := defaultPartition(pr.p, nodes)
	if err != nil {
		return placementPlan{}, err
	}

	// Static-affinity placement: same clustering, but the transition
	// graph comes from interval analysis of the binary instead of a
	// profiling run.
	aff := analysis.ComputePageAffinity(pr.p)
	staticPlacement := mem.PlaceStaticAffinity(aff.Touches, aff.Edges, nodes, fixed)
	staticPT := mem.BuildOptimized(pr.p.Pages(), staticPlacement, fixed, nodes)

	threadMean := func(pt *mem.PageTable) (float64, error) {
		f := trace.DefaultMissFilter()
		an := trace.NewDatathreadAnalyzer(pt)
		err := trace.ForEachRefFrom(pr.p, pr.ff, opts.RefInstr, false, func(ref trace.Ref) error {
			if f.Observe(ref) {
				an.Observe(ref.Addr, false)
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		return an.Finish().AllMean, nil
	}
	plan := placementPlan{pr: pr, rrPT: rrPT, optPT: optPT, staticPT: staticPT}
	if plan.rrMean, err = threadMean(rrPT); err != nil {
		return placementPlan{}, err
	}
	if plan.optMean, err = threadMean(optPT); err != nil {
		return placementPlan{}, err
	}
	if plan.staticMean, err = threadMean(staticPT); err != nil {
		return placementPlan{}, err
	}
	return plan, nil
}

// ---------------------------------------------------------------------------
// Ablation 7: static replication fraction (paper Section 3). Replicated
// pages complete every access locally at every node, trading capacity
// (each node must hold a copy) for eliminated broadcasts.

// ReplicationPoint measures one replication budget.
type ReplicationPoint struct {
	// Fraction of data pages replicated (hottest first).
	Fraction float64
	// ReplicatedPages actually chosen.
	ReplicatedPages int
	IPC             float64
	Broadcasts      uint64
	// NodeKB is the per-node memory footprint this replication level
	// costs (replicated pages count at every node).
	NodeKB uint64
}

// ReplicationRow is one benchmark's sweep.
type ReplicationRow struct {
	Benchmark string
	Points    []ReplicationPoint
}

// ReplicationResult holds the sweep.
type ReplicationResult struct {
	Nodes int
	Rows  []ReplicationRow
}

// Table renders the sweep.
func (r ReplicationResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Ablation: static replication fraction (%d nodes, hottest pages first)", r.Nodes),
		"benchmark", "replicated", "pages", "IPC", "broadcasts", "KB/node")
	for _, row := range r.Rows {
		for _, p := range row.Points {
			t.AddRowf(row.Benchmark, stats.FormatPercent(p.Fraction*100),
				p.ReplicatedPages, p.IPC, p.Broadcasts, p.NodeKB)
		}
	}
	return t
}

// replicationFractions are the swept budgets.
var replicationFractions = []float64{0, 0.125, 0.25, 0.5}

// replicationPlan is one benchmark's stage-one output: the page table
// and chosen page count per swept fraction.
type replicationPlan struct {
	pr     prepared
	pts    []*mem.PageTable
	counts []int
}

// AblationReplication sweeps the fraction of (hottest-first) data pages
// statically replicated at every node, measuring the broadcast traffic
// eliminated and the capacity paid — the paper's Section 3 replication
// trade-off quantified. The timing runs of Figure 7 replicate nothing
// ("we did not statically replicate any data pages"), making this the
// other end of the design space.
func AblationReplication(ctx context.Context, opts Options) (ReplicationResult, error) {
	opts = opts.withDefaults()
	const nodes = 4
	out := ReplicationResult{Nodes: nodes}
	ws, err := resolveWorkloads([]string{"compress", "li"})
	if err != nil {
		return out, err
	}
	plans, err := runIndexed(ctx, opts.Parallel, len(ws), func(i int) (replicationPlan, error) {
		return replicationPlanFor(ws[i], nodes, opts)
	})
	if err != nil {
		return out, err
	}

	out.Rows, err = sweep(ctx, opts, len(plans), func(i int) []Job {
		jobs := make([]Job, len(plans[i].pts))
		for k, pt := range plans[i].pts {
			jobs[k] = Job{
				Workload: plans[i].pr.w, Kind: KindDS, Nodes: nodes,
				MaxInstr: opts.TimingInstr, PageTable: pt,
			}
		}
		return jobs
	}, func(i int, res []JobResult) ReplicationRow {
		plan := plans[i]
		row := ReplicationRow{Benchmark: ws[i].Name}
		for k, frac := range replicationFractions {
			r := res[k].DS
			row.Points = append(row.Points, ReplicationPoint{
				Fraction:        frac,
				ReplicatedPages: plan.counts[k],
				IPC:             r.IPC,
				Broadcasts:      r.BusStats.ByKindMsgs[bus.Broadcast].Value(),
				NodeKB:          plan.pts[k].NodeBytes(0) / 1024,
			})
		}
		return row
	})
	return out, err
}

// replicationPlanFor profiles one benchmark's page heat and builds the
// page table for each swept replication fraction.
func replicationPlanFor(w workload.Workload, nodes int, opts Options) (replicationPlan, error) {
	pr, err := prepare(w, opts.Scale)
	if err != nil {
		return replicationPlan{}, err
	}

	// Page heat over the steady-state reference stream.
	profiler := mem.NewProfiler()
	if err := trace.ProfilePagesFrom(pr.p, pr.ff, opts.RefInstr, profiler.Observe); err != nil {
		return replicationPlan{}, err
	}
	var dataPages []uint64
	for _, pg := range profiler.PagesByHeat() {
		if prog.SegmentOf(pg*prog.PageSize) != prog.SegText {
			dataPages = append(dataPages, pg)
		}
	}

	plan := replicationPlan{pr: pr}
	for _, frac := range replicationFractions {
		n := int(frac * float64(len(dataPages)))
		repl := make(map[uint64]bool, n)
		for _, pg := range dataPages[:n] {
			repl[pg] = true
		}
		pt, err := mem.Partition{
			NumNodes:        nodes,
			BlockPages:      1,
			ReplicateText:   true,
			ReplicatedPages: repl,
		}.Build(pr.p)
		if err != nil {
			return replicationPlan{}, err
		}
		plan.pts = append(plan.pts, pt)
		plan.counts = append(plan.counts, n)
	}
	return plan, nil
}
