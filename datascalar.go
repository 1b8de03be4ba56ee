// Package datascalar is a library-grade reproduction of "DataScalar
// Architectures" (Burger, Kaxiras, Goodman — ISCA 1997): an execution
// model that runs one sequential program redundantly across several
// processor+memory nodes, broadcasts each owned operand instead of ever
// requesting it (asynchronous ESP), and keeps the nodes' caches
// correspondent by updating tags only at commit.
//
// The package is a stable facade over the internal implementation:
//
//   - Machines: NewMachine (the DataScalar system, the paper's
//     contribution), NewTraditional (the request/response baseline), and
//     RunPerfectCache (the perfect-data-cache bound).
//   - Programs: Assemble compiles the bundled RISC assembly dialect;
//     Workloads exposes the SPEC95-analogue benchmark suite.
//   - Partitioning: Partition distributes a program's pages across nodes
//     (replicated versus communicated, round-robin blocks), the paper's
//     memory model.
//   - Experiments: the sim.* functions re-exported here regenerate every
//     table and figure of the paper's evaluation (see EXPERIMENTS.md).
//
// Quick start (see examples/quickstart for the full program):
//
//	p, _ := datascalar.Assemble("demo", src)
//	pt, _ := datascalar.Partition{NumNodes: 2, ReplicateText: true}.Build(p)
//	m, _ := datascalar.NewMachine(datascalar.DefaultConfig(2), p, pt)
//	res, _ := m.Run()
//	fmt.Println(res.IPC, res.CorrespondenceOK)
package datascalar

import (
	"context"
	"io"

	"github.com/wisc-arch/datascalar/internal/asm"
	"github.com/wisc-arch/datascalar/internal/bus"
	"github.com/wisc-arch/datascalar/internal/core"
	"github.com/wisc-arch/datascalar/internal/emu"
	"github.com/wisc-arch/datascalar/internal/fault"
	"github.com/wisc-arch/datascalar/internal/mem"
	"github.com/wisc-arch/datascalar/internal/mmm"
	"github.com/wisc-arch/datascalar/internal/obs"
	"github.com/wisc-arch/datascalar/internal/ooo"
	"github.com/wisc-arch/datascalar/internal/prog"
	"github.com/wisc-arch/datascalar/internal/sim"
	"github.com/wisc-arch/datascalar/internal/stats"
	"github.com/wisc-arch/datascalar/internal/traditional"
	"github.com/wisc-arch/datascalar/internal/workload"
)

// ---------------------------------------------------------------------------
// Programs and workloads.

// Program is an assembled executable image for the bundled ISA.
type Program = prog.Program

// PageSize is the virtual page size (8 KB), the paper's replication and
// distribution granularity.
const PageSize = prog.PageSize

// Assemble compiles the bundled assembly dialect (see internal/asm for
// the syntax) into a runnable program.
func Assemble(name, source string) (*Program, error) {
	return asm.Assemble(name, source)
}

// Workload is one SPEC95-analogue benchmark.
type Workload = workload.Workload

// Workloads returns the full benchmark suite (the fourteen Table 1
// benchmarks plus go).
func Workloads() []Workload { return workload.All() }

// WorkloadByName looks a benchmark up by its SPEC95 name.
func WorkloadByName(name string) (Workload, bool) { return workload.ByName(name) }

// TimingWorkloads returns the six benchmarks of the paper's timing
// studies: applu, compress, go, mgrid, turb3d, wave5.
func TimingWorkloads() []Workload { return workload.TimingSet() }

// Emulator is the functional (architectural) machine; use it to run
// programs without timing simulation.
type Emulator = emu.Machine

// NewEmulator loads a program into a fresh functional machine.
func NewEmulator(p *Program) (*Emulator, error) { return emu.New(p) }

// ---------------------------------------------------------------------------
// Memory partitioning.

// Partition distributes a program's pages across nodes: replicated pages
// live at every node, communicated pages are dealt round-robin in blocks
// and owned by exactly one node.
type Partition = mem.Partition

// PageTable is the resulting ownership map.
type PageTable = mem.PageTable

// ---------------------------------------------------------------------------
// The DataScalar machine (the paper's contribution).

// Config parameterizes a DataScalar machine; DefaultConfig matches the
// paper's simulated implementation.
type Config = core.Config

// Machine is an N-node DataScalar system.
type Machine = core.Machine

// Result summarizes a DataScalar run: cycles, IPC, per-node ESP and BSHR
// statistics, bus traffic, and the cache-correspondence verdict.
type Result = core.Result

// DefaultConfig returns the paper's parameters for an n-node machine:
// 8-way out-of-order cores with 256-entry RUUs, 16 KB direct-mapped
// write-back write-no-allocate L1s updated at commit, 8-cycle on-chip
// memory banks, and an 8-byte global broadcast bus.
func DefaultConfig(n int) Config { return core.DefaultConfig(n) }

// NewMachine builds a DataScalar machine executing p under partition pt.
func NewMachine(cfg Config, p *Program, pt *PageTable) (*Machine, error) {
	return core.NewMachine(cfg, p, pt)
}

// ---------------------------------------------------------------------------
// Baselines.

// TraditionalConfig parameterizes the request/response baseline (one CPU
// chip with 1/N memory on-chip, memory chips behind the bus).
type TraditionalConfig = traditional.Config

// Traditional is the baseline machine.
type Traditional = traditional.Machine

// TraditionalResult summarizes a baseline run.
type TraditionalResult = traditional.Result

// DefaultTraditionalConfig returns the baseline matching DefaultConfig(n).
func DefaultTraditionalConfig(chips int) TraditionalConfig {
	return traditional.DefaultConfig(chips)
}

// NewTraditional builds the baseline machine.
func NewTraditional(cfg TraditionalConfig, p *Program, pt *PageTable) (*Traditional, error) {
	return traditional.NewMachine(cfg, p, pt)
}

// CoreConfig parameterizes the shared out-of-order core.
type CoreConfig = ooo.Config

// DefaultCoreConfig returns the paper's core parameters.
func DefaultCoreConfig() CoreConfig { return ooo.DefaultConfig() }

// RunPerfectCache runs p on the shared core with the paper's perfect
// data cache (single-cycle access to any operand), bounded by maxInstr
// (0 = completion) after fast-forwarding to ffPC (0 = none).
func RunPerfectCache(cfg CoreConfig, p *Program, maxInstr, ffPC uint64) (TraditionalResult, error) {
	return traditional.RunPerfect(cfg, p, maxInstr, ffPC)
}

// ---------------------------------------------------------------------------
// Observability (docs/OBSERVABILITY.md).

// Observer receives protocol events and interval samples from a running
// machine; set it on Config.Observer (DataScalar) or
// TraditionalConfig.Observer. A nil Observer disables observation at
// zero cost, and an attached one never perturbs timing: cycle counts and
// every statistics counter are bit-identical with observation on or off.
type Observer = obs.Observer

// ObsEvent is one timestamped protocol event (broadcast, BSHR, cache,
// correspondence, or interconnect activity).
type ObsEvent = obs.Event

// ObsEventKind identifies an event's place in the taxonomy (see
// docs/OBSERVABILITY.md).
type ObsEventKind = obs.EventKind

// ObsSample is one interval metrics snapshot (IPC, bus utilization,
// broadcast rate, BSHR occupancy, L1 miss rate) for one node; enable
// sampling with Config.SampleInterval.
type ObsSample = obs.Sample

// Trace collects events and samples and writes them as a Chrome
// trace-event file loadable in Perfetto (ui.perfetto.dev).
type Trace = obs.Trace

// NewTrace returns an empty trace sink.
func NewTrace() *Trace { return obs.NewTrace() }

// Metrics collects interval samples and writes them as a JSON time
// series alongside a final counter snapshot.
type Metrics = obs.Metrics

// NewMetrics returns a metrics sink expecting samples every
// intervalCycles cycles.
func NewMetrics(intervalCycles uint64) *Metrics { return obs.NewMetrics(intervalCycles) }

// MultiObserver fans events and samples out to several observers (nils
// are dropped; the result is nil when none remain).
func MultiObserver(observers ...Observer) Observer { return obs.Multi(observers...) }

// StallKind is one leaf cause of the cycle-attribution taxonomy: every
// simulated cycle of every node is charged to exactly one kind (see
// docs/OBSERVABILITY.md).
type StallKind = obs.StallKind

// CPIStack is one node's exhaustive cycle attribution; per-node stacks
// appear on Result.CPIStacks and TraditionalResult.CPIStack, and always
// sum exactly to the run's cycle count.
type CPIStack = obs.CPIStack

// StallKindNames returns the taxonomy names in canonical stack order.
func StallKindNames() []string { return obs.StallKindNames() }

// SumCPIStacks adds per-node stacks into one machine-wide stack.
func SumCPIStacks(stacks []CPIStack) CPIStack { return obs.SumStacks(stacks) }

// CPIStackTable renders per-node CPI stacks as an aligned text table
// (the -cpi output of dsrun and dstiming).
func CPIStackTable(title string, stacks []CPIStack, instructions uint64) *ResultTable {
	return sim.CPITable(title, stacks, instructions)
}

// WriteResultJSON serializes any machine or experiment result as
// indented JSON — the machine-readable counterpart of Result.Report().
func WriteResultJSON(w io.Writer, v any) error { return sim.WriteJSON(w, v) }

// ---------------------------------------------------------------------------
// The synchronous ancestor (Massive Memory Machine).

// MMMConfig parameterizes the lock-step ESP machine of paper Figure 1.
type MMMConfig = mmm.Config

// MMMResult is its simulation outcome.
type MMMResult = mmm.Result

// SimulateMMM runs a word reference string through the synchronous ESP
// Massive Memory Machine.
func SimulateMMM(cfg MMMConfig, refs []uint64, owner map[uint64]int) (MMMResult, error) {
	return mmm.Simulate(cfg, refs, owner)
}

// ---------------------------------------------------------------------------
// Experiments: the paper's tables and figures.

// ExperimentOptions bound experiment cost; the zero value selects the
// standard sizes. Every experiment takes a context for cancellation and
// runs its independent simulations on Parallel workers (default
// GOMAXPROCS); results are assembled in job order, so output is
// bit-identical at any worker count.
type ExperimentOptions = sim.Options

// DefaultExperimentOptions returns the standard experiment sizes.
func DefaultExperimentOptions() ExperimentOptions { return sim.DefaultOptions() }

// Experiment results, one per table/figure in the paper's evaluation.
type (
	Table1Result  = sim.Table1Result
	Table2Result  = sim.Table2Result
	Figure7Result = sim.Figure7Result
	Table3Result  = sim.Table3Result
	Figure8Result = sim.Figure8Result
	Figure3Result = sim.Figure3Result
)

// Table1 measures the off-chip traffic ESP eliminates (paper Table 1).
func Table1(ctx context.Context, opts ExperimentOptions) (Table1Result, error) {
	return sim.Table1(ctx, opts)
}

// Table2 measures datathread lengths on a four-node system (paper
// Table 2).
func Table2(ctx context.Context, opts ExperimentOptions) (Table2Result, error) {
	return sim.Table2(ctx, opts)
}

// Figure7 runs the timing comparison: perfect cache vs DataScalar (2 and
// 4 nodes) vs traditional (1/2 and 1/4 on-chip).
func Figure7(ctx context.Context, opts ExperimentOptions) (Figure7Result, error) {
	return sim.Figure7(ctx, opts)
}

// Table3 derives the broadcast statistics from a Figure7 result.
func Table3(f7 Figure7Result) Table3Result { return sim.Table3(f7) }

// Figure8 runs the sensitivity analysis on go and compress.
func Figure8(ctx context.Context, opts ExperimentOptions) (Figure8Result, error) {
	return sim.Figure8(ctx, opts)
}

// Figure8At runs the sensitivity analysis with the larger DS and
// traditional systems at nodes instead of the paper's four.
func Figure8At(ctx context.Context, opts ExperimentOptions, nodes int) (Figure8Result, error) {
	return sim.Figure8At(ctx, opts, nodes)
}

// ResultTable is a rendered, aligned text table.
type ResultTable = stats.Table

// Figure1 reproduces the MMM timeline example (paper Figure 1).
func Figure1() (MMMResult, *ResultTable, error) { return sim.Figure1() }

// Figure3 reproduces the serialized off-chip crossing comparison for a
// dependent operand chain (paper Figure 3).
func Figure3() (Figure3Result, error) { return sim.Figure3() }

// CountCrossings computes Figure 3's analytic crossing counts for an
// arbitrary chain of operand owners.
func CountCrossings(chainOwners []int, cpuChip int) (ds, trad int) {
	return sim.CountCrossings(chainOwners, cpuChip)
}

// ---------------------------------------------------------------------------
// Ablations: design choices the paper discusses (DESIGN.md §6).

// Ablation results, one per study.
type (
	InterconnectResult = sim.InterconnectResult
	WritePolicyResult  = sim.WritePolicyResult
	SyncESPResult      = sim.SyncESPResult
	ResultCommResult   = sim.ResultCommResult
	LatencyResult      = sim.LatencyResult
)

// AblationInterconnect compares the global bus against a unidirectional
// ring (paper Section 4.4 discusses both).
func AblationInterconnect(ctx context.Context, opts ExperimentOptions) (InterconnectResult, error) {
	return sim.AblationInterconnect(ctx, opts)
}

// AblationWritePolicy measures the ESP traffic saved by the paper's
// write-no-allocate choice.
func AblationWritePolicy(ctx context.Context, opts ExperimentOptions) (WritePolicyResult, error) {
	return sim.AblationWritePolicy(ctx, opts)
}

// AblationSyncESP measures what lock-step (Massive Memory Machine) ESP
// would cost on each timing benchmark's miss stream — the gap
// asynchronous datathreading closes.
func AblationSyncESP(ctx context.Context, opts ExperimentOptions) (SyncESPResult, error) {
	return sim.AblationSyncESP(ctx, opts)
}

// AblationResultComm measures the Section 5.1 result-communication
// optimization on a private block-reduction workload.
func AblationResultComm(ctx context.Context, opts ExperimentOptions) (ResultCommResult, error) {
	return sim.AblationResultComm(ctx, opts)
}

// AblationLatencies sweeps the BSHR and broadcast-queue latencies.
func AblationLatencies(ctx context.Context, opts ExperimentOptions) (LatencyResult, error) {
	return sim.AblationLatencies(ctx, opts)
}

// PlacementResult compares round-robin and profile-guided page placement.
type PlacementResult = sim.PlacementResult

// AblationPlacement measures profile-guided page placement (clustering
// pages that miss consecutively onto one node) against round-robin — the
// software form of the paper's "special support to increase datathread
// length".
func AblationPlacement(ctx context.Context, opts ExperimentOptions) (PlacementResult, error) {
	return sim.AblationPlacement(ctx, opts)
}

// TransitionProfile accumulates page-to-page miss transitions for
// profile-guided placement.
type TransitionProfile = mem.TransitionProfile

// NewTransitionProfile returns an empty transition profile.
func NewTransitionProfile() *TransitionProfile { return mem.NewTransitionProfile() }

// CostResult is the Wood-Hill cost-effectiveness analysis (paper §4.4).
type CostResult = sim.CostResult

// CostEffectiveness derives speedup-versus-costup from a Figure 7 run.
func CostEffectiveness(f7 Figure7Result) CostResult { return sim.CostEffectiveness(f7) }

// Costup computes the Wood-Hill costup of an n-node DataScalar system at
// the given processor share of single-system cost.
func Costup(n int, procFrac float64) float64 { return sim.Costup(n, procFrac) }

// ScalingResult is the node-count scaling extension (2..256 nodes
// across all four topologies, with an analytic owner-compute bound).
type ScalingResult = sim.ScalingResult

// Scaling sweeps node counts beyond the paper's evaluation.
func Scaling(ctx context.Context, opts ExperimentOptions) (ScalingResult, error) {
	return sim.Scaling(ctx, opts)
}

// MeasuredTrafficResult is the measured interconnect traffic of the
// timing benchmarks on a concrete machine size and topology.
type MeasuredTrafficResult = sim.MeasuredTrafficResult

// MeasuredTraffic runs the timing set on a DS machine of the given size
// and topology and reports the traffic the interconnect carried — the
// machine-measured counterpart of Table 1's analytic accounting.
func MeasuredTraffic(ctx context.Context, opts ExperimentOptions, nodes int, topo TopologyKind) (MeasuredTrafficResult, error) {
	return sim.MeasuredTraffic(ctx, opts, nodes, topo)
}

// ReplicationResult sweeps the static replication fraction (paper §3).
type ReplicationResult = sim.ReplicationResult

// AblationReplication measures the broadcast traffic eliminated (and
// capacity paid) as the hottest data pages are statically replicated.
func AblationReplication(ctx context.Context, opts ExperimentOptions) (ReplicationResult, error) {
	return sim.AblationReplication(ctx, opts)
}

// CPIProfileResult is the dsprof artifact: per-(benchmark, system) CPI
// stacks across the five Figure 7 systems.
type CPIProfileResult = sim.CPIProfileResult

// CPIDiffOptions bound what `dsprof -diff` counts as a regression.
type CPIDiffOptions = sim.CPIDiffOptions

// CPIDiffResult is the outcome of comparing two CPI profiles.
type CPIDiffResult = sim.CPIDiffResult

// CPIProfile measures CPI stacks for the named workloads (empty = the
// six timing benchmarks) across the five Figure 7 systems.
func CPIProfile(ctx context.Context, opts ExperimentOptions, workloads []string) (CPIProfileResult, error) {
	return sim.CPIProfile(ctx, opts, workloads)
}

// CompareCPIProfiles diffs two CPI-profile artifacts bucket by bucket;
// the simulator is deterministic, so any difference is a real
// behavioral change.
func CompareCPIProfiles(old, cur CPIProfileResult, o CPIDiffOptions) (CPIDiffResult, error) {
	return sim.CompareCPIProfiles(old, cur, o)
}

// Topology selects and parameterizes the interconnect; set it on
// Config.Topology or TraditionalConfig.Topology.
type Topology = bus.Topology

// TopologyKind enumerates the interconnect families.
type TopologyKind = bus.TopologyKind

// The four interconnects a machine can be built on.
const (
	TopoBus   = bus.TopoBus
	TopoRing  = bus.TopoRing
	TopoMesh  = bus.TopoMesh
	TopoTorus = bus.TopoTorus
)

// DefaultTopology returns the paper's shared-bus interconnect with
// default link parameters for the multi-hop alternatives.
func DefaultTopology() Topology { return bus.DefaultTopology() }

// ParseTopologyKind parses a -topology flag value ("bus", "ring",
// "mesh", "torus").
func ParseTopologyKind(s string) (TopologyKind, error) { return bus.ParseTopologyKind(s) }

// LinkConfig parameterizes the per-link datapath of the multi-hop
// topologies (ring, mesh, torus); set it on Config.Topology.Link.
// DefaultTopology().Link holds links matching the default bus.
type LinkConfig = bus.LinkConfig

// ---------------------------------------------------------------------------
// Resilience: deterministic fault injection, divergence detection, and
// degraded-mode recovery (docs/ROBUSTNESS.md).

// FaultConfig is the seeded fault plan for a DataScalar machine; set it
// on Config.Fault (or ExperimentOptions.Fault for whole sweeps). The
// zero value builds no fault layer at all — results are byte-identical
// to a machine without the resilience subsystem.
type FaultConfig = fault.Config

// FaultStats counts injections, detections, retries, and recovery
// actions; completed runs carry a snapshot in Result.Fault.
type FaultStats = fault.Stats

// FaultReport is the structured error a machine halts with when it
// detects an unrecoverable fault (a dead owner without recovery enabled,
// or a commit-fingerprint divergence): which node, which fault class, at
// which cycle.
type FaultReport = fault.Report

// FaultClass labels a fault or detection event.
type FaultClass = fault.Class

// The fault classes a plan can inject and a report can name.
const (
	FaultDrop       = fault.ClassDrop
	FaultDelay      = fault.ClassDelay
	FaultFlip       = fault.ClassFlip
	FaultDeath      = fault.ClassDeath
	FaultDivergence = fault.ClassDivergence
	FaultLost       = fault.ClassLost
)

// DeadlockError is the structured watchdog diagnosis: per-node commit
// progress, pending BSHR tags, and interconnect queue depths at the
// moment progress stopped.
type DeadlockError = core.DeadlockError

// FaultScenario is one fault class at one intensity in a campaign grid.
type FaultScenario = sim.FaultScenario

// FaultCampaignConfig bounds a fault-injection campaign.
type FaultCampaignConfig = sim.FaultCampaignConfig

// FaultCampaignResult aggregates a campaign: every run's classified
// outcome plus per-scenario coverage, detection latency, and overhead.
type FaultCampaignResult = sim.FaultCampaignResult

// DefaultFaultScenarios returns the standard campaign grid.
func DefaultFaultScenarios() []FaultScenario { return sim.DefaultFaultScenarios() }

// FaultCampaign sweeps (workload x fault scenario x seed), classifying
// every outcome; campaigns are bit-reproducible at any Parallel setting.
func FaultCampaign(ctx context.Context, opts ExperimentOptions, cc FaultCampaignConfig) (FaultCampaignResult, error) {
	return sim.FaultCampaign(ctx, opts, cc)
}
