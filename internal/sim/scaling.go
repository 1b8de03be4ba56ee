package sim

import (
	"context"
	"fmt"

	"github.com/wisc-arch/datascalar/internal/bus"
	"github.com/wisc-arch/datascalar/internal/stats"
	"github.com/wisc-arch/datascalar/internal/trace"
	"github.com/wisc-arch/datascalar/internal/workload"
)

// Node-count scaling beyond the paper's evaluation. The paper measures
// two and four nodes and argues DataScalar "deals with a finer-grain
// distribution of memory better" than request/response systems; this
// experiment extends the sweep to 256 nodes across all four interconnect
// topologies. The single shared bus saturates under the broadcast stream
// as N grows; the ring's per-link concurrency defers that; the 2D mesh
// and torus shrink the broadcast diameter to O(sqrt(N)) — the regime the
// paper's Section 4.4 interconnect discussion anticipates. An analytic
// owner-compute point (compute migrates to the data, Dalorex-style,
// instead of data broadcasting to the compute) bounds what abandoning
// redundant execution altogether would buy at each size.

// scalingNodeCounts is the sweep: the paper's sizes, then the sparse
// large-N regime the topology layer exists for.
var scalingNodeCounts = []int{2, 4, 8, 32, 128, 256}

// scalingTopologies are the DS interconnects compared at every point, in
// column order.
var scalingTopologies = []bus.TopologyKind{bus.TopoBus, bus.TopoRing, bus.TopoMesh, bus.TopoTorus}

// scalingInstr scales the measured instruction budget down with the node
// count so a 256-node point costs roughly what an 8-node point does
// (simulation work grows with N x instructions). Points at or below
// eight nodes keep the full budget and stay comparable to the paper's
// tables.
func scalingInstr(timingInstr uint64, nodes int) uint64 {
	if nodes <= 8 {
		return timingInstr
	}
	budget := timingInstr * 8 / uint64(nodes)
	if budget < 1024 {
		budget = 1024
	}
	return budget
}

// ScalingPoint is one node count's IPC samples across systems.
type ScalingPoint struct {
	Nodes   int
	DSBus   float64
	DSRing  float64
	DSMesh  float64
	DSTorus float64
	Trad    float64
	// OwnerCompute is the analytic Dalorex-style owner-compute IPC: the
	// program runs once (no redundant execution), computation migrates
	// over the mesh to each operand's owner, and every ownership
	// transition in the miss stream pays a task-descriptor hop chain.
	// It is a model, not a simulation — the precedent is CountCrossings.
	OwnerCompute float64
	BusUtil      float64 // DS bus busy fraction
	MeshUtil     float64 // DS mesh aggregate link busy fraction
}

// ScalingRow is one benchmark's sweep.
type ScalingRow struct {
	Benchmark string
	Points    []ScalingPoint
}

// ScalingResult holds the experiment.
type ScalingResult struct {
	Rows []ScalingRow
}

// Table renders the sweep.
func (r ScalingResult) Table() *stats.Table {
	t := stats.NewTable(
		"Extension: node-count scaling (IPC; DS on four topologies vs traditional and analytic owner-compute)",
		"benchmark", "nodes", "DS bus", "DS ring", "DS mesh", "DS torus", "trad 1/n", "owner-compute", "bus util")
	for _, row := range r.Rows {
		for _, p := range row.Points {
			t.AddRowf(row.Benchmark, p.Nodes, p.DSBus, p.DSRing, p.DSMesh, p.DSTorus,
				p.Trad, p.OwnerCompute, stats.FormatPercent(p.BusUtil*100))
		}
	}
	return t
}

// ownerComputeIPC prices the owner-compute alternative for one
// (benchmark, node count) pair: replay the miss-filtered reference
// stream over the N-node partition, count ownership transitions, and
// charge each one a 16-byte task-descriptor migration over the mesh at
// the default link clocking, on top of the perfect-cache compute floor.
func ownerComputeIPC(pr prepared, refInstr uint64, nodes int, perfectIPC float64) (float64, error) {
	pt, err := defaultPartition(pr.p, nodes)
	if err != nil {
		return 0, err
	}
	filter := trace.DefaultMissFilter()
	var instrs, transitions uint64
	last := -1
	err = trace.ForEachRefFrom(pr.p, pr.ff, refInstr, true, func(ref trace.Ref) error {
		miss := filter.Observe(ref)
		if ref.Instr {
			instrs++
			return nil
		}
		if !miss {
			return nil
		}
		if o := pt.OwnerOf(ref.Addr &^ 31); o >= 0 && o != last {
			if last >= 0 {
				transitions++
			}
			last = o
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if instrs == 0 || perfectIPC <= 0 {
		return 0, fmt.Errorf("sim: owner-compute model needs a non-empty trace and perfect IPC")
	}
	// Expected dimension-order hop count between uniformly placed owners
	// on the W x H mesh: E|dx| + E|dy| for independent uniform
	// coordinates.
	w, h := bus.NewMesh(bus.DefaultConfig(), nodes).Dims()
	avgHops := float64(w*w-1)/(3*float64(w)) + float64(h*h-1)/(3*float64(h))
	// Per-hop cost of a 16-byte task descriptor at the default link.
	link := bus.DefaultConfig()
	hopCost := float64(link.TransferCycles(16) + link.HopCycles)
	cycles := float64(instrs)/perfectIPC + float64(transitions)*avgHops*hopCost
	return float64(instrs) / cycles, nil
}

// Scaling sweeps node counts 2..256 over two contrasting benchmarks:
// compress (write-heavy, DataScalar's best case) and mgrid (bandwidth-
// hungry stencil). Each point runs the DS machine on all four
// topologies plus the traditional baseline, and adds the analytic
// owner-compute bound.
func Scaling(ctx context.Context, opts Options) (ScalingResult, error) {
	opts = opts.withDefaults()
	var out ScalingResult
	names := []string{"compress", "mgrid"}
	perJob := len(scalingTopologies) + 1 // four DS runs + traditional
	var jobs []Job
	for _, name := range names {
		w, ok := workload.ByName(name)
		if !ok {
			return out, fmt.Errorf("sim: missing workload %s", name)
		}
		// One perfect-cache run per benchmark anchors the owner-compute
		// model's compute floor.
		jobs = append(jobs, Job{Workload: w, Scale: opts.Scale, Kind: KindPerfect, MaxInstr: opts.TimingInstr})
		for _, nodes := range scalingNodeCounts {
			instr := scalingInstr(opts.TimingInstr, nodes)
			for _, topo := range scalingTopologies {
				jobs = append(jobs, Job{Workload: w, Scale: opts.Scale, Kind: KindDS,
					Nodes: nodes, MaxInstr: instr, Topology: topo})
			}
			jobs = append(jobs, Job{Workload: w, Scale: opts.Scale, Kind: KindTraditional,
				Nodes: nodes, MaxInstr: instr})
		}
	}
	res, err := runJobs(ctx, opts, jobs)
	if err != nil {
		return out, err
	}
	perBench := 1 + len(scalingNodeCounts)*perJob
	// The owner-compute replays are pure trace analyses; run them on the
	// same worker pool, one per (benchmark, node count).
	ownerIPC, err := runIndexed(ctx, opts.Parallel, len(names)*len(scalingNodeCounts), func(i int) (float64, error) {
		name := names[i/len(scalingNodeCounts)]
		nodes := scalingNodeCounts[i%len(scalingNodeCounts)]
		w, _ := workload.ByName(name)
		pr, err := prepare(w, opts.Scale)
		if err != nil {
			return 0, err
		}
		perfect := res[(i/len(scalingNodeCounts))*perBench].Trad.IPC
		return ownerComputeIPC(pr, opts.RefInstr, nodes, perfect)
	})
	if err != nil {
		return out, err
	}
	for bi, name := range names {
		row := ScalingRow{Benchmark: name}
		base := bi*perBench + 1
		for ni, nodes := range scalingNodeCounts {
			i := base + ni*perJob
			busRun, ringRun := res[i].DS, res[i+1].DS
			meshRun, torusRun := res[i+2].DS, res[i+3].DS
			trad := res[i+4].Trad
			pt := ScalingPoint{
				Nodes:        nodes,
				DSBus:        busRun.IPC,
				DSRing:       ringRun.IPC,
				DSMesh:       meshRun.IPC,
				DSTorus:      torusRun.IPC,
				Trad:         trad.IPC,
				OwnerCompute: ownerIPC[bi*len(scalingNodeCounts)+ni],
			}
			if busRun.Cycles > 0 {
				pt.BusUtil = float64(busRun.BusStats.BusyCycles.Value()) / float64(busRun.Cycles)
			}
			if meshRun.Cycles > 0 {
				// Aggregate link-busy over the mesh's 4N directed links.
				pt.MeshUtil = float64(meshRun.BusStats.BusyCycles.Value()) /
					(float64(meshRun.Cycles) * float64(4*nodes))
			}
			row.Points = append(row.Points, pt)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}
