package sim

import (
	"context"
	"fmt"

	"github.com/wisc-arch/datascalar/internal/core"
	"github.com/wisc-arch/datascalar/internal/stats"
	"github.com/wisc-arch/datascalar/internal/workload"
)

// Figure7Row is one benchmark's IPC across the five systems the paper
// compares: a perfect data cache, DataScalar at two and four nodes, and
// traditional machines with one half and one quarter of memory on-chip.
type Figure7Row struct {
	Benchmark  string
	PerfectIPC float64
	DS2IPC     float64
	DS4IPC     float64
	Trad2IPC   float64 // 1/2 memory on-chip
	Trad4IPC   float64 // 1/4 memory on-chip
	DS2Detail  core.Result
	DS4Detail  core.Result
	Instr      uint64
}

// Figure7Result holds the timing comparison.
type Figure7Result struct {
	Rows []Figure7Row
}

// Table renders IPCs in the layout of the paper's Figure 7 bar chart.
func (r Figure7Result) Table() *stats.Table {
	t := stats.NewTable(
		"Figure 7: Timing simulation DataScalar results (IPC)",
		"benchmark", "perfect", "DS 2-node", "DS 4-node", "trad 1/2", "trad 1/4")
	for _, row := range r.Rows {
		t.AddRowf(row.Benchmark, row.PerfectIPC, row.DS2IPC, row.DS4IPC,
			row.Trad2IPC, row.Trad4IPC)
	}
	return t
}

// figure7System is one machine of the paper's five-system comparison.
type figure7System struct {
	label string
	kind  MachineKind
	nodes int
}

// figure7Systems lists the systems Figure 7 compares, in its column
// order, with the larger DataScalar/traditional pair at n nodes (the
// paper's n is 4): the perfect-cache bound, DataScalar at two and n
// nodes, and traditional machines with one half and 1/n of memory
// on-chip. Figure 8 and the CPI profile measure the same set.
func figure7Systems(n int) []figure7System {
	return []figure7System{
		{"perfect", KindPerfect, 0},
		{"DS2", KindDS, 2},
		{fmt.Sprintf("DS%d", n), KindDS, n},
		{"trad2", KindTraditional, 2},
		{fmt.Sprintf("trad%d", n), KindTraditional, n},
	}
}

// onSystems stamps each system's machine kind and size onto a copy of
// base, one job per system.
func onSystems(base Job, systems []figure7System) []Job {
	jobs := make([]Job, len(systems))
	for i, s := range systems {
		jobs[i] = base
		jobs[i].Kind, jobs[i].Nodes = s.kind, s.nodes
	}
	return jobs
}

// Figure7 reproduces the paper's timing comparison over the six timing
// benchmarks (applu, compress, go, mgrid, turb3d, wave5): identical
// processors, with the DataScalar runs distributing all data pages
// round-robin (no static data replication, text replicated, as in the
// paper) and the traditional runs holding the matching fraction of
// memory on-chip.
func Figure7(ctx context.Context, opts Options) (Figure7Result, error) {
	opts = opts.withDefaults()
	ws := workload.TimingSet()
	rows, err := sweep(ctx, opts, len(ws), func(i int) []Job {
		return onSystems(Job{Workload: ws[i], MaxInstr: opts.TimingInstr}, figure7Systems(4))
	}, func(i int, res []JobResult) Figure7Row {
		perfect, ds2, ds4, t2, t4 := res[0], res[1], res[2], res[3], res[4]
		return Figure7Row{
			Benchmark:  ws[i].Name,
			PerfectIPC: perfect.IPC(),
			Instr:      perfect.Trad.Instructions,
			DS2IPC:     ds2.IPC(),
			DS2Detail:  ds2.DS,
			DS4IPC:     ds4.IPC(),
			DS4Detail:  ds4.DS,
			Trad2IPC:   t2.IPC(),
			Trad4IPC:   t4.IPC(),
		}
	})
	return Figure7Result{Rows: rows}, err
}

// Table3Row is one benchmark's broadcast statistics (paper Table 3),
// derived from the DataScalar timing runs: the arithmetic mean over all
// nodes of the late-broadcast fraction, the BSHR squash fraction, and the
// fraction of remote accesses that found their data already waiting in
// the BSHR (datathreading evidence).
type Table3Row struct {
	Benchmark string
	// Late2/Late4: late (commit-time) broadcasts as a fraction of all
	// broadcasts, at 2 and 4 nodes.
	Late2, Late4 float64
	// Squash2/Squash4: squashed arrivals as a fraction of BSHR accesses.
	Squash2, Squash4 float64
	// Found2/Found4: remote accesses whose data was waiting in the BSHR.
	Found2, Found4 float64
}

// Table3Result holds the broadcast statistics.
type Table3Result struct {
	Rows []Table3Row
}

// Table renders the statistics in the paper's Table 3 layout.
func (r Table3Result) Table() *stats.Table {
	t := stats.NewTable(
		"Table 3: DataScalar broadcast statistics (mean over nodes; 2 / 4 nodes)",
		"benchmark", "late bcast (2)", "late bcast (4)",
		"BSHR squash (2)", "BSHR squash (4)", "in BSHR (2)", "in BSHR (4)")
	for _, row := range r.Rows {
		t.AddRow(row.Benchmark,
			stats.FormatPercent1(row.Late2*100), stats.FormatPercent1(row.Late4*100),
			stats.FormatPercent1(row.Squash2*100), stats.FormatPercent1(row.Squash4*100),
			stats.FormatPercent1(row.Found2*100), stats.FormatPercent1(row.Found4*100))
	}
	return t
}

// Table3 derives the paper's Table 3 from a Figure 7 result.
func Table3(f7 Figure7Result) Table3Result {
	var out Table3Result
	for _, row := range f7.Rows {
		out.Rows = append(out.Rows, Table3Row{
			Benchmark: row.Benchmark,
			Late2:     lateFraction(row.DS2Detail),
			Late4:     lateFraction(row.DS4Detail),
			Squash2:   squashFraction(row.DS2Detail),
			Squash4:   squashFraction(row.DS4Detail),
			Found2:    foundFraction(row.DS2Detail),
			Found4:    foundFraction(row.DS4Detail),
		})
	}
	return out
}

func lateFraction(r core.Result) float64 {
	var late, total uint64
	for _, n := range r.Nodes {
		late += n.LateBroadcasts.Value()
		total += n.Broadcasts.Value()
	}
	return stats.Ratio{Part: late, Whole: total}.Value()
}

func squashFraction(r core.Result) float64 {
	var squash, accesses uint64
	for _, b := range r.BSHR {
		squash += b.Squashes.Value()
		accesses += b.Accesses()
	}
	return stats.Ratio{Part: squash, Whole: accesses}.Value()
}

func foundFraction(r core.Result) float64 {
	var found, remote uint64
	for i := range r.BSHR {
		found += r.BSHR[i].BufferedHits.Value()
		remote += r.Nodes[i].RemoteMisses.Value()
	}
	return stats.Ratio{Part: found, Whole: remote}.Value()
}
