package sim

import (
	"context"
	"fmt"

	"github.com/wisc-arch/datascalar/internal/obs"
	"github.com/wisc-arch/datascalar/internal/stats"
	"github.com/wisc-arch/datascalar/internal/workload"
)

// This file is the CPI-profile harness behind cmd/dsprof: it runs a set
// of workloads across the paper's five systems and collects each run's
// exhaustive cycle-attribution stacks (see internal/obs and
// docs/OBSERVABILITY.md). Because every simulation is deterministic, the
// resulting artifact is bit-reproducible across machines and worker
// counts, which is what lets CompareCPIProfiles (profdiff.go) serve as
// an exact cross-run regression gate in CI.

// CPIProfileRow is one (benchmark, system) measurement: total cycles,
// committed instructions, and the per-node cycle-attribution stacks
// (single-entry for the one-core systems). Every stack sums exactly to
// Cycles — the exhaustiveness invariant.
type CPIProfileRow struct {
	Benchmark    string
	System       string
	Nodes        int
	Cycles       uint64
	Instructions uint64
	Stacks       []obs.CPIStack
}

// Machine returns the machine-wide stack (per-node stacks summed).
func (r CPIProfileRow) Machine() obs.CPIStack { return obs.SumStacks(r.Stacks) }

// CPI returns the row's cycles per committed instruction.
func (r CPIProfileRow) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Instructions)
}

// CPIProfileResult is the dsprof artifact: the generation parameters
// (so a comparator can refuse to diff incomparable artifacts) plus one
// row per (benchmark, system).
type CPIProfileResult struct {
	Instr uint64
	Scale int
	Rows  []CPIProfileRow
}

// CPIProfile measures CPI stacks for the named workloads (empty = the
// six timing benchmarks) across the five Figure 7 systems.
func CPIProfile(ctx context.Context, opts Options, names []string) (CPIProfileResult, error) {
	opts = opts.withDefaults()
	out := CPIProfileResult{Instr: opts.TimingInstr, Scale: opts.Scale}
	ws, err := resolveWorkloads(names)
	if err != nil {
		return out, err
	}
	// One sweep point, and one row, per (benchmark, system).
	systems := figure7Systems(4)
	out.Rows, err = sweep(ctx, opts, len(ws)*len(systems), func(i int) []Job {
		s := systems[i%len(systems)]
		return []Job{{Workload: ws[i/len(systems)], Kind: s.kind, Nodes: s.nodes, MaxInstr: opts.TimingInstr}}
	}, func(i int, res []JobResult) CPIProfileRow {
		s, r := systems[i%len(systems)], res[0]
		row := CPIProfileRow{Benchmark: ws[i/len(systems)].Name, System: s.label, Nodes: s.nodes}
		if s.kind == KindDS {
			row.Cycles = r.DS.Cycles
			row.Instructions = r.DS.Instructions
			row.Stacks = r.DS.CPIStacks
		} else {
			row.Nodes = 1
			row.Cycles = r.Trad.Cycles
			row.Instructions = r.Trad.Instructions
			row.Stacks = []obs.CPIStack{r.Trad.CPIStack}
		}
		return row
	})
	return out, err
}

// resolveWorkloads maps registry names to workloads; an empty list means
// the paper's timing set.
func resolveWorkloads(names []string) ([]workload.Workload, error) {
	if len(names) == 0 {
		return workload.TimingSet(), nil
	}
	ws := make([]workload.Workload, 0, len(names))
	for _, n := range names {
		w, ok := workload.ByName(n)
		if !ok {
			return nil, fmt.Errorf("sim: unknown workload %q", n)
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// Tables renders one table per benchmark: stall buckets down the rows,
// systems across the columns (with one column per node for the
// DataScalar machines, then the machine-wide aggregate), and absolute
// cycles and CPI in the trailing rows.
func (r CPIProfileResult) Tables() []*stats.Table {
	var order []string
	byBench := map[string][]CPIProfileRow{}
	for _, row := range r.Rows {
		if _, ok := byBench[row.Benchmark]; !ok {
			order = append(order, row.Benchmark)
		}
		byBench[row.Benchmark] = append(byBench[row.Benchmark], row)
	}
	tables := make([]*stats.Table, 0, len(order))
	for _, bench := range order {
		rows := byBench[bench]
		header := []string{"bucket"}
		for _, row := range rows {
			if len(row.Stacks) > 1 {
				for n := range row.Stacks {
					header = append(header, fmt.Sprintf("%s:n%d", row.System, n))
				}
			}
			header = append(header, row.System)
		}
		t := stats.NewTable(
			fmt.Sprintf("CPI stack: %s (%d instr; %% of cycles)", bench, r.Instr),
			header...)
		for k := obs.StallKind(0); k < obs.NumStallKinds; k++ {
			cells := []string{k.String()}
			for _, row := range rows {
				m := row.Machine()
				if len(row.Stacks) > 1 {
					for _, st := range row.Stacks {
						cells = append(cells, stats.FormatPercent1(st.Share(k)*100))
					}
				}
				cells = append(cells, stats.FormatPercent1(m.Share(k)*100))
			}
			t.AddRow(cells...)
		}
		cyc := []string{"cycles"}
		cpi := []string{"CPI"}
		for _, row := range rows {
			cols := 1
			if len(row.Stacks) > 1 {
				cols += len(row.Stacks)
			}
			for c := 0; c < cols; c++ {
				cyc = append(cyc, fmt.Sprintf("%d", row.Cycles))
				cpi = append(cpi, stats.FormatFloat(row.CPI()))
			}
		}
		t.AddRow(cyc...)
		t.AddRow(cpi...)
		tables = append(tables, t)
	}
	return tables
}

// CPITable renders a single machine's CPI stack: stall buckets down the
// rows, one share column per node, the machine-wide share, and the
// bucket's contribution to CPI (mean node cycles per committed
// instruction). It backs the -cpi flag of dsrun and dstiming.
func CPITable(title string, stacks []obs.CPIStack, instructions uint64) *stats.Table {
	header := []string{"bucket"}
	for n := range stacks {
		header = append(header, fmt.Sprintf("node%d", n))
	}
	header = append(header, "machine", "CPI")
	t := stats.NewTable(title, header...)
	machine := obs.SumStacks(stacks)
	nodes := uint64(len(stacks))
	for k := obs.StallKind(0); k < obs.NumStallKinds; k++ {
		cells := []string{k.String()}
		for _, st := range stacks {
			cells = append(cells, stats.FormatPercent1(st.Share(k)*100))
		}
		cpi := 0.0
		if instructions > 0 && nodes > 0 {
			cpi = float64(machine[k]) / float64(nodes) / float64(instructions)
		}
		cells = append(cells, stats.FormatPercent1(machine.Share(k)*100), stats.FormatFloat(cpi))
		t.AddRow(cells...)
	}
	total := []string{"total"}
	for _, st := range stacks {
		total = append(total, fmt.Sprintf("%d", st.Total()))
	}
	cpi := 0.0
	if instructions > 0 && nodes > 0 {
		cpi = float64(machine.Total()) / float64(nodes) / float64(instructions)
	}
	total = append(total, fmt.Sprintf("%d", machine.Total()), stats.FormatFloat(cpi))
	t.AddRow(total...)
	return t
}
