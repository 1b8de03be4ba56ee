package sim

import (
	"context"
	"fmt"

	"github.com/wisc-arch/datascalar/internal/bus"
	"github.com/wisc-arch/datascalar/internal/stats"
	"github.com/wisc-arch/datascalar/internal/workload"
)

// Measured interconnect traffic at a chosen machine size and topology:
// the timing-set counterpart of Table 1's analytic traffic accounting.
// Table 1 prices the reference stream under idealized ESP; this harness
// runs the actual machine and reports what the chosen interconnect
// carried — the numbers dstraffic prints when -nodes/-topology ask for
// a concrete machine rather than the model.

// MeasuredTrafficRow is one benchmark's measured interconnect traffic.
type MeasuredTrafficRow struct {
	Benchmark  string
	Broadcasts uint64
	Messages   uint64
	Bytes      uint64
	// LinkUtil is aggregate busy cycles over all of the topology's
	// transfer resources (Topology.Links) for the run's duration.
	LinkUtil float64
	IPC      float64
}

// MeasuredTrafficResult holds the sweep.
type MeasuredTrafficResult struct {
	Nodes    int
	Topology string
	Rows     []MeasuredTrafficRow
}

// Table renders the measurement.
func (r MeasuredTrafficResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Measured interconnect traffic: DS %d nodes on %s", r.Nodes, r.Topology),
		"benchmark", "broadcasts", "messages", "bytes", "link util", "IPC")
	for _, row := range r.Rows {
		t.AddRowf(row.Benchmark, row.Broadcasts, row.Messages, row.Bytes,
			stats.FormatPercent(row.LinkUtil*100), row.IPC)
	}
	return t
}

// MeasuredTraffic runs each timing benchmark on a DS machine of the
// given size and topology and reports the interconnect traffic it
// actually carried. The instruction budget scales down with node count
// exactly as the Scaling harness's points do.
func MeasuredTraffic(ctx context.Context, opts Options, nodes int, topo bus.TopologyKind) (MeasuredTrafficResult, error) {
	opts = opts.withDefaults()
	ws := workload.TimingSet()
	rows, err := sweep(ctx, opts, len(ws), func(i int) []Job {
		return []Job{{Workload: ws[i], Kind: KindDS, Nodes: nodes,
			MaxInstr: scalingInstr(opts.TimingInstr, nodes), Topology: topo}}
	}, func(i int, res []JobResult) MeasuredTrafficRow {
		r := res[0].DS
		row := MeasuredTrafficRow{
			Benchmark:  ws[i].Name,
			Broadcasts: r.BusStats.ByKindMsgs[bus.Broadcast].Value(),
			Messages:   r.BusStats.Messages.Value(),
			Bytes:      r.BusStats.Bytes.Value(),
			IPC:        r.IPC,
		}
		if r.Cycles > 0 {
			row.LinkUtil = float64(r.BusStats.BusyCycles.Value()) /
				(float64(r.Cycles) * float64(topo.Links(nodes)))
		}
		return row
	})
	return MeasuredTrafficResult{Nodes: nodes, Topology: topo.String(), Rows: rows}, err
}
