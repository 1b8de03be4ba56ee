package sim

import (
	"context"

	"github.com/wisc-arch/datascalar/internal/stats"
	"github.com/wisc-arch/datascalar/internal/trace"
	"github.com/wisc-arch/datascalar/internal/workload"
)

// Table1Row is one benchmark's ESP traffic reduction (paper Table 1).
type Table1Row struct {
	Benchmark string
	// TrafficEliminated is the fraction of off-chip bytes ESP removes.
	TrafficEliminated float64
	// TransactionsEliminated is the fraction of off-chip transactions
	// removed (>= 0.5 whenever writebacks exist, since every request
	// disappears).
	TransactionsEliminated float64
	Detail                 trace.TrafficResult
}

// Table1Result holds the whole experiment.
type Table1Result struct {
	Rows []Table1Row
}

// Table renders the result in the paper's layout.
func (r Table1Result) Table() *stats.Table {
	t := stats.NewTable(
		"Table 1: Off-chip data traffic reduced by ESP",
		"quantity", "tomcatv", "swim", "hydro2d", "mgrid", "applu", "m88ksim",
		"turb3d", "gcc", "compress", "li", "perl", "fpppp", "wave5", "vortex")
	traffic := []string{"Traffic"}
	txns := []string{"Transactions"}
	for _, row := range r.Rows {
		traffic = append(traffic, stats.FormatPercent(row.TrafficEliminated*100))
		txns = append(txns, stats.FormatPercent(row.TransactionsEliminated*100))
	}
	t.AddRow(traffic...)
	t.AddRow(txns...)
	return t
}

// Table1 reproduces the paper's Table 1: each SPEC95-analogue's data
// reference stream is filtered through the paper's 16 KB two-way
// write-back write-allocate L1, and the surviving miss traffic is
// accounted under a conventional request/response system versus ESP.
func Table1(ctx context.Context, opts Options) (Table1Result, error) {
	opts = opts.withDefaults()
	ws := workload.Table1Order()
	rows, err := runIndexed(ctx, opts.Parallel, len(ws), func(i int) (Table1Row, error) {
		pr, err := prepare(ws[i], opts.Scale)
		if err != nil {
			return Table1Row{}, err
		}
		// Measure from the kernel's steady state (bench_main), as the
		// timing runs do; initialization is setup the SPEC originals did
		// through file I/O.
		a := trace.NewTrafficAnalyzer(trace.DefaultTrafficConfig())
		err = trace.ForEachRefFrom(pr.p, pr.ff, opts.RefInstr, false, func(ref trace.Ref) error {
			return a.Observe(ref)
		})
		if err != nil {
			return Table1Row{}, err
		}
		res := a.Finish()
		return Table1Row{
			Benchmark:              pr.w.Name,
			TrafficEliminated:      res.TrafficEliminated(),
			TransactionsEliminated: res.TransactionsEliminated(),
			Detail:                 res,
		}, nil
	})
	return Table1Result{Rows: rows}, err
}
