package sim

import (
	"context"
	"fmt"

	"github.com/wisc-arch/datascalar/internal/mem"
	"github.com/wisc-arch/datascalar/internal/prog"
	"github.com/wisc-arch/datascalar/internal/stats"
	"github.com/wisc-arch/datascalar/internal/trace"
	"github.com/wisc-arch/datascalar/internal/workload"
)

// Table2Row is one benchmark's datathread measurement (paper Table 2).
type Table2Row struct {
	Benchmark string
	// DistKB is the round-robin distribution block size in kilobytes.
	DistKB int
	// Replicated page counts per segment, as in the paper's columns.
	ReplText, ReplGlobal, ReplHeap, ReplStack, ReplTotal int
	// Datathread length approximations (arithmetic means).
	AllMean, TextMean, DataMean, ReplMean float64
	// Threads is the number of completed datathreads over all misses
	// (0 when every miss lands on replicated or single-node memory).
	Threads uint64
}

// Table2Result holds the whole experiment.
type Table2Result struct {
	Nodes int
	Rows  []Table2Row
}

// Table renders the result in the paper's layout.
func (r Table2Result) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Table 2: Approximate datathread measurements for a %d-processor system", r.Nodes),
		"benchmark", "dist(KB)", "text", "global", "heap", "stack", "total",
		"all", "text-refs", "data-refs", "repl")
	for _, row := range r.Rows {
		t.AddRowf(row.Benchmark, row.DistKB,
			row.ReplText, row.ReplGlobal, row.ReplHeap, row.ReplStack, row.ReplTotal,
			stats.Round1(row.AllMean), stats.Round1(row.TextMean),
			stats.Round1(row.DataMean), stats.Round1(row.ReplMean))
	}
	return t
}

// Table2 reproduces the paper's Table 2 methodology for a four-processor
// system: profile page heat over a run, replicate the most heavily
// accessed pages (capped so no segment is wholly replicated), distribute
// the communicated pages round-robin in the largest blocks that keep both
// the text and the largest data segment spread over multiple processors,
// then measure mean datathread lengths over the cache-filtered miss
// stream.
func Table2(ctx context.Context, opts Options) (Table2Result, error) {
	opts = opts.withDefaults()
	const nodes = 4
	ws := workload.Table1Order()
	rows, err := runIndexed(ctx, opts.Parallel, len(ws), func(i int) (Table2Row, error) {
		pr, err := prepare(ws[i], opts.Scale)
		if err != nil {
			return Table2Row{}, err
		}
		row, err := table2One(pr, nodes, opts.RefInstr)
		if err != nil {
			return Table2Row{}, fmt.Errorf("sim: table2 %s: %w", ws[i].Name, err)
		}
		return row, nil
	})
	return Table2Result{Nodes: nodes, Rows: rows}, err
}

func table2One(pr prepared, nodes int, refInstr uint64) (Table2Row, error) {
	// Pass 1: page-heat profile over all steady-state references.
	profiler := mem.NewProfiler()
	if err := trace.ProfilePagesFrom(pr.p, pr.ff, refInstr, profiler.Observe); err != nil {
		return Table2Row{}, err
	}

	// Segment page counts determine the replication caps and the
	// distribution block size.
	segPages := pr.p.SegmentPages()
	largestData := 0
	for _, seg := range []prog.Segment{prog.SegGlobal, prog.SegHeap, prog.SegStack} {
		if n := len(segPages[seg]); n > largestData {
			largestData = n
		}
	}

	// Replicate up to a quarter of all pages, hottest first, but never
	// more than half of any segment (the paper prevents any segment from
	// being completely contained at one processor).
	totalPages := len(pr.p.Pages())
	budget := totalPages / 4
	if budget < 1 {
		budget = 1
	}
	caps := make(map[prog.Segment]int)
	for seg, pages := range segPages {
		c := len(pages) / 2
		if c < 1 {
			c = 1
		}
		caps[seg] = c
	}
	replicated := profiler.SelectReplicated(budget, caps)

	// Distribution block size: as large as possible while the largest
	// data segment still spreads over every node (the paper maximizes
	// the block size while keeping it below 1/2 of the text and of the
	// largest data segment; our kernels' text is a single page — SPEC95
	// binaries had hundreds — so only the data constraint binds).
	blockPages := largestData / (2 * nodes)
	if blockPages < 1 {
		blockPages = 1
	}

	pt, err := mem.Partition{
		NumNodes:        nodes,
		BlockPages:      blockPages,
		ReplicateText:   false, // Table 2 replicates by heat, not blanket
		ReplicatedPages: replicated,
	}.Build(pr.p)
	if err != nil {
		return Table2Row{}, err
	}

	// Pass 2: datathread analysis over the cache-filtered miss stream.
	filter := trace.DefaultMissFilter()
	an := trace.NewDatathreadAnalyzer(pt)
	err = trace.ForEachRefFrom(pr.p, pr.ff, refInstr, true, func(ref trace.Ref) error {
		if filter.Observe(ref) {
			an.Observe(ref.Addr, ref.Instr)
		}
		return nil
	})
	if err != nil {
		return Table2Row{}, err
	}
	res := an.Finish()

	counts := mem.SegmentCounts(replicated)
	return Table2Row{
		Benchmark:  pr.w.Name,
		DistKB:     blockPages * prog.PageSize / 1024,
		ReplText:   counts[prog.SegText],
		ReplGlobal: counts[prog.SegGlobal],
		ReplHeap:   counts[prog.SegHeap],
		ReplStack:  counts[prog.SegStack],
		ReplTotal:  len(replicated),
		AllMean:    res.AllMean,
		TextMean:   res.TextMean,
		DataMean:   res.DataMean,
		ReplMean:   res.ReplMean,
		Threads:    res.Threads,
	}, nil
}
