package sim

import (
	"fmt"

	"github.com/wisc-arch/datascalar/internal/asm"
	"github.com/wisc-arch/datascalar/internal/core"
	"github.com/wisc-arch/datascalar/internal/mmm"
	"github.com/wisc-arch/datascalar/internal/prog"
	"github.com/wisc-arch/datascalar/internal/stats"
	"github.com/wisc-arch/datascalar/internal/traditional"
	"github.com/wisc-arch/datascalar/internal/workload"
)

// Figure1 reproduces the paper's Figure 1: the synchronous ESP Massive
// Memory Machine timeline for the reference string w1..w9 with w5-w7 on
// machine 1 and the rest on machine 0.
func Figure1() (mmm.Result, *stats.Table, error) {
	refs, owner := mmm.Figure1Reference()
	res, err := mmm.Simulate(mmm.DefaultConfig(), refs, owner)
	if err != nil {
		return res, nil, err
	}
	t := stats.NewTable(
		"Figure 1: Operation of the ESP Massive Memory Machine",
		"word", "owner", "received at cycle", "lead change")
	for _, ev := range res.Timeline {
		lc := ""
		if ev.LeadChange {
			lc = "yes"
		}
		t.AddRowf(fmt.Sprintf("w%d", ev.Word), ev.Owner, ev.ReceivedAt, lc)
	}
	return res, t, nil
}

// Figure3Result compares serialized off-chip crossings for a dependent
// four-operand chain where x1..x3 live on one memory chip and x4 on
// another (paper Figure 3): the DataScalar system pipelines the
// broadcasts of the co-located operands and pays two serialized
// crossings; the traditional system pays a request/response pair per
// operand, eight crossings.
type Figure3Result struct {
	// Analytic crossing counts, as in the figure.
	DSCrossings   int
	TradCrossings int
	// Measured cycles per chain traversal on the timing models.
	DSCyclesPerLap   float64
	TradCyclesPerLap float64
}

// Table renders the comparison.
func (r Figure3Result) Table() *stats.Table {
	t := stats.NewTable(
		"Figure 3: Serialized off-chip accesses for a dependent 4-operand chain",
		"system", "serialized crossings", "measured cycles/lap")
	t.AddRowf("DataScalar (pipelined broadcasts)", r.DSCrossings, stats.Round1(r.DSCyclesPerLap))
	t.AddRowf("Traditional (request/response per operand)", r.TradCrossings, stats.Round1(r.TradCyclesPerLap))
	return t
}

// CountCrossings computes the figure's serialized off-chip access counts
// for a dependent operand chain. chainOwners holds each operand's owning
// chip in dependence order; cpuChip is the traditional CPU chip.
//
// DataScalar pays one serialized crossing per ownership transition along
// the chain (a datathread migration) plus one for the final operand's
// broadcast. The traditional system pays two crossings (request and
// response) for every operand not in the CPU chip's local memory.
func CountCrossings(chainOwners []int, cpuChip int) (ds, trad int) {
	if len(chainOwners) == 0 {
		return 0, 0
	}
	for i := 1; i < len(chainOwners); i++ {
		if chainOwners[i] != chainOwners[i-1] {
			ds++
		}
	}
	ds++ // final operand's broadcast
	for _, o := range chainOwners {
		if o != cpuChip {
			trad += 2
		}
	}
	return ds, trad
}

// figure3Source builds the microbenchmark: a pointer chain with x1..x3 in
// the second data page and x4 in the third, walked repeatedly. With
// single-page round-robin distribution over four chips, x1..x3 land on
// chip 1 and x4 on chip 2 — neither on the traditional CPU chip 0,
// matching the figure's placement. The operands sit 512 bytes apart so
// that under the shrunken 512-byte direct-mapped L1 used for this
// experiment every access conflicts and goes to memory each lap.
func figure3Source(laps int) string {
	return fmt.Sprintf(`
        .data
        .space %[1]d             # page 0: padding owned by chip 0
x1:     .word x2
        .space 504
x2:     .word x3
        .space 504
x3:     .word x4                 # x1..x3 share page 1
        .space %[2]d
x4:     .word x1                 # x4 alone on page 2
        .text
bench_main:
        li   r2, %[3]d
        la   r1, x1
lap:    ld   r1, 0(r1)           # x1 -> x2
        ld   r1, 0(r1)           # x2 -> x3
        ld   r1, 0(r1)           # x3 -> x4
        ld   r1, 0(r1)           # x4 -> x1
        addi r2, r2, -1
        bne  r2, zero, lap
        halt
`, prog.PageSize, prog.PageSize-(2*512+8), laps)
}

// Figure3 runs the microbenchmark on a 4-node DataScalar machine and the
// matching 4-chip traditional machine and reports both the analytic
// crossing counts and the measured cycles per chain traversal.
func Figure3() (Figure3Result, error) {
	const laps = 2000
	var out Figure3Result
	out.DSCrossings, out.TradCrossings = CountCrossings([]int{1, 1, 1, 2}, 0)

	p, err := asm.Assemble("figure3", figure3Source(laps))
	if err != nil {
		return out, err
	}
	w := workload.Workload{Name: "figure3"}

	ds, err := Job{
		Workload: w, Program: p, Kind: KindDS, Nodes: 4,
		DSMut: func(cfg *core.Config) { cfg.L1.SizeBytes = 512 },
	}.run(Options{})
	if err != nil {
		return out, err
	}
	out.DSCyclesPerLap = float64(ds.DS.Cycles) / laps

	tr, err := Job{
		Workload: w, Program: p, Kind: KindTraditional, Nodes: 4,
		TradMut: func(cfg *traditional.Config) { cfg.L1.SizeBytes = 512 },
	}.run(Options{})
	if err != nil {
		return out, err
	}
	out.TradCyclesPerLap = float64(tr.Trad.Cycles) / laps
	return out, nil
}
