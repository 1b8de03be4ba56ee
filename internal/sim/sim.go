// Package sim contains the experiment harnesses that regenerate every
// table and figure in the paper's evaluation: Table 1 (ESP traffic
// reduction), Table 2 (datathread lengths), Figure 7 (timing comparison),
// Table 3 (broadcast statistics), Figure 8 (sensitivity analysis), and
// the Figure 1 / Figure 3 illustrative experiments. Each harness returns
// structured results plus a rendered text table, and cmd/ binaries and
// the repository-level benchmarks are thin wrappers around them.
//
// Every harness enumerates its sweep as Jobs and executes them on the
// experiment engine (engine.go): a bounded worker pool that assembles
// results strictly in job order, so harness output is bit-identical at
// any Options.Parallel setting and a cancelled context stops a sweep at
// the next job boundary.
package sim

import (
	"runtime"

	"github.com/wisc-arch/datascalar/internal/bus"
	"github.com/wisc-arch/datascalar/internal/fault"
)

// Options bound experiment cost. The defaults reproduce the shipped
// EXPERIMENTS.md numbers in a few minutes on a laptop; the paper ran
// 100 M instructions per benchmark on 1997 hardware, so absolute numbers
// differ while shapes hold (see DESIGN.md §4).
type Options struct {
	// Scale multiplies each kernel's main-loop trip counts.
	Scale int
	// TimingInstr bounds the measured instructions of each timing run
	// (Figures 7, Table 3), counted after fast-forwarding initialization.
	TimingInstr uint64
	// RefInstr bounds the reference-trace analyses (Tables 1 and 2).
	RefInstr uint64
	// SweepInstr bounds each point of the Figure 8 sensitivity sweeps.
	SweepInstr uint64
	// Parallel bounds the worker pool the harnesses run their jobs on:
	// 1 runs everything serially, 0 (or negative) means GOMAXPROCS.
	// Results are bit-identical at every setting — each simulation is
	// deterministic and the engine assembles results in job order.
	Parallel int
	// ParallelNodes partitions the nodes of every DataScalar machine
	// across that many worker goroutines inside a single run
	// (conservative intra-run parallelism; see docs/PERFORMANCE.md). 0
	// or 1 keeps the serial node loop, and so does any machine with an
	// active fault plan. Results are bit-identical at every setting — the
	// differential suite in pardiff_test.go enforces it — so the knob
	// trades wall-clock for cores, never accuracy.
	// Independent of Parallel: that bounds concurrent jobs, this bounds
	// goroutines inside each job, and the two multiply.
	ParallelNodes int
	// noCycleSkip runs every timing simulation with the next-event
	// scheduler disabled (pure cycle-by-cycle polling, through
	// ooo.Config.NoCycleSkip). Results are bit-identical either way; the
	// package's differential tests set it to keep that equivalence
	// testable.
	noCycleSkip bool
	// Fault is a deterministic fault plan applied to every DataScalar
	// job whose own Fault field is zero (see internal/fault). The zero
	// value injects nothing and builds no fault layer, so every harness
	// output stays byte-identical to a build without the fault subsystem
	// (enforced by the zero-rate variants of TestHarnessDifferential).
	Fault fault.Config
	// Topology is the interconnect applied to every timing job that does
	// not pin its own (the -topology CLI flag). The zero value is the
	// paper's shared bus. Harnesses that sweep topologies explicitly
	// (Scaling) pin every job, except that a bus job is indistinguishable
	// from an unpinned one — a non-bus Topology therefore moves those
	// columns too, so topology-sweeping harnesses are run with the zero
	// value.
	Topology bus.TopologyKind
}

// DefaultOptions returns the standard experiment sizes.
func DefaultOptions() Options {
	return Options{
		Scale:       1,
		TimingInstr: 300_000,
		RefInstr:    2_000_000,
		SweepInstr:  150_000,
		Parallel:    runtime.GOMAXPROCS(0),
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.Scale <= 0 {
		o.Scale = d.Scale
	}
	if o.TimingInstr == 0 {
		o.TimingInstr = d.TimingInstr
	}
	if o.RefInstr == 0 {
		o.RefInstr = d.RefInstr
	}
	if o.SweepInstr == 0 {
		o.SweepInstr = d.SweepInstr
	}
	if o.Parallel <= 0 {
		o.Parallel = d.Parallel
	}
	return o
}
