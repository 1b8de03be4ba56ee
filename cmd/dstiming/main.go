// Command dstiming regenerates the paper's Figure 7 (IPC of a perfect
// data cache, DataScalar at two and four nodes, and traditional machines
// with one half and one quarter of memory on-chip) and Table 3 (broadcast
// statistics) over the six timing benchmarks.
//
// Usage:
//
//	dstiming [-scale N] [-instr N] [-topology bus|ring|mesh|torus] [-parallel-nodes N] [-bshr] [-cpi]
//
// Fault injection (see docs/ROBUSTNESS.md): the -fault-* flags apply a
// seeded deterministic fault plan to every DataScalar run of the sweep,
// measuring how the timing results degrade under faults:
//
//	dstiming -fault-drop 0.01 -instr 50000
//
// Exit codes: 0 success; 1 generic failure; 2 usage error; 3 a run hit
// the deadlock watchdog; 4 a run halted with a structured fault report.
//
// Profiling (see docs/PERFORMANCE.md): -cpuprofile and -memprofile write
// pprof profiles of the run for `go tool pprof`.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"

	datascalar "github.com/wisc-arch/datascalar"
	"github.com/wisc-arch/datascalar/internal/cli"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dstiming: ")
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main minus the process boundary, so the CLI tests can run
// the binary in-process and assert on exit codes.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dstiming", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Int("scale", 1, "workload scale factor")
	instr := fs.Uint64("instr", 0, "measured instructions per run (0 = default)")
	topology := fs.String("topology", "bus", "interconnect for every timing run: bus, ring, mesh, torus")
	bshr := fs.Bool("bshr", true, "also print Table 3 (broadcast statistics)")
	cpi := fs.Bool("cpi", false, "also print per-benchmark CPI-stack tables for the DataScalar runs")
	cost := fs.Bool("cost", false, "also print the Wood-Hill cost-effectiveness analysis (paper §4.4)")
	jsonOut := fs.String("json", "", "also write results as JSON to this file (\"-\" = stdout)")
	parallel := fs.Int("parallel", 0, "simulation worker count (0 = GOMAXPROCS, 1 = serial)")
	parallelNodes := fs.Int("parallel-nodes", 0, "worker goroutines partitioning the nodes inside each DataScalar run (results are bit-identical at any setting; 0 or 1 = serial node loop)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	var faults cli.FaultFlags
	faults.Register(fs)
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "dstiming: unexpected arguments %q\n", fs.Args())
		return cli.ExitUsage
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "dstiming: %v\n", err)
		return cli.ExitCode(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	stopProfiles, err := cli.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return fail(err)
	}
	defer stopProfiles()

	topo, err := datascalar.ParseTopologyKind(*topology)
	if err != nil {
		fmt.Fprintf(stderr, "dstiming: %v\n", err)
		return cli.ExitUsage
	}

	opts := datascalar.DefaultExperimentOptions()
	opts.Scale = *scale
	opts.Parallel = *parallel
	opts.ParallelNodes = *parallelNodes
	opts.Fault = faults.Config()
	opts.Topology = topo
	if *instr != 0 {
		opts.TimingInstr = *instr
	}

	f7, err := datascalar.Figure7(ctx, opts)
	if err != nil {
		return fail(err)
	}
	f7.Table().Render(stdout)
	if *bshr {
		fmt.Fprintln(stdout)
		datascalar.Table3(f7).Table().Render(stdout)
	}
	if *cost {
		fmt.Fprintln(stdout)
		datascalar.CostEffectiveness(f7).Table().Render(stdout)
	}
	if *cpi {
		for _, row := range f7.Rows {
			fmt.Fprintln(stdout)
			datascalar.CPIStackTable(fmt.Sprintf("CPI stack: %s DS 2-node", row.Benchmark),
				row.DS2Detail.CPIStacks, row.DS2Detail.Instructions).Render(stdout)
			fmt.Fprintln(stdout)
			datascalar.CPIStackTable(fmt.Sprintf("CPI stack: %s DS 4-node", row.Benchmark),
				row.DS4Detail.CPIStacks, row.DS4Detail.Instructions).Render(stdout)
		}
	}
	if *jsonOut != "" {
		artifact := map[string]any{"figure7": f7, "table3": datascalar.Table3(f7)}
		if err := cli.WriteJSON(*jsonOut, stdout, artifact); err != nil {
			return fail(err)
		}
	}
	return cli.ExitOK
}
