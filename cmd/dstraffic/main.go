// Command dstraffic regenerates the paper's Table 1: the fraction of
// off-chip traffic (bytes) and transactions that ESP eliminates for each
// of the fourteen SPEC95-analogue benchmarks.
//
// Usage:
//
//	dstraffic [-scale N] [-instr N] [-detail]
//
// With -nodes set, dstraffic also runs the timing set on a concrete
// DataScalar machine of that size (and -topology) and prints the
// interconnect traffic it measured — the machine-measured counterpart
// of Table 1's analytic accounting:
//
//	dstraffic -nodes 64 -topology torus
//
// Exit codes: 0 success; 1 a run failed; 2 usage error (a bad flag, an
// unknown topology, a negative -nodes or a stray argument), checked
// before any analysis runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	datascalar "github.com/wisc-arch/datascalar"
	"github.com/wisc-arch/datascalar/internal/cli"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main minus the process boundary, so the CLI tests can run
// the binary in-process and assert on exit codes.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dstraffic", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Int("scale", 1, "workload scale factor")
	instr := fs.Uint64("instr", 0, "max instructions per benchmark (0 = default)")
	detail := fs.Bool("detail", false, "print per-benchmark miss and writeback counts")
	nodes := fs.Int("nodes", 0, "also measure traffic on a DS machine with this many nodes (0 = analytic Table 1 only)")
	topology := fs.String("topology", "bus", "interconnect for the -nodes measurement: bus, ring, mesh, torus")
	jsonOut := fs.String("json", "", "also write the Table 1 result as JSON to this file (\"-\" = stdout)")
	parallel := fs.Int("parallel", 0, "analysis worker count (0 = GOMAXPROCS, 1 = serial)")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "dstraffic: "+format+"\n", args...)
		return cli.ExitUsage
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "dstraffic: %v\n", err)
		return cli.ExitCode(err)
	}
	if fs.NArg() != 0 {
		return usage("unexpected arguments %q", fs.Args())
	}
	if *nodes < 0 {
		return usage("-nodes must be 0 (analytic only) or at least 1 (got %d)", *nodes)
	}
	topo, err := datascalar.ParseTopologyKind(*topology)
	if err != nil {
		return usage("%v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := datascalar.DefaultExperimentOptions()
	opts.Scale = *scale
	opts.Parallel = *parallel
	if *instr != 0 {
		opts.RefInstr = *instr
	}

	res, err := datascalar.Table1(ctx, opts)
	if err != nil {
		return fail(err)
	}
	res.Table().Render(stdout)
	if *detail {
		fmt.Fprintln(stdout)
		for _, row := range res.Rows {
			d := row.Detail
			fmt.Fprintf(stdout, "%-9s accesses=%-9d misses=%-8d writebacks=%-7d conv=%dB/%dtx esp=%dB/%dtx\n",
				row.Benchmark, d.Accesses, d.Misses, d.Writebacks,
				d.ConventionalBytes, d.ConventionalTransactions, d.ESPBytes, d.ESPTransactions)
		}
	}
	var measured *datascalar.MeasuredTrafficResult
	if *nodes != 0 {
		m, err := datascalar.MeasuredTraffic(ctx, opts, *nodes, topo)
		if err != nil {
			return fail(err)
		}
		measured = &m
		fmt.Fprintln(stdout)
		m.Table().Render(stdout)
	}
	if *jsonOut != "" {
		artifact := any(res)
		if measured != nil {
			artifact = map[string]any{"table1": res, "measured": measured}
		}
		if err := cli.WriteJSON(*jsonOut, stdout, artifact); err != nil {
			return fail(err)
		}
	}
	return cli.ExitOK
}
