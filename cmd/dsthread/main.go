// Command dsthread regenerates the paper's Table 2: approximate
// datathread lengths for a four-processor DataScalar system, after
// profiling-driven page replication and round-robin block distribution.
//
// Usage:
//
//	dsthread [-scale N] [-instr N]
//
// Exit codes: 0 success; 1 the analysis failed; 2 usage error (a bad
// flag or a stray argument).
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
	fs := flag.NewFlagSet("dsthread", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Int("scale", 1, "workload scale factor")
	instr := fs.Uint64("instr", 0, "max instructions per benchmark (0 = default)")
	parallel := fs.Int("parallel", 0, "analysis worker count (0 = GOMAXPROCS, 1 = serial)")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "dsthread: unexpected arguments %q\n", fs.Args())
		return cli.ExitUsage
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := datascalar.DefaultExperimentOptions()
	opts.Scale = *scale
	opts.Parallel = *parallel
	if *instr != 0 {
		opts.RefInstr = *instr
	}

	res, err := datascalar.Table2(ctx, opts)
	if err != nil {
		fmt.Fprintf(stderr, "dsthread: %v\n", err)
		return cli.ExitCode(err)
	}
	res.Table().Render(stdout)
	return cli.ExitOK
}
