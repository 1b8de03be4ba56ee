// Command dsablate runs the ablation studies of the DataScalar design
// choices DESIGN.md §6 calls out: bus versus ring interconnect,
// write-allocate versus write-no-allocate under ESP, synchronous versus
// asynchronous ESP, result communication, and BSHR/broadcast-queue
// latencies.
//
// Usage:
//
//	dsablate [-scale N] [-instr N] [-only name] [-json FILE]
//
// Names: interconnect, writepolicy, syncesp, resultcomm, latencies,
// placement, scaling, replication.
//
// Exit codes: 0 success; 1 an ablation failed; 2 usage error (a bad
// flag, an unknown -only name or a stray argument), checked before any
// simulation runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"

	datascalar "github.com/wisc-arch/datascalar"
	"github.com/wisc-arch/datascalar/internal/cli"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main minus the process boundary, so the CLI tests can run
// the binary in-process and assert on exit codes.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dsablate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Int("scale", 1, "workload scale factor")
	instr := fs.Uint64("instr", 0, "measured instructions per timing run (0 = default)")
	only := fs.String("only", "", "run a single ablation by name")
	jsonOut := fs.String("json", "", "also write the structured results of the ablations run as JSON to this file (\"-\" = stdout)")
	parallel := fs.Int("parallel", 0, "simulation worker count (0 = GOMAXPROCS, 1 = serial)")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "dsablate: unexpected arguments %q\n", fs.Args())
		return cli.ExitUsage
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := datascalar.DefaultExperimentOptions()
	opts.Scale = *scale
	opts.Parallel = *parallel
	if *instr != 0 {
		opts.TimingInstr = *instr
	}

	type ablation struct {
		name string
		run  func() (fmt.Stringer, any, error)
	}
	ablations := []ablation{
		{"interconnect", func() (fmt.Stringer, any, error) {
			r, err := datascalar.AblationInterconnect(ctx, opts)
			return r.Table(), r, err
		}},
		{"writepolicy", func() (fmt.Stringer, any, error) {
			r, err := datascalar.AblationWritePolicy(ctx, opts)
			return r.Table(), r, err
		}},
		{"syncesp", func() (fmt.Stringer, any, error) {
			r, err := datascalar.AblationSyncESP(ctx, opts)
			return r.Table(), r, err
		}},
		{"resultcomm", func() (fmt.Stringer, any, error) {
			r, err := datascalar.AblationResultComm(ctx, opts)
			return r.Table(), r, err
		}},
		{"latencies", func() (fmt.Stringer, any, error) {
			r, err := datascalar.AblationLatencies(ctx, opts)
			return r.Table(), r, err
		}},
		{"placement", func() (fmt.Stringer, any, error) {
			r, err := datascalar.AblationPlacement(ctx, opts)
			return r.Table(), r, err
		}},
		{"scaling", func() (fmt.Stringer, any, error) {
			r, err := datascalar.Scaling(ctx, opts)
			return r.Table(), r, err
		}},
		{"replication", func() (fmt.Stringer, any, error) {
			r, err := datascalar.AblationReplication(ctx, opts)
			return r.Table(), r, err
		}},
	}
	if *only != "" && !slices.ContainsFunc(ablations, func(a ablation) bool { return a.name == *only }) {
		fmt.Fprintf(stderr, "dsablate: unknown ablation %q\n", *only)
		return cli.ExitUsage
	}

	ran := 0
	artifact := map[string]any{}
	for _, a := range ablations {
		if *only != "" && a.name != *only {
			continue
		}
		table, result, err := a.run()
		if err != nil {
			fmt.Fprintf(stderr, "dsablate: %s: %v\n", a.name, err)
			return cli.ExitCode(err)
		}
		if ran > 0 {
			fmt.Fprintln(stdout)
		}
		fmt.Fprint(stdout, table.String())
		artifact[a.name] = result
		ran++
	}
	if *jsonOut != "" {
		if err := cli.WriteJSON(*jsonOut, stdout, artifact); err != nil {
			fmt.Fprintf(stderr, "dsablate: %v\n", err)
			return cli.ExitCode(err)
		}
	}
	return cli.ExitOK
}
