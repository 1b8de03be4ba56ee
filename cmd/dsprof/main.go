// Command dsprof measures and compares CPI stacks: the exhaustive
// per-node cycle attribution every timing machine maintains (see
// docs/OBSERVABILITY.md).
//
// Profile mode runs the chosen workloads across the five Figure 7
// systems (perfect cache, DataScalar at 2 and 4 nodes, traditional with
// 1/2 and 1/4 of memory on-chip) and prints one CPI-stack table per
// workload:
//
//	dsprof -workloads compress,mgrid -instr 30000
//	dsprof -json profile.json            # artifact for -diff
//
// Diff mode compares two profile artifacts bucket by bucket. The
// simulator is deterministic, so the artifacts are bit-reproducible
// across machines and any difference is a real behavioral change; the
// thresholds decide which changes fail. CI uses this as the
// performance-regression gate against the committed BENCH_baseline.json:
//
//	dsprof -diff BENCH_baseline.json BENCH_new.json
//	dsprof -diff -threshold 0.05 -min-share 0.01 old.json new.json
//
// A bucket regresses when it grows more than -threshold relative to the
// old profile and holds at least -min-share of either run's cycles
// (total cycles and instruction counts are always gated). Exit codes:
// 0 success / no regression; 1 regression detected or generic failure;
// 2 usage error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"

	datascalar "github.com/wisc-arch/datascalar"
	"github.com/wisc-arch/datascalar/internal/cli"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dsprof: ")
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main minus the process boundary, so the CLI tests can run
// the binary in-process and assert on exit codes.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dsprof", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloads := fs.String("workloads", "", "comma-separated workload names (empty = the six timing benchmarks)")
	instr := fs.Uint64("instr", 30_000, "measured instructions per run")
	scale := fs.Int("scale", 1, "workload scale factor")
	parallel := fs.Int("parallel", 0, "simulation worker count (0 = GOMAXPROCS, 1 = serial)")
	jsonOut := fs.String("json", "", "write the profile (or diff) as JSON to this file (\"-\" = stdout)")
	diff := fs.Bool("diff", false, "compare two profile artifacts: dsprof -diff old.json new.json")
	threshold := fs.Float64("threshold", 0.10, "relative per-bucket growth that fails the diff")
	minShare := fs.Float64("min-share", 0.02, "ignore buckets below this share of cycles in both runs")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "dsprof: %v\n", err)
		return cli.ExitCode(err)
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "dsprof: "+format+"\n", args...)
		return cli.ExitUsage
	}

	if *diff {
		if fs.NArg() != 2 {
			return usage("-diff needs exactly two artifacts: dsprof -diff old.json new.json")
		}
		return runDiff(fs.Arg(0), fs.Arg(1), datascalar.CPIDiffOptions{
			Threshold: *threshold, MinShare: *minShare,
		}, *jsonOut, stdout, stderr)
	}
	if fs.NArg() != 0 {
		return usage("unexpected arguments %q", fs.Args())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := datascalar.DefaultExperimentOptions()
	opts.Scale = *scale
	opts.Parallel = *parallel
	opts.TimingInstr = *instr
	var names []string
	if *workloads != "" {
		names = strings.Split(*workloads, ",")
	}
	prof, err := datascalar.CPIProfile(ctx, opts, names)
	if err != nil {
		return fail(err)
	}
	for i, t := range prof.Tables() {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		t.Render(stdout)
	}
	if *jsonOut != "" {
		if err := cli.WriteJSON(*jsonOut, stdout, prof); err != nil {
			return fail(err)
		}
	}
	return cli.ExitOK
}

// runDiff loads two profile artifacts and renders their comparison;
// regressions (or lost coverage) exit nonzero so CI can gate on it.
func runDiff(oldPath, newPath string, o datascalar.CPIDiffOptions, jsonOut string, stdout, stderr io.Writer) int {
	old, err := readProfile(oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "dsprof: %v\n", err)
		return cli.ExitFailure
	}
	cur, err := readProfile(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "dsprof: %v\n", err)
		return cli.ExitFailure
	}
	d, err := datascalar.CompareCPIProfiles(old, cur, o)
	if err != nil {
		fmt.Fprintf(stderr, "dsprof: %v\n", err)
		return cli.ExitFailure
	}
	if len(d.Entries) == 0 {
		fmt.Fprintf(stdout, "dsprof: profiles identical (%d rows)\n", len(old.Rows))
	} else {
		d.Table().Render(stdout)
	}
	for _, m := range d.Missing {
		fmt.Fprintf(stdout, "dsprof: row %s missing from %s\n", m, newPath)
	}
	for _, a := range d.Added {
		fmt.Fprintf(stdout, "dsprof: row %s only in %s\n", a, newPath)
	}
	if jsonOut != "" {
		if err := cli.WriteJSON(jsonOut, stdout, d); err != nil {
			fmt.Fprintf(stderr, "dsprof: %v\n", err)
			return cli.ExitFailure
		}
	}
	if !d.OK() {
		fmt.Fprintf(stdout, "dsprof: FAIL: %d regressed buckets, %d missing rows\n",
			d.Regressions, len(d.Missing))
		return cli.ExitFailure
	}
	fmt.Fprintf(stdout, "dsprof: OK: no regressions beyond %.0f%% (min share %.0f%%)\n",
		100*orDefault(o.Threshold, 0.10), 100*orDefault(o.MinShare, 0.02))
	return cli.ExitOK
}

func orDefault(v, d float64) float64 {
	if v == 0 {
		return d
	}
	return v
}

func readProfile(path string) (datascalar.CPIProfileResult, error) {
	var p datascalar.CPIProfileResult
	data, err := os.ReadFile(path)
	if err != nil {
		return p, err
	}
	if err := json.Unmarshal(data, &p); err != nil {
		return p, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}
