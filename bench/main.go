// Command dsbench is the repository's host-performance benchmark: how
// fast the DataScalar simulator simulates, end to end and layer by
// layer. Five workloads (fig7, sweep8, mesh, mesh-par2, faults) each run
// a fixed grid of machines through the simulator's public constructors;
// every simulated result is checked against a committed golden digest.
// See README.md in this directory.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	dsbench [-seed N] [-seconds S] [-trace 0|1] [-json FILE]    all workloads, 3 runs each
//	dsbench -workload NAME [-seed N] [-seconds S] [-trace 0|1]  one workload, this process
//	dsbench -compare A.json B.json                              median deltas against BENCHMARK.json bounds
//	dsbench -update-golden                                      rewrite bench/golden.json
//
// With -workload the last output line is one JSON object: correct,
// attempted, failed and metrics (the end-to-end metrics, or with
// -trace 1 the per-layer ones).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's body; it returns the exit code: 0 done, 1 failed ops,
// breached bounds or a run error, 2 usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload, in this process: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed of the faults workload's fault plans (the only randomized input)")
	seconds := fs.Float64("seconds", 0, "repeat the workload's grid until this many seconds have passed, at least 3 passes (0: one pass)")
	trace := fs.Int("trace", 0, "1: run the traced pass and report per-layer metrics")
	jsonPath := fs.String("json", "", "write the full result as JSON to this file (- for a line on standard output)")
	compare := fs.Bool("compare", false, "compare two suite JSON files: -compare A.json B.json")
	update := fs.Bool("update-golden", false, "regenerate "+goldenPath+" from the current commit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "dsbench: -trace must be 0 or 1")
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "dsbench: -compare needs two files")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *update:
		if err := updateGolden(goldenPath); err != nil {
			fmt.Fprintf(stderr, "dsbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", goldenPath)
		return 0
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "dsbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	case *name != "":
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "dsbench: unknown workload %q (want %s)\n", *name, workloadNames())
			return 2
		}
		return runOne(w, *seed, *seconds, *trace == 1, *jsonPath, stdout, stderr)
	}
	res, err := runSuite(suiteConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "dsbench: %v\n", err)
		return 1
	}
	printSuite(stdout, res)
	if err := writeJSON(*jsonPath, res, stdout); err != nil {
		fmt.Fprintf(stderr, "dsbench: %v\n", err)
		return 1
	}
	for _, w := range res.Workloads {
		if w.Failed > 0 {
			return 1
		}
	}
	for _, r := range res.Traces {
		if r.Failed > 0 {
			return 1
		}
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

// runOne measures one workload in this process and prints its result
// line last.
func runOne(w workloadDef, seed uint64, seconds float64, trace bool, jsonPath string, stdout, stderr io.Writer) int {
	golden, err := goldenFor(w, seed)
	if err != nil {
		fmt.Fprintf(stderr, "dsbench: %v\n", err)
		return 1
	}
	if golden == nil && !w.Seeded {
		fmt.Fprintf(stderr, "dsbench: no golden digests for %s; run -update-golden\n", w.Name)
		return 1
	}
	// One core: the garbage collector shares the simulation's thread, so
	// a pass's time does not depend on whether a second core happens to
	// be idle. mesh-par2's two node-loop workers share it too; on the
	// 2-core development VM, two cores more than doubled that workload's
	// run-to-run spread. The traced run measures the parallel engine on
	// two cores (core.par_speedup).
	runtime.GOMAXPROCS(1)
	var rec runRecord
	defs := endToEnd
	if trace {
		defs = layerMetrics
		rec, err = traceRun(w, seed, golden, spansPath(w.Name))
		if err != nil {
			fmt.Fprintf(stderr, "dsbench: %v\n", err)
			return 1
		}
	} else {
		rec = measure(w, seed, seconds, golden)
	}
	printRecord(stdout, rec, defs, spansPath(w.Name), golden != nil)
	if err := writeJSON(jsonPath, rec, stdout); err != nil {
		fmt.Fprintf(stderr, "dsbench: %v\n", err)
		return 1
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: rec.Failed == 0 && rec.Attempted > 0, Attempted: rec.Attempted, Failed: rec.Failed,
		Metrics: map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.Name] = value{rec.Metrics[d.Name].Value, d.Unit}
	}
	blob, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "dsbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", blob)
	return 0
}

// writeJSON writes v to path: indented to a file, or as one line on
// stdout for "-" (how the suite reads its child runs).
func writeJSON(path string, v any, stdout io.Writer) error {
	if path == "" {
		return nil
	}
	if path == "-" {
		blob, err := json.Marshal(v)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(stdout, "%s\n", blob)
		return err
	}
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// printRecord renders one run for a reader.
func printRecord(w io.Writer, rec runRecord, defs []metricDef, spans string, golden bool) {
	h := rec.Host
	check := "golden digests"
	if !golden {
		check = "invariants and pass-to-pass determinism (no golden digests for this seed)"
	}
	fmt.Fprintf(w, "dsbench %s: seed %d, %d pass(es), results checked against %s\n",
		rec.Workload, rec.Seed, rec.Passes, check)
	fmt.Fprintf(w, "host: %s, nproc %d, GOMAXPROCS %d, %s %s/%s\n", h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.OS, h.Arch)
	if rec.Traced {
		fmt.Fprintf(w, "%-30s %14s  %-13s %s\n", "metric", "value", "unit", "moves")
		for _, d := range defs {
			fmt.Fprintf(w, "%-30s %14.6g  %-13s %s\n", d.Name, rec.Metrics[d.Name].Value, d.Unit, d.Target)
		}
		fmt.Fprintln(w, "cpu share by layer:")
		for _, l := range sortedKeys(rec.CPUShare) {
			fmt.Fprintf(w, "  %-12s %5.1f%%\n", l, 100*rec.CPUShare[l])
		}
		fmt.Fprintln(w, "stage budget (host ns per simulated node-cycle of the largest DataScalar machines):")
		printBudget(w, rec.Budget)
		if spans != "" {
			fmt.Fprintf(w, "spans: %s\n", spans)
		}
	} else {
		fmt.Fprintf(w, "%-18s %14s %14s %14s  %s\n", "metric", "value", "pass min", "pass max", "unit")
		for _, d := range defs {
			st := rec.Metrics[d.Name]
			fmt.Fprintf(w, "%-18s %14.6g %14.6g %14.6g  %s\n", d.Name, st.Value, st.Min, st.Max, d.Unit)
		}
		t := rec.OpTime
		fmt.Fprintf(w, "per-op time: p50 %.3f ms over %d ops", t.P50Ms, t.N)
		if t.Tail != "" && t.Tail != "p50" {
			fmt.Fprintf(w, ", %s %.3f ms", t.Tail, t.TailMs)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "fail_frac: %g (%d of %d ops)\n", rec.failFrac(), rec.Failed, rec.Attempted)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
}

// runCompare compares two suite results against the spec's bounds.
func runCompare(aPath, bPath string, stdout, stderr io.Writer) int {
	var spec benchSpec
	var a, b suiteResult
	for _, f := range []struct {
		path string
		v    any
	}{{specPath, &spec}, {aPath, &a}, {bPath, &b}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintf(stderr, "dsbench: %v\n", err)
			return 2
		}
	}
	if n := compareSuites(spec, a, b, stdout); n > 0 {
		fmt.Fprintf(stdout, "%d breach(es)\n", n)
		return 1
	}
	fmt.Fprintln(stdout, "every median within its bound")
	return 0
}
