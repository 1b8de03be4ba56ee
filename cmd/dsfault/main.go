// Command dsfault runs the deterministic fault-injection campaign: a
// sweep over (workload × fault scenario × seed) on the DataScalar
// machine that classifies every run — clean, recovered, halted-clean,
// corrupted, watchdog — and aggregates detection coverage, detection
// latency, and retry overhead per scenario (see docs/ROBUSTNESS.md).
//
// Usage:
//
//	dsfault [-workloads compress,mgrid,go] [-seeds 3] [-nodes 2]
//	        [-topology bus|ring|mesh|torus] [-deaths K] [-parallel-nodes N]
//	        [-instr N] [-scale N] [-parallel N] [-runs] [-json out.json]
//
// -deaths K swaps the default scenario grid for the cascade family:
// sequential owner deaths of depth 1..K with recovery enabled, reported
// as a survival curve (survived fraction and post-death IPC per depth).
//
// Campaigns are bit-reproducible: the same flags produce the same table
// and JSON artifact at any -parallel or -parallel-nodes setting.
//
// Exit codes: 0 on success (including campaigns whose runs halted or
// were corrupted — those are the campaign's findings, not its failure),
// 1 on errors, 2 on bad usage.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	datascalar "github.com/wisc-arch/datascalar"
	"github.com/wisc-arch/datascalar/internal/cli"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dsfault", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloads := fs.String("workloads", "", "comma-separated workload names (default compress,mgrid,go)")
	seeds := fs.Int("seeds", 0, "fault seeds per (workload, scenario) cell (default 3)")
	nodes := fs.Int("nodes", 0, "DataScalar node count (default 2, or deaths+1 for cascades)")
	topology := fs.String("topology", "bus", "interconnect for every run: bus, ring, mesh, torus")
	deaths := fs.Int("deaths", 0, "run the cascade scenario family up to this many sequential deaths instead of the default grid")
	instr := fs.Uint64("instr", 0, "measured instructions per run (default: sweep size)")
	scale := fs.Int("scale", 1, "workload scale factor")
	parallel := fs.Int("parallel", 0, "simulation worker count (0 = GOMAXPROCS, 1 = serial)")
	parallelNodes := fs.Int("parallel-nodes", 0, "worker goroutines partitioning the nodes of each fault-free baseline run; fault runs take the serial node loop (results are bit-identical at any setting; 0 or 1 = serial node loop)")
	runs := fs.Bool("runs", false, "also print every individual run")
	jsonOut := fs.String("json", "", "write the campaign result as JSON to this file (\"-\" = stdout)")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "dsfault: unexpected arguments %q\n", fs.Args())
		return cli.ExitUsage
	}

	topo, err := datascalar.ParseTopologyKind(*topology)
	if err != nil {
		fmt.Fprintf(stderr, "dsfault: %v\n", err)
		return cli.ExitUsage
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := datascalar.DefaultExperimentOptions()
	opts.Scale = *scale
	opts.Parallel = *parallel
	opts.ParallelNodes = *parallelNodes

	cc := datascalar.FaultCampaignConfig{
		Seeds: *seeds, Nodes: *nodes, MaxInstr: *instr,
		Topology: topo, Deaths: *deaths,
	}
	if *workloads != "" {
		cc.Workloads = strings.Split(*workloads, ",")
	}

	res, err := datascalar.FaultCampaign(ctx, opts, cc)
	if err != nil {
		fmt.Fprintf(stderr, "dsfault: %v\n", err)
		return cli.ExitCode(err)
	}
	res.Table().Render(stdout)
	if st := res.SurvivalTable(); st != nil {
		fmt.Fprintln(stdout)
		st.Render(stdout)
	}
	if *runs {
		fmt.Fprintln(stdout)
		for _, r := range res.Runs {
			fmt.Fprintf(stdout, "%-10s %-14s seed=%016x  %-12s", r.Workload, r.Scenario, r.Seed, r.Outcome)
			if r.Detail != "" {
				fmt.Fprintf(stdout, "  %s", r.Detail)
			} else {
				fmt.Fprintf(stdout, "  cycles=%d (+%.1f%%) injected=%d detected=%d retries=%d",
					r.Cycles, r.OverheadPct, r.Injected, r.Detected, r.Retries)
			}
			fmt.Fprintln(stdout)
		}
	}
	if *jsonOut != "" {
		if err := cli.WriteJSON(*jsonOut, stdout, res); err != nil {
			fmt.Fprintf(stderr, "dsfault: %v\n", err)
			return cli.ExitFailure
		}
	}
	return cli.ExitOK
}
