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
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	datascalar "github.com/wisc-arch/datascalar"
	"github.com/wisc-arch/datascalar/internal/cli"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dstraffic: ")
	scale := flag.Int("scale", 1, "workload scale factor")
	instr := flag.Uint64("instr", 0, "max instructions per benchmark (0 = default)")
	detail := flag.Bool("detail", false, "print per-benchmark miss and writeback counts")
	nodes := flag.Int("nodes", 0, "also measure traffic on a DS machine with this many nodes (0 = analytic Table 1 only)")
	topology := flag.String("topology", "bus", "interconnect for the -nodes measurement: bus, ring, mesh, torus")
	jsonOut := flag.String("json", "", "also write the Table 1 result as JSON to this file (\"-\" = stdout)")
	parallel := flag.Int("parallel", 0, "analysis worker count (0 = GOMAXPROCS, 1 = serial)")
	flag.Parse()

	topo, err := datascalar.ParseTopologyKind(*topology)
	if err != nil {
		log.Fatal(err)
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
		log.Fatal(err)
	}
	res.Table().Render(os.Stdout)
	if *detail {
		fmt.Println()
		for _, row := range res.Rows {
			d := row.Detail
			fmt.Printf("%-9s accesses=%-9d misses=%-8d writebacks=%-7d conv=%dB/%dtx esp=%dB/%dtx\n",
				row.Benchmark, d.Accesses, d.Misses, d.Writebacks,
				d.ConventionalBytes, d.ConventionalTransactions, d.ESPBytes, d.ESPTransactions)
		}
	}
	var measured *datascalar.MeasuredTrafficResult
	if *nodes != 0 {
		m, err := datascalar.MeasuredTraffic(ctx, opts, *nodes, topo)
		if err != nil {
			log.Fatal(err)
		}
		measured = &m
		fmt.Println()
		m.Table().Render(os.Stdout)
	}
	if *jsonOut != "" {
		artifact := any(res)
		if measured != nil {
			artifact = map[string]any{"table1": res, "measured": measured}
		}
		if err := cli.WriteJSON(*jsonOut, os.Stdout, artifact); err != nil {
			log.Fatal(err)
		}
	}
}
