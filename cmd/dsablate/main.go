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
	log.SetPrefix("dsablate: ")
	scale := flag.Int("scale", 1, "workload scale factor")
	instr := flag.Uint64("instr", 0, "measured instructions per timing run (0 = default)")
	only := flag.String("only", "", "run a single ablation by name")
	jsonOut := flag.String("json", "", "also write the structured results of the ablations run as JSON to this file (\"-\" = stdout)")
	parallel := flag.Int("parallel", 0, "simulation worker count (0 = GOMAXPROCS, 1 = serial)")
	flag.Parse()

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

	ran := 0
	artifact := map[string]any{}
	for _, a := range ablations {
		if *only != "" && a.name != *only {
			continue
		}
		table, result, err := a.run()
		if err != nil {
			log.Fatalf("%s: %v", a.name, err)
		}
		if ran > 0 {
			fmt.Println()
		}
		fmt.Fprint(os.Stdout, table.String())
		artifact[a.name] = result
		ran++
	}
	if ran == 0 {
		log.Fatalf("unknown ablation %q", *only)
	}
	if *jsonOut != "" {
		if err := cli.WriteJSON(*jsonOut, os.Stdout, artifact); err != nil {
			log.Fatal(err)
		}
	}
}
