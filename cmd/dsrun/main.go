// Command dsrun executes a program — a bundled SPEC95-analogue workload
// or an assembly file — on a chosen machine model and reports timing and
// protocol statistics.
//
// Usage:
//
//	dsrun -workload compress -system ds -nodes 2 [-instr N] [-scale N]
//	dsrun -asm prog.s -system traditional -nodes 4
//	dsrun -workload li -system emu            # functional run only
//
// Systems: ds (DataScalar), traditional, perfect, emu.
//
// Fault injection (ds only; see docs/ROBUSTNESS.md): the -fault-* flags
// build a seeded, deterministic fault plan — broadcast drops, delivery
// delays, payload corruption, a permanent node death — plus the
// detection machinery (BSHR retry timeouts, the commit-fingerprint
// exchange) and degraded-mode recovery:
//
//	dsrun -workload compress -system ds -nodes 2 -fault-drop 0.01
//	dsrun -workload compress -system ds -nodes 2 \
//	      -fault-death-cycle 50000 -fault-dead-node 1 -fault-recover
//
// Exit codes: 0 success; 1 generic failure; 2 usage error; 3 the
// commit-progress watchdog fired (protocol deadlock); 4 the machine
// detected a fault and halted with a structured report.
//
// Observability (see docs/OBSERVABILITY.md):
//
//	dsrun -workload compress -system ds -nodes 2 \
//	      -trace-out trace.json -metrics-out metrics.json -interval 10000
//	dsrun -workload compress -system ds -nodes 2 -json -      # result to stdout
//
// -trace-out writes a Chrome trace-event file (load it at
// ui.perfetto.dev), -metrics-out a JSON interval time series plus the
// final counters and the run's cpiStack section, and -json the full
// Result as JSON ("-" = stdout, anything else = file path). Observation
// never changes the simulation: cycle counts and counters are identical
// with or without these flags. -cpi prints the per-node CPI-stack table
// (exhaustive cycle attribution; see cmd/dsprof for cross-run diffing).
//
// Profiling (see docs/PERFORMANCE.md): -cpuprofile and -memprofile write
// pprof profiles of the run for `go tool pprof`.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	datascalar "github.com/wisc-arch/datascalar"
	"github.com/wisc-arch/datascalar/internal/cli"
)

// runArtifact is the -json envelope: enough run identity to tell
// artifacts apart, plus the model's full result.
type runArtifact struct {
	System   string `json:"system"`
	Workload string `json:"workload,omitempty"`
	AsmFile  string `json:"asm_file,omitempty"`
	Nodes    int    `json:"nodes"`
	Scale    int    `json:"scale"`
	Topology string `json:"topology,omitempty"`
	Result   any    `json:"result"`
}

// observability bundles the sink flags and the observers built from
// them.
type observability struct {
	traceOut   string
	metricsOut string
	interval   uint64
	trace      *datascalar.Trace
	metrics    *datascalar.Metrics
	stderr     io.Writer
}

// observer returns the combined observer (nil when no sink was
// requested, which disables observation entirely).
func (o *observability) observer() datascalar.Observer {
	var obs []datascalar.Observer
	if o.traceOut != "" {
		o.trace = datascalar.NewTrace()
		obs = append(obs, o.trace)
	}
	if o.metricsOut != "" {
		o.metrics = datascalar.NewMetrics(o.interval)
		obs = append(obs, o.metrics)
	}
	return datascalar.MultiObserver(obs...)
}

// setCPI attaches the run's cycle-attribution stacks to the metrics
// sink so the artifact carries a cpiStack section.
func (o *observability) setCPI(stacks []datascalar.CPIStack, instructions uint64) {
	if o.metrics != nil {
		o.metrics.SetCPIStacks(stacks, instructions)
	}
}

// write flushes the requested sink files; final is embedded in the
// metrics file as the end-of-run counter snapshot.
func (o *observability) write(final any) error {
	if o.trace != nil {
		if err := o.trace.WriteChromeTraceFile(o.traceOut); err != nil {
			return err
		}
		fmt.Fprintf(o.stderr, "dsrun: wrote %d trace events, %d samples to %s\n",
			o.trace.NumEvents(), o.trace.NumSamples(), o.traceOut)
	}
	if o.metrics != nil {
		if err := o.metrics.WriteFile(o.metricsOut, final); err != nil {
			return err
		}
		fmt.Fprintf(o.stderr, "dsrun: wrote %d sampled intervals to %s\n",
			o.metrics.NumIntervals(), o.metricsOut)
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("dsrun: ")
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main minus the process boundary, so the CLI tests can run
// the binary in-process and assert on exit codes (see cli.ExitCode for
// the convention).
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dsrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "bundled workload name (see -list)")
	asmFile := fs.String("asm", "", "assembly source file to run instead of a workload")
	system := fs.String("system", "ds", "machine model: ds, traditional, perfect, emu")
	nodes := fs.Int("nodes", 2, "node/chip count for ds and traditional")
	topology := fs.String("topology", "bus", "interconnect for ds and traditional: bus, ring, mesh, torus")
	parallelNodes := fs.Int("parallel-nodes", 1, "worker goroutines partitioning the nodes inside a ds run (results are bit-identical at any setting; 1 = serial node loop)")
	scale := fs.Int("scale", 1, "workload scale factor")
	instr := fs.Uint64("instr", 0, "max measured instructions (0 = run to completion)")
	watchdog := fs.Uint64("watchdog", 0, "cycles without commit progress before a ds run's deadlock watchdog fires (0 = default)")
	list := fs.Bool("list", false, "list bundled workloads and exit")
	report := fs.Bool("report", false, "print full statistics tables after DataScalar runs")
	cpi := fs.Bool("cpi", false, "print the CPI-stack table (per-node cycle attribution) after the run")
	jsonOut := fs.String("json", "", "write the full result as JSON to this file (\"-\" = stdout)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	var faults cli.FaultFlags
	faults.Register(fs)
	var ob observability
	ob.stderr = stderr
	fs.StringVar(&ob.traceOut, "trace-out", "", "write a Chrome trace-event file (Perfetto-loadable) to this path")
	fs.StringVar(&ob.metricsOut, "metrics-out", "", "write an interval metrics JSON time series to this path")
	fs.Uint64Var(&ob.interval, "interval", 10000, "metrics sampling interval in cycles (ds only)")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "dsrun: %v\n", err)
		return cli.ExitCode(err)
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "dsrun: "+format+"\n", args...)
		return cli.ExitUsage
	}

	stopProfiles, err := cli.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return fail(err)
	}
	defer stopProfiles()

	if *list {
		for _, w := range datascalar.Workloads() {
			timing := ""
			if w.Timing {
				timing = "  [timing set]"
			}
			fmt.Fprintf(stdout, "%-9s (%s)%s\n  %s\n", w.Name, w.Class, timing, w.Regime)
		}
		return cli.ExitOK
	}

	p, ff, err := loadProgram(*workloadName, *asmFile, *scale)
	if err != nil {
		return usage("%v", err)
	}
	if (ob.traceOut != "" || ob.metricsOut != "") && *system != "ds" && *system != "traditional" {
		return usage("-trace-out/-metrics-out require -system ds or traditional (got %q)", *system)
	}
	if ob.metricsOut != "" && ob.interval == 0 {
		return usage("-metrics-out needs a sampling interval; pass -interval > 0")
	}
	if faults.Active() && *system != "ds" {
		return usage("-fault-* flags require -system ds (got %q)", *system)
	}
	if *cpi && *system == "emu" {
		return usage("-cpi needs a timing model (got -system emu)")
	}
	topo, err := datascalar.ParseTopologyKind(*topology)
	if err != nil {
		return usage("%v", err)
	}
	if topo != datascalar.TopoBus && *system != "ds" && *system != "traditional" {
		return usage("-topology requires -system ds or traditional (got %q)", *system)
	}
	if *parallelNodes > 1 && *system != "ds" {
		return usage("-parallel-nodes requires -system ds (got %q)", *system)
	}
	if *watchdog != 0 && *system != "ds" {
		return usage("-watchdog requires -system ds (got %q)", *system)
	}

	artifact := runArtifact{
		System: *system, Workload: *workloadName, AsmFile: *asmFile,
		Nodes: *nodes, Scale: *scale, Topology: topo.String(),
	}
	var artifactErr error
	emitJSON := func(result any) {
		if *jsonOut == "" {
			return
		}
		artifact.Result = result
		artifactErr = cli.WriteJSON(*jsonOut, stdout, artifact)
	}

	switch *system {
	case "emu":
		m, err := datascalar.NewEmulator(p)
		if err != nil {
			return fail(err)
		}
		n, err := m.Run(*instr)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "executed %d instructions, halted=%v, pages touched=%d\n",
			n, m.Halted(), m.Mem().PageCount())
		emitJSON(map[string]any{
			"instructions": n, "halted": m.Halted(), "pages_touched": m.Mem().PageCount(),
		})

	case "perfect":
		r, err := datascalar.RunPerfectCache(datascalar.DefaultCoreConfig(), p, *instr, ff)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "perfect cache: %d instructions in %d cycles, IPC %.2f\n",
			r.Instructions, r.Cycles, r.IPC)
		emitJSON(r)
		if *cpi {
			fmt.Fprintln(stdout)
			datascalar.CPIStackTable("CPI stack (perfect cache)",
				[]datascalar.CPIStack{r.CPIStack}, r.Instructions).Render(stdout)
		}

	case "ds":
		pt, err := datascalar.Partition{NumNodes: *nodes, BlockPages: 1, ReplicateText: true}.Build(p)
		if err != nil {
			return fail(err)
		}
		cfg := datascalar.DefaultConfig(*nodes)
		cfg.Topology.Kind = topo
		cfg.MaxInstr = *instr
		cfg.FastForwardPC = ff
		cfg.WatchdogCycles = *watchdog
		cfg.ParallelNodes = *parallelNodes
		cfg.Fault = faults.Config()
		cfg.Observer = ob.observer()
		if cfg.Observer != nil {
			cfg.SampleInterval = ob.interval
		}
		m, err := datascalar.NewMachine(cfg, p, pt)
		if err != nil {
			return fail(err)
		}
		r, err := m.Run()
		if err != nil {
			// A structured halt (exit codes 3 and 4) still reports what
			// the machine learned before stopping.
			if fstats := m.FaultStats(); fstats != nil && fstats.Detections > 0 {
				fmt.Fprintf(stderr, "dsrun: fault detections before halt: %d (mean latency %.0f cycles)\n",
					fstats.Detections, fstats.MeanDetectLatency())
			}
			return fail(err)
		}
		ob.setCPI(r.CPIStacks, r.Instructions)
		if err := ob.write(r); err != nil {
			return fail(err)
		}
		emitJSON(r)
		fmt.Fprintf(stdout, "DataScalar %d nodes: %d instructions in %d cycles, IPC %.2f, correspondence=%v\n",
			*nodes, r.Instructions, r.Cycles, r.IPC, r.CorrespondenceOK)
		var bcast, late uint64
		for _, ns := range r.Nodes {
			bcast += ns.Broadcasts.Value()
			late += ns.LateBroadcasts.Value()
		}
		// Busy percent is per transfer resource: the one shared bus, or
		// the topology's aggregate link count for point-to-point kinds.
		links := float64(topo.Links(*nodes))
		fmt.Fprintf(stdout, "broadcasts=%d (late %d), net bytes=%d, link busy %.0f%%\n",
			bcast, late, r.BusStats.Bytes.Value(),
			100*float64(r.BusStats.BusyCycles.Value())/(float64(r.Cycles)*links))
		if f := r.Fault; f != nil {
			fmt.Fprintf(stdout, "faults: injected drops=%d delays=%d flips=%d, timeouts=%d retries=%d, detections=%d",
				f.InjectedDrops, f.InjectedDelays, f.InjectedFlips, f.Timeouts, f.Retries, f.Detections)
			if f.Degraded {
				fmt.Fprintf(stdout, ", degraded (node %d dead, %d pages remapped to node %d)",
					f.DeadNode, f.RemappedPages, f.SuccessorNode)
			}
			fmt.Fprintln(stdout)
		}
		if *cpi {
			fmt.Fprintln(stdout)
			datascalar.CPIStackTable(fmt.Sprintf("CPI stack (DataScalar %d nodes)", *nodes),
				r.CPIStacks, r.Instructions).Render(stdout)
		}
		if *report {
			for _, table := range r.Report() {
				fmt.Fprintln(stdout)
				fmt.Fprint(stdout, table.String())
			}
		}

	case "traditional":
		pt, err := datascalar.Partition{NumNodes: *nodes, BlockPages: 1, ReplicateText: true}.Build(p)
		if err != nil {
			return fail(err)
		}
		cfg := datascalar.DefaultTraditionalConfig(*nodes)
		cfg.Topology.Kind = topo
		cfg.MaxInstr = *instr
		cfg.FastForwardPC = ff
		cfg.Observer = ob.observer()
		m, err := datascalar.NewTraditional(cfg, p, pt)
		if err != nil {
			return fail(err)
		}
		r, err := m.Run()
		if err != nil {
			return fail(err)
		}
		ob.setCPI([]datascalar.CPIStack{r.CPIStack}, r.Instructions)
		if err := ob.write(r); err != nil {
			return fail(err)
		}
		emitJSON(r)
		fmt.Fprintf(stdout, "traditional 1/%d on-chip: %d instructions in %d cycles, IPC %.2f\n",
			*nodes, r.Instructions, r.Cycles, r.IPC)
		fmt.Fprintf(stdout, "off-chip loads=%d, off-chip stores=%d, writebacks off-chip=%d, bus bytes=%d\n",
			r.Mem.OffChipLoads.Value(), r.Mem.StoresOff.Value(),
			r.Mem.WritebacksOff.Value(), r.BusStats.Bytes.Value())
		if *cpi {
			fmt.Fprintln(stdout)
			datascalar.CPIStackTable(fmt.Sprintf("CPI stack (traditional 1/%d on-chip)", *nodes),
				[]datascalar.CPIStack{r.CPIStack}, r.Instructions).Render(stdout)
		}

	default:
		return usage("unknown system %q (want ds, traditional, perfect, emu)", *system)
	}
	if artifactErr != nil {
		return fail(artifactErr)
	}
	return cli.ExitOK
}

func loadProgram(workloadName, asmFile string, scale int) (*datascalar.Program, uint64, error) {
	switch {
	case workloadName != "" && asmFile != "":
		return nil, 0, fmt.Errorf("use either -workload or -asm, not both")
	case workloadName != "":
		w, ok := datascalar.WorkloadByName(workloadName)
		if !ok {
			return nil, 0, fmt.Errorf("unknown workload %q (try -list)", workloadName)
		}
		p, err := w.Program(scale)
		if err != nil {
			return nil, 0, err
		}
		return p, p.Labels["bench_main"], nil
	case asmFile != "":
		src, err := os.ReadFile(asmFile)
		if err != nil {
			return nil, 0, err
		}
		p, err := datascalar.Assemble(asmFile, string(src))
		if err != nil {
			return nil, 0, err
		}
		// Honor a bench_main label if the source defines one.
		return p, p.Labels["bench_main"], nil
	default:
		return nil, 0, fmt.Errorf("specify -workload or -asm (or -list)")
	}
}
