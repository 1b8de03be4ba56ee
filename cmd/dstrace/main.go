// Command dstrace records a workload's memory reference stream to a
// compact binary trace file, and replays trace files through the paper's
// analyses.
//
// Usage:
//
//	dstrace -record compress -o compress.dstr [-instr N] [-scale N] [-noinstr]
//	dstrace -analyze compress.dstr -mode traffic
//	dstrace -analyze compress.dstr -mode thread -nodes 4
//	dstrace -analyze compress.dstr -mode stats
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	datascalar "github.com/wisc-arch/datascalar"
	"github.com/wisc-arch/datascalar/internal/cli"
	"github.com/wisc-arch/datascalar/internal/mem"
	"github.com/wisc-arch/datascalar/internal/prog"
	"github.com/wisc-arch/datascalar/internal/trace"
	"github.com/wisc-arch/datascalar/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dstrace: ")
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main minus the process boundary, so the CLI tests can run
// the binary in-process and assert on exit codes (see cli.ExitCode for
// the convention).
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dstrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	record := fs.String("record", "", "workload to record")
	out := fs.String("o", "", "output trace file for -record")
	analyze := fs.String("analyze", "", "trace file to analyze")
	mode := fs.String("mode", "stats", "analysis: traffic, thread, stats")
	nodes := fs.Int("nodes", 4, "node count for -mode thread")
	instr := fs.Uint64("instr", 2_000_000, "max instructions to record")
	scale := fs.Int("scale", 1, "workload scale factor")
	noInstr := fs.Bool("noinstr", false, "omit instruction-fetch references")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "dstrace: %v\n", err)
		return cli.ExitCode(err)
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "dstrace: "+format+"\n", args...)
		return cli.ExitUsage
	}

	if *nodes < 1 {
		return usage("-nodes must be at least 1 (got %d)", *nodes)
	}
	var err error
	switch {
	case *record != "" && *analyze != "":
		return usage("use either -record or -analyze")
	case *record != "":
		w, ok := workload.ByName(*record)
		if !ok {
			return usage("unknown workload %q", *record)
		}
		if *out == "" {
			return usage("-record needs -o FILE")
		}
		err = doRecord(stdout, w, *out, *scale, *instr, !*noInstr)
	case *analyze != "":
		switch *mode {
		case "traffic", "thread", "stats":
		default:
			return usage("unknown mode %q", *mode)
		}
		err = doAnalyze(stdout, *analyze, *mode, *nodes)
	default:
		fs.Usage()
		return cli.ExitUsage
	}
	if err != nil {
		return fail(err)
	}
	return cli.ExitOK
}

func doRecord(stdout io.Writer, w workload.Workload, out string, scale int, instr uint64, includeInstr bool) error {
	p, err := w.Program(scale)
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	n, err := trace.Record(f, p, p.Labels["bench_main"], instr, includeInstr)
	if err != nil {
		f.Close()
		return err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "recorded %d references (%.2f bytes/ref) to %s\n",
		n, float64(info.Size())/float64(n), out)
	return nil
}

// doAnalyze replays file through the analysis mode names, one of
// traffic, thread or stats.
func doAnalyze(stdout io.Writer, file, mode string, nodes int) error {
	f, err := os.Open(file)
	if err != nil {
		return err
	}
	defer f.Close()
	rd, err := trace.NewReader(f)
	if err != nil {
		return err
	}

	switch mode {
	case "traffic":
		a := trace.NewTrafficAnalyzer(trace.DefaultTrafficConfig())
		err := rd.ForEach(func(r trace.Ref) error {
			if r.Instr {
				return nil
			}
			return a.Observe(r)
		})
		if err != nil {
			return err
		}
		res := a.Finish()
		fmt.Fprintf(stdout, "accesses=%d misses=%d writebacks=%d\n", res.Accesses, res.Misses, res.Writebacks)
		fmt.Fprintf(stdout, "conventional: %d bytes, %d transactions\n",
			res.ConventionalBytes, res.ConventionalTransactions)
		fmt.Fprintf(stdout, "ESP:          %d bytes, %d transactions\n", res.ESPBytes, res.ESPTransactions)
		fmt.Fprintf(stdout, "eliminated:   %.0f%% of bytes, %.0f%% of transactions\n",
			res.TrafficEliminated()*100, res.TransactionsEliminated()*100)

	case "thread":
		// Reconstruct a page table covering the trace's footprint.
		pt := mem.NewPageTable(nodes)
		// First pass is impossible on a stream; assign ownership lazily
		// round-robin by page number, the distribution the timing runs
		// use.
		filter := trace.DefaultMissFilter()
		an := trace.NewDatathreadAnalyzer(pt)
		seen := map[uint64]bool{}
		err := rd.ForEach(func(r trace.Ref) error {
			pg := prog.PageOf(r.Addr)
			if !seen[pg] {
				seen[pg] = true
				if prog.SegmentOf(r.Addr) == prog.SegText {
					pt.SetReplicated(pg)
				} else {
					pt.SetOwner(pg, int(pg)%nodes)
				}
			}
			if filter.Observe(r) {
				an.Observe(r.Addr, r.Instr)
			}
			return nil
		})
		if err != nil {
			return err
		}
		res := an.Finish()
		fmt.Fprintf(stdout, "datathreads: %d, mean length all=%.1f text=%.1f data=%.1f repl=%.1f\n",
			res.Threads, res.AllMean, res.TextMean, res.DataMean, res.ReplMean)

	case "stats":
		var refs, loads, stores, ifetch uint64
		pages := map[uint64]bool{}
		err := rd.ForEach(func(r trace.Ref) error {
			refs++
			pages[prog.PageOf(r.Addr)] = true
			switch {
			case r.Instr:
				ifetch++
			case r.Store:
				stores++
			default:
				loads++
			}
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "references=%d (ifetch=%d loads=%d stores=%d), pages touched=%d (%.0f KB)\n",
			refs, ifetch, loads, stores, len(pages),
			float64(len(pages))*float64(datascalar.PageSize)/1024)
	}
	return nil
}
