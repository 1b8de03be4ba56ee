// Command dsasm assembles, validates, and disassembles programs in the
// bundled assembly dialect.
//
// Usage:
//
//	dsasm prog.s                 # assemble and report segment sizes
//	dsasm -d prog.s              # assemble then disassemble the text
//	dsasm -run prog.s [-instr N] # assemble and execute functionally
//
// With -d, every label that names a PC is printed beside it, in name
// order. Exit codes: 0 success; 1 the file cannot be read, assembled or
// run; 2 usage error (a bad flag, or not exactly one source file).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	datascalar "github.com/wisc-arch/datascalar"
	"github.com/wisc-arch/datascalar/internal/cli"
	"github.com/wisc-arch/datascalar/internal/prog"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main minus the process boundary, so the CLI tests can run
// the binary in-process and assert on exit codes.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dsasm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	disasm := fs.Bool("d", false, "disassemble the text segment")
	run := fs.Bool("run", false, "execute the program functionally")
	instr := fs.Uint64("instr", 0, "instruction limit for -run (0 = none)")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return cli.ExitUsage
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "dsasm: %v\n", err)
		return cli.ExitCode(err)
	}
	file := fs.Arg(0)
	src, err := os.ReadFile(file)
	if err != nil {
		return fail(err)
	}
	p, err := datascalar.Assemble(file, string(src))
	if err != nil {
		return fail(err)
	}

	fmt.Fprintf(stdout, "%s: %d instructions (%d bytes of text), %d bytes of data, %d pages\n",
		file, len(p.Text), len(p.Text)*8, len(p.Data), len(p.Pages()))
	if len(p.Labels) > 0 {
		fmt.Fprintf(stdout, "labels: %d (entry 0x%x)\n", len(p.Labels), p.EntryPC())
	}

	if *disasm {
		// Several labels may name one PC; print them all, in name order.
		labels := map[uint64][]string{}
		for name, addr := range p.Labels {
			labels[addr] = append(labels[addr], name+":")
		}
		for _, names := range labels {
			sort.Strings(names)
		}
		for i, in := range p.Text {
			pc := prog.IndexToPC(i)
			fmt.Fprintf(stdout, "%08x  %-12s %s\n", pc, strings.Join(labels[pc], " "), in)
		}
	}

	if *run {
		m, err := datascalar.NewEmulator(p)
		if err != nil {
			return fail(err)
		}
		n, err := m.Run(*instr)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "executed %d instructions, halted=%v\n", n, m.Halted())
		for r := uint8(1); r < 32; r++ {
			if v := m.Reg(r); v != 0 {
				fmt.Fprintf(stdout, "  r%-2d = %d (0x%x)\n", r, int64(v), v)
			}
		}
	}
	return cli.ExitOK
}
