package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"github.com/wisc-arch/datascalar/internal/cli"
)

func run(args ...string) (int, string, string) {
	var out, errb bytes.Buffer
	code := realMain(args, &out, &errb)
	return code, out.String(), errb.String()
}

var samePC = filepath.Join("testdata", "samepc.s")

// TestUsageErrors: not exactly one source file is a usage error; an
// unreadable file is a plain failure.
func TestUsageErrors(t *testing.T) {
	if code, _, stderr := run(); code != cli.ExitUsage || !strings.Contains(stderr, "Usage of dsasm") {
		t.Fatalf("no file: exit %d, stderr %q", code, stderr)
	}
	if code, _, _ := run("-d", samePC, samePC); code != cli.ExitUsage {
		t.Fatalf("two files: exit %d, want %d", code, cli.ExitUsage)
	}
	if code, _, _ := run("-no-such-flag", samePC); code != cli.ExitUsage {
		t.Fatalf("unknown flag: exit %d, want %d", code, cli.ExitUsage)
	}
	if code, _, stderr := run("-d", filepath.Join("testdata", "nosuch.s")); code != cli.ExitFailure ||
		!strings.Contains(stderr, "no such file") {
		t.Fatalf("missing file: exit %d, stderr %q", code, stderr)
	}
}

// TestDisassemblyPrintsEveryLabel: skip: and again: name one PC, and -d
// prints both, in name order, on every run. Map iteration order is
// randomized per range statement, so a listing that kept the first
// label it met would differ between the repetitions.
func TestDisassemblyPrintsEveryLabel(t *testing.T) {
	const want = "00010020  again: skip: beq r0, r0, 0x10008\n"
	var first string
	for i := 0; i < 20; i++ {
		code, stdout, stderr := run("-d", samePC)
		if code != cli.ExitOK {
			t.Fatalf("exit %d\nstderr:\n%s", code, stderr)
		}
		if !strings.Contains(stdout, want) {
			t.Fatalf("run %d: listing lacks %q:\n%s", i, want, stdout)
		}
		if i == 0 {
			first = stdout
		} else if stdout != first {
			t.Fatalf("run %d differs from run 0:\n%s\nvs\n%s", i, stdout, first)
		}
	}
	if !strings.Contains(first, "00010008  loop:        addi r1, r1, -1\n") {
		t.Fatalf("single-label layout changed:\n%s", first)
	}
}

// TestRun executes the program functionally.
func TestRun(t *testing.T) {
	code, stdout, stderr := run("-run", samePC)
	if code != cli.ExitOK {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "halted=true") {
		t.Fatalf("program did not halt:\n%s", stdout)
	}
}
