package main

import (
	"bytes"
	"strings"
	"testing"

	"github.com/wisc-arch/datascalar/internal/cli"
)

func run(args ...string) (int, string, string) {
	var out, errb bytes.Buffer
	code := realMain(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestUsageErrors: a bad flag or a stray argument exits 2 before the
// analysis runs.
func TestUsageErrors(t *testing.T) {
	if code, stdout, _ := run("-no-such-flag"); code != cli.ExitUsage || stdout != "" {
		t.Fatalf("unknown flag: exit %d, stdout %q", code, stdout)
	}
	if code, stdout, stderr := run("extra"); code != cli.ExitUsage || stdout != "" ||
		!strings.Contains(stderr, "unexpected arguments") {
		t.Fatalf("stray argument: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

// TestTable2 runs the datathread analysis at a tiny budget.
func TestTable2(t *testing.T) {
	code, stdout, stderr := run("-instr", "1000")
	if code != cli.ExitOK {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "Table 2") || !strings.Contains(stdout, "compress") {
		t.Fatalf("stdout lacks the Table 2 rendering:\n%s", stdout)
	}
}
