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

// TestUsageErrors: every malformed invocation exits 2 with a one-line
// message before Table 1 runs, so stdout stays empty.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-no-such-flag"}, "flag provided but not defined"},
		{[]string{"-topology", "foo"}, `unknown topology "foo"`},
		{[]string{"-nodes", "-1", "-instr", "1000"}, "-nodes must be 0 (analytic only) or at least 1"},
		{[]string{"extra", "-instr", "1000"}, "unexpected arguments"},
	}
	for _, c := range cases {
		code, stdout, stderr := run(c.args...)
		if code != cli.ExitUsage || !strings.Contains(stderr, c.want) {
			t.Errorf("%q: exit %d, stderr %q; want exit %d and %q", c.args, code, stderr, cli.ExitUsage, c.want)
		}
		if stdout != "" {
			t.Errorf("%q: stdout %q, want nothing before the usage check", c.args, stdout)
		}
	}
}

// TestTable1 runs the analytic Table 1 with the per-benchmark detail.
func TestTable1(t *testing.T) {
	code, stdout, stderr := run("-instr", "1000", "-detail")
	if code != cli.ExitOK {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr)
	}
	for _, want := range []string{"Table 1: Off-chip data traffic reduced by ESP", "compress  accesses="} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
}
