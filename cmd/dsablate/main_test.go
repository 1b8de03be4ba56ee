package main

import (
	"bytes"
	"encoding/json"
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
// message before any ablation runs, so stdout stays empty.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-no-such-flag"}, "flag provided but not defined"},
		{[]string{"-only", "nope"}, `unknown ablation "nope"`},
		{[]string{"-only", "latencies", "-instr", "2000", "extra"}, "unexpected arguments"},
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

// TestOneAblation runs the cheapest timing ablation and checks the
// table and its JSON artifact.
func TestOneAblation(t *testing.T) {
	code, stdout, stderr := run("-only", "interconnect", "-instr", "2000", "-json", "-")
	if code != cli.ExitOK {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "Ablation: DataScalar IPC on a global bus vs a unidirectional ring") {
		t.Fatalf("stdout lacks the interconnect table:\n%s", stdout)
	}
	var artifact map[string]struct{ Rows []map[string]any }
	if err := json.Unmarshal([]byte(stdout[strings.Index(stdout, "{"):]), &artifact); err != nil {
		t.Fatalf("JSON artifact: %v", err)
	}
	if rows := artifact["interconnect"].Rows; len(rows) != 4 {
		t.Fatalf("interconnect artifact has %d rows, want 4 (2 benchmarks x 2 node counts)", len(rows))
	}
}
