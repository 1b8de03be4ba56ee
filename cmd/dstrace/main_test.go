package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"github.com/wisc-arch/datascalar/internal/cli"
)

// run invokes the CLI in-process and returns (exit code, stdout, stderr).
func run(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := realMain(args, &out, &errb)
	return code, out.String(), errb.String()
}

// recordCompress records a short compress trace into a temporary
// directory and returns its path.
func recordCompress(t *testing.T) string {
	t.Helper()
	file := filepath.Join(t.TempDir(), "compress.dstr")
	code, stdout, stderr := run(t, "-record", "compress", "-o", file, "-instr", "20000")
	if code != cli.ExitOK || !strings.Contains(stdout, "recorded ") {
		t.Fatalf("record: exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	return file
}

// TestAnalyzeModes: a recorded trace replays through every analysis.
func TestAnalyzeModes(t *testing.T) {
	file := recordCompress(t)
	for _, tc := range []struct{ mode, want string }{
		{"traffic", "eliminated:"},
		{"thread", "datathreads:"},
		{"stats", "references="},
	} {
		code, stdout, stderr := run(t, "-analyze", file, "-mode", tc.mode)
		if code != cli.ExitOK || !strings.Contains(stdout, tc.want) {
			t.Errorf("-mode %s: exit %d, want %d with %q\nstdout:\n%s\nstderr:\n%s",
				tc.mode, code, cli.ExitOK, tc.want, stdout, stderr)
		}
	}
}

// TestUsageErrors: bad flags are one-line usage errors with exit 2,
// never a panic.
func TestUsageErrors(t *testing.T) {
	file := recordCompress(t)
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"nodes-zero", []string{"-analyze", file, "-mode", "thread", "-nodes", "0"}, "-nodes must be at least 1"},
		{"nodes-negative", []string{"-analyze", file, "-mode", "thread", "-nodes", "-1"}, "-nodes must be at least 1"},
		{"unknown-mode", []string{"-analyze", file, "-mode", "bogus"}, "unknown mode"},
		{"unknown-workload", []string{"-record", "nope", "-o", filepath.Join(t.TempDir(), "x")}, "unknown workload"},
		{"record-without-o", []string{"-record", "compress"}, "-record needs -o FILE"},
		{"record-and-analyze", []string{"-record", "compress", "-analyze", file}, "use either -record or -analyze"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := run(t, tc.args...)
			if code != cli.ExitUsage || !strings.Contains(stderr, tc.want) || strings.Count(stderr, "\n") != 1 {
				t.Fatalf("exit %d, want %d with one line containing %q\nstdout:\n%s\nstderr:\n%s",
					code, cli.ExitUsage, tc.want, stdout, stderr)
			}
		})
	}
}

// TestMissingTraceFails: an unreadable trace is a run failure, exit 1.
func TestMissingTraceFails(t *testing.T) {
	code, _, stderr := run(t, "-analyze", filepath.Join(t.TempDir(), "absent.dstr"))
	if code != cli.ExitFailure || !strings.Contains(stderr, "absent.dstr") {
		t.Fatalf("exit %d, want %d naming the file\nstderr:\n%s", code, cli.ExitFailure, stderr)
	}
}
