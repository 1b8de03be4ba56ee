package main

import (
	"bytes"
	"encoding/json"
	"os"
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

func TestExitCodes(t *testing.T) {
	tests := []struct {
		name string
		args []string
		code int
		want string // substring of stdout+stderr
	}{
		{"usage/no-program", nil, cli.ExitUsage, "specify -workload"},
		{"usage/unknown-flag", []string{"-no-such-flag"}, cli.ExitUsage, "flag provided but not defined"},
		{"usage/unknown-workload", []string{"-workload", "nope"}, cli.ExitUsage, "unknown workload"},
		{"usage/unknown-system", []string{"-workload", "compress", "-system", "bogus"}, cli.ExitUsage, "unknown system"},
		{"usage/fault-on-traditional", []string{"-workload", "compress", "-system", "traditional", "-fault-drop", "0.1"},
			cli.ExitUsage, "-fault-* flags require -system ds"},
		{"usage/watchdog-on-traditional", []string{"-workload", "compress", "-system", "traditional", "-watchdog", "1", "-instr", "5000"},
			cli.ExitUsage, "-watchdog requires -system ds"},
		{"usage/watchdog-on-perfect", []string{"-workload", "compress", "-system", "perfect", "-watchdog", "1", "-instr", "5000"},
			cli.ExitUsage, "-watchdog requires -system ds"},
		{"ok/clean-run", []string{"-workload", "compress", "-instr", "5000"},
			cli.ExitOK, "correspondence=true"},
		{"ok/faulty-run-recovers", []string{"-workload", "compress", "-instr", "5000",
			"-fault-drop", "0.02", "-fault-retry-timeout", "1000"},
			cli.ExitOK, "faults: injected drops="},
		{"deadlock/watchdog", []string{"-workload", "compress", "-instr", "5000", "-watchdog", "1"},
			cli.ExitDeadlock, "core: deadlock: no commit progress"},
		{"fault/death-halt", []string{"-workload", "compress", "-instr", "50000",
			"-fault-death-cycle", "2000", "-fault-dead-node", "1",
			"-fault-retry-timeout", "500", "-fault-retries", "2"},
			cli.ExitFault, "fault: death: node 1"},
		{"ok/death-recover", []string{"-workload", "compress", "-instr", "50000",
			"-fault-death-cycle", "2000", "-fault-dead-node", "1", "-fault-recover",
			"-fault-retry-timeout", "500", "-fault-retries", "2"},
			cli.ExitOK, "degraded (node 1 dead"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := run(t, tc.args...)
			if code != tc.code {
				t.Fatalf("exit code = %d, want %d\nstdout:\n%s\nstderr:\n%s",
					code, tc.code, stdout, stderr)
			}
			if !strings.Contains(stdout+stderr, tc.want) {
				t.Fatalf("output lacks %q\nstdout:\n%s\nstderr:\n%s", tc.want, stdout, stderr)
			}
		})
	}
}

// TestJSONArtifactWithFaults: a faulty run's -json artifact embeds the
// fault counters; a fault-free run's artifact stays byte-identical to
// one from a build that never heard of faults (no fault keys at all).
func TestJSONArtifactWithFaults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	code, _, stderr := run(t, "-workload", "compress", "-instr", "5000",
		"-fault-drop", "0.02", "-fault-retry-timeout", "1000", "-json", path)
	if code != cli.ExitOK {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var artifact struct {
		Result struct {
			Fault *struct {
				InjectedDrops uint64 `json:"injectedDrops"`
			} `json:"Fault"`
		} `json:"result"`
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &artifact); err != nil {
		t.Fatal(err)
	}
	if artifact.Result.Fault == nil || artifact.Result.Fault.InjectedDrops == 0 {
		t.Fatalf("artifact lacks fault stats:\n%s", data)
	}

	// Zero-rate: no "Fault" key may appear in the artifact.
	code, _, stderr = run(t, "-workload", "compress", "-instr", "5000", "-json", path)
	if code != cli.ExitOK {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"Fault"`)) {
		t.Fatalf("fault-free artifact mentions faults:\n%s", data)
	}
}

// TestUnmappedGuestAccess: a guest load or store outside the page table
// is an error in the program, so the run ends with exit 1 and an error
// naming the node and the address — never a panic. The load comes after
// a streaming loop, so the first node to reach it is not node 0, and the
// error is the same at any -parallel-nodes.
func TestUnmappedGuestAccess(t *testing.T) {
	const prologue = `
        .data
arr:    .space 65536
        .text
        li   r1, arr
        li   r2, 8192
loop:   ld   r4, 0(r1)
        addi r1, r1, 8
        addi r2, r2, -1
        bne  r2, r0, loop
        li   r5, 0x7000000
`
	dir := t.TempDir()
	write := func(name, access string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(prologue+access+"        halt\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	load := write("load.s", "        ld   r6, 0(r5)\n")
	store := write("store.s", "        sd   r4, 0(r5)\n")

	const ds = "core: node 3: load at unmapped address 0x7000000"
	tests := []struct {
		name string
		args []string
		want string
	}{
		{"ds/load", []string{"-asm", load, "-nodes", "4"}, ds},
		{"ds/load/parallel-nodes-2", []string{"-asm", load, "-nodes", "4", "-parallel-nodes", "2"}, ds},
		{"ds/store", []string{"-asm", store, "-nodes", "4"}, "core: node 3: store at unmapped address 0x7000000"},
		{"traditional/load", []string{"-asm", load, "-system", "traditional", "-nodes", "4"},
			"traditional: chip 0: load at unmapped address 0x7000000"},
		{"traditional/store", []string{"-asm", store, "-system", "traditional", "-nodes", "4"},
			"traditional: chip 0: store at unmapped address 0x7000000"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := run(t, tc.args...)
			if code != cli.ExitFailure {
				t.Fatalf("exit code = %d, want %d\nstdout:\n%s\nstderr:\n%s",
					code, cli.ExitFailure, stdout, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Fatalf("stderr lacks %q:\n%s", tc.want, stderr)
			}
		})
	}
}
