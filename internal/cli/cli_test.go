package cli

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/wisc-arch/datascalar/internal/core"
	"github.com/wisc-arch/datascalar/internal/fault"
)

func TestExitCode(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, ExitOK},
		{"plain", fmt.Errorf("boom"), ExitFailure},
		{"fault-report", fmt.Errorf("run: %w", &fault.Report{Class: fault.ClassDeath, Node: 1}), ExitFault},
		{"deadlock", fmt.Errorf("run: %w", &core.DeadlockError{}), ExitDeadlock},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := ExitCode(tc.err); got != tc.want {
				t.Fatalf("ExitCode(%v) = %d, want %d", tc.err, got, tc.want)
			}
		})
	}
}

// TestFaultFlagsDeaths: -fault-dead-node/-fault-death-cycle become a
// one-entry death schedule, and only when a death cycle is given.
func TestFaultFlagsDeaths(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		deaths []fault.Death
	}{
		{"no-flags", nil, nil},
		{"default-node", []string{"-fault-death-cycle", "500"}, []fault.Death{{Node: 1, Cycle: 500}}},
		{"named-node", []string{"-fault-dead-node", "3", "-fault-death-cycle", "700"}, []fault.Death{{Node: 3, Cycle: 700}}},
		{"node-without-cycle", []string{"-fault-dead-node", "3"}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ff FaultFlags
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			ff.Register(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			c := ff.Config()
			if !reflect.DeepEqual(c.Deaths, tc.deaths) {
				t.Fatalf("deaths %v, want %v", c.Deaths, tc.deaths)
			}
			if ff.Active() != (tc.deaths != nil) {
				t.Fatalf("Active() = %v with deaths %v", ff.Active(), c.Deaths)
			}
			if err := c.ValidateFor(4); err != nil {
				t.Fatalf("flag-built config invalid: %v", err)
			}
		})
	}
}

// TestWriteJSON: "-" and a file path receive the same indented bytes;
// an uncreatable path is an error, not a silent drop.
func TestWriteJSON(t *testing.T) {
	v := map[string]any{"cycles": 42, "nodes": []int{0, 1}}
	var stdout bytes.Buffer
	if err := WriteJSON("-", &stdout, v); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.json")
	var unused bytes.Buffer
	if err := WriteJSON(path, &unused, v); err != nil {
		t.Fatal(err)
	}
	if unused.Len() != 0 {
		t.Fatalf("file write also wrote to stdout: %q", unused.String())
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, stdout.Bytes()) {
		t.Fatalf("file %q differs from stdout %q", file, stdout.Bytes())
	}
	want := "{\n  \"cycles\": 42,\n  \"nodes\": [\n    0,\n    1\n  ]\n}\n"
	if string(file) != want {
		t.Fatalf("artifact %q, want %q", file, want)
	}
	if err := WriteJSON(filepath.Join(t.TempDir(), "missing", "out.json"), &unused, v); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

// TestStartProfiles: the stop function writes the heap profile, and an
// uncreatable CPU profile path fails up front.
func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	mem := filepath.Join(dir, "mem.pprof")
	stop, err := StartProfiles("", mem)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if st, err := os.Stat(mem); err != nil || st.Size() == 0 {
		t.Fatalf("heap profile not written: %v", err)
	}
	if _, err := StartProfiles(filepath.Join(dir, "missing", "cpu.pprof"), ""); err == nil {
		t.Fatal("CPU profile into a missing directory succeeded")
	}
}
