package sim

import (
	"context"
	"testing"

	"github.com/wisc-arch/datascalar/internal/fault"
	"github.com/wisc-arch/datascalar/internal/obs"
	"github.com/wisc-arch/datascalar/internal/workload"
)

// checkExhaustive asserts the CPI-stack invariant for one profile: every
// cycle of every node is attributed to exactly one leaf bucket, so each
// node's stack sums to the run's cycles and the machine stack sums to
// cycles times nodes.
func checkExhaustive(t *testing.T, prof CPIProfileResult) {
	t.Helper()
	if len(prof.Rows) == 0 {
		t.Fatal("profile has no rows")
	}
	for _, row := range prof.Rows {
		if len(row.Stacks) != row.Nodes {
			t.Errorf("%s/%s: %d stacks for %d nodes", row.Benchmark, row.System, len(row.Stacks), row.Nodes)
			continue
		}
		for i, st := range row.Stacks {
			if got := st.Total(); got != row.Cycles {
				t.Errorf("%s/%s node %d: stack total = %d, want cycles = %d (leak of %d cycles)",
					row.Benchmark, row.System, i, got, row.Cycles, int64(row.Cycles)-int64(got))
			}
		}
		if got, want := row.Machine().Total(), row.Cycles*uint64(row.Nodes); got != want {
			t.Errorf("%s/%s: machine total = %d, want %d", row.Benchmark, row.System, got, want)
		}
	}
}

// TestCPIStackExhaustive is the tentpole invariant made executable: for
// every Figure 7 system, with the next-event scheduler both on and off,
// per-node bucket sums must equal total cycles — no cycle unattributed,
// none double-counted.
func TestCPIStackExhaustive(t *testing.T) {
	for _, noSkip := range []bool{false, true} {
		name := "skip"
		if noSkip {
			name = "noskip"
		}
		t.Run(name, func(t *testing.T) {
			opts := detOpts(0)
			opts.noCycleSkip = noSkip
			prof, err := CPIProfile(context.Background(), opts, []string{"compress"})
			if err != nil {
				t.Fatal(err)
			}
			checkExhaustive(t, prof)
		})
	}
}

// TestCPIStackNodeDeath: when a node dies mid-run and the survivors
// recover, the dead node's frozen cycles must land in node.dead and the
// exhaustiveness invariant must survive the fault path.
func TestCPIStackNodeDeath(t *testing.T) {
	w, ok := workload.ByName("compress")
	if !ok {
		t.Fatal("compress workload missing")
	}
	res, err := runJobs(context.Background(), detOpts(0), []Job{{
		Workload: w, Kind: KindDS, Nodes: 2, MaxInstr: 30_000,
		Fault: fault.Config{Deaths: []fault.Death{{Node: 1, Cycle: 5_000}}, Recover: true,
			RetryTimeoutCycles: 1_000, MaxRetries: 3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	r := res[0].DS
	if len(r.CPIStacks) != 2 {
		t.Fatalf("got %d stacks, want 2", len(r.CPIStacks))
	}
	for i, st := range r.CPIStacks {
		if got := st.Total(); got != r.Cycles {
			t.Errorf("node %d: stack total = %d, want cycles = %d", i, got, r.Cycles)
		}
	}
	dead := r.CPIStacks[1][obs.StallDead]
	if dead == 0 {
		t.Fatal("dead node charged nothing to node.dead")
	}
	// The node froze at cycle 5000; everything after must be node.dead.
	if want := r.Cycles - 5_000; dead != want {
		t.Errorf("node.dead = %d cycles, want %d (cycles after death)", dead, want)
	}
	if live := r.CPIStacks[0][obs.StallDead]; live != 0 {
		t.Errorf("surviving node charged %d cycles to node.dead", live)
	}
}
