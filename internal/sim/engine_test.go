package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/wisc-arch/datascalar/internal/bus"
	"github.com/wisc-arch/datascalar/internal/fault"
)

// detOpts are deliberately tiny: the harness differential runs every
// harness six times, so each run must be cheap.
func detOpts(parallel int) Options {
	return Options{
		Scale:       1,
		TimingInstr: 30_000,
		RefInstr:    100_000,
		SweepInstr:  10_000,
		Parallel:    parallel,
	}
}

// harnesses enumerates every experiment runner behind one uniform
// signature so the differential and cancellation suites cover all of
// them.
var harnesses = []struct {
	name string
	// cheap harnesses stay in -short (race CI) runs; the heavy timing
	// sweeps only run in full mode.
	cheap bool
	run   func(ctx context.Context, opts Options) (any, error)
}{
	{"Table1", true, func(ctx context.Context, o Options) (any, error) { return Table1(ctx, o) }},
	{"Table2", true, func(ctx context.Context, o Options) (any, error) { return Table2(ctx, o) }},
	{"Figure7", false, func(ctx context.Context, o Options) (any, error) { return Figure7(ctx, o) }},
	{"Figure8", false, func(ctx context.Context, o Options) (any, error) { return Figure8(ctx, o) }},
	{"Scaling", false, func(ctx context.Context, o Options) (any, error) { return Scaling(ctx, o) }},
	{"MeasuredTraffic", false, func(ctx context.Context, o Options) (any, error) {
		return MeasuredTraffic(ctx, o, 8, bus.TopoMesh)
	}},
	{"AblationInterconnect", false, func(ctx context.Context, o Options) (any, error) { return AblationInterconnect(ctx, o) }},
	{"AblationWritePolicy", true, func(ctx context.Context, o Options) (any, error) { return AblationWritePolicy(ctx, o) }},
	{"AblationSyncESP", true, func(ctx context.Context, o Options) (any, error) { return AblationSyncESP(ctx, o) }},
	{"AblationResultComm", false, func(ctx context.Context, o Options) (any, error) { return AblationResultComm(ctx, o) }},
	{"AblationLatencies", false, func(ctx context.Context, o Options) (any, error) { return AblationLatencies(ctx, o) }},
	{"AblationPlacement", false, func(ctx context.Context, o Options) (any, error) { return AblationPlacement(ctx, o) }},
	{"AblationReplication", false, func(ctx context.Context, o Options) (any, error) { return AblationReplication(ctx, o) }},
	{"FaultCampaign", false, func(ctx context.Context, o Options) (any, error) {
		return FaultCampaign(ctx, o, FaultCampaignConfig{Workloads: []string{"compress"}, Seeds: 1})
	}},
	{"CPIProfile", true, func(ctx context.Context, o Options) (any, error) {
		return CPIProfile(ctx, o, []string{"compress", "mgrid"})
	}},
}

// TestHarnessDifferential is the engine's equivalence guarantees made
// executable. Each harness gets one reference run (serial, cycle
// skipping on, no fault plan), and every variant below must reproduce
// its structured result exactly (DeepEqual) and its JSON artifact byte
// for byte:
//   - parallel4: a 4-way worker pool, so results assemble in job order
//     whatever order the jobs finish in;
//   - noskip/serial and noskip/parallel4: the next-event scheduler off
//     (Options.noCycleSkip), alone and crossed with parallelism, so a
//     scheduler bug that only shows under worker interleaving still
//     fails;
//   - zero-rate/serial and zero-rate/parallel4: an Options.Fault whose
//     injection knobs are all zero but whose retry tuning is set, so the
//     struct is non-zero while Enabled() is false — the fault layer may
//     not perturb a healthy machine by existing.
//
// Each variant is a subtest of its harness's subtest, so a failure names
// both, and one variant's failure does not hide the others'.
//
// FaultCampaign injects faults by design and skips the zero-rate
// variants; its own determinism tests cover it.
func TestHarnessDifferential(t *testing.T) {
	inert := fault.Config{RetryTimeoutCycles: 777, MaxRetries: 3}
	variants := []struct {
		name   string
		par    int
		noSkip bool
		fault  fault.Config
	}{
		{"parallel4", 4, false, fault.Config{}},
		{"noskip/serial", 1, true, fault.Config{}},
		{"noskip/parallel4", 4, true, fault.Config{}},
		{"zero-rate/serial", 1, false, inert},
		{"zero-rate/parallel4", 4, false, inert},
	}
	run := func(t *testing.T, h func(context.Context, Options) (any, error), name string, opts Options) (any, []byte) {
		t.Helper()
		res, err := h(context.Background(), opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, res); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res, buf.Bytes()
	}
	for _, h := range harnesses {
		h := h
		t.Run(h.name, func(t *testing.T) {
			if testing.Short() && !h.cheap {
				t.Skip("heavy timing sweep skipped in short mode")
			}
			t.Parallel()
			ref, refJSON := run(t, h.run, "reference", detOpts(1))
			for _, v := range variants {
				if h.name == "FaultCampaign" && !v.fault.IsZero() {
					continue
				}
				t.Run(v.name, func(t *testing.T) {
					opts := detOpts(v.par)
					opts.noCycleSkip = v.noSkip
					opts.Fault = v.fault
					res, js := run(t, h.run, v.name, opts)
					if !reflect.DeepEqual(ref, res) {
						t.Fatalf("results differ between the reference run and %s:\nreference: %+v\n%s: %+v",
							v.name, ref, v.name, res)
					}
					if !bytes.Equal(refJSON, js) {
						t.Fatalf("JSON artifacts differ between the reference run and %s", v.name)
					}
				})
			}
		})
	}
}

// TestHarnessesHonorCancellation: a cancelled context must stop every
// harness before (or promptly after) it starts and surface ctx.Err().
func TestHarnessesHonorCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, h := range harnesses {
		for _, parallel := range []int{1, 4} {
			_, err := h.run(ctx, detOpts(parallel))
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s (parallel=%d): err = %v, want context.Canceled", h.name, parallel, err)
			}
		}
	}
}

// TestRunIndexedOrdering: results land in index order regardless of
// completion order.
func TestRunIndexedOrdering(t *testing.T) {
	const n = 64
	out, err := runIndexed(context.Background(), 8, n, func(i int) (int, error) {
		// Later indexes finish first, exercising out-of-order completion.
		time.Sleep(time.Duration((n-i)%5) * time.Millisecond)
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestRunIndexedRunsJobsConcurrently proves the pool genuinely overlaps
// jobs: eight 100 ms jobs on eight workers must finish in far less than
// the 800 ms a serialized pool would need. (Sleeps overlap even on one
// CPU, so this holds regardless of host core count.)
func TestRunIndexedRunsJobsConcurrently(t *testing.T) {
	const n, workers = 8, 8
	start := time.Now()
	_, err := runIndexed(context.Background(), workers, n, func(i int) (int, error) {
		time.Sleep(100 * time.Millisecond)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("8 x 100ms jobs on 8 workers took %v; pool is serialized", elapsed)
	}
}

// TestRunIndexedErrorDeterminism: the reported error must always be the
// lowest failing index's — the one a serial run would return — no matter
// how workers interleave.
func TestRunIndexedErrorDeterminism(t *testing.T) {
	const n, firstBad = 100, 7
	for round := 0; round < 20; round++ {
		_, err := runIndexed(context.Background(), 8, n, func(i int) (int, error) {
			if i >= firstBad {
				return 0, fmt.Errorf("job %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != fmt.Sprintf("job %d failed", firstBad) {
			t.Fatalf("round %d: err = %v, want job %d's", round, err, firstBad)
		}
	}
}

// TestRunIndexedCancellationStopsClaiming: after cancellation no new
// jobs are claimed; only the handful already in flight may finish.
func TestRunIndexedCancellationStopsClaiming(t *testing.T) {
	const n, workers = 1000, 8
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	_, err := runIndexed(ctx, workers, n, func(i int) (int, error) {
		calls.Add(1)
		if i == 0 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Each worker can claim at most one job after cancellation wins the
	// race with its pre-claim check.
	if c := calls.Load(); c > 2*workers {
		t.Fatalf("%d jobs ran after prompt cancellation (cap %d)", c, 2*workers)
	}
}

// TestRunIndexedSerialPath covers the workers<=1 fast path and the
// degenerate sizes.
func TestRunIndexedSerialPath(t *testing.T) {
	out, err := runIndexed(context.Background(), 1, 3, func(i int) (int, error) { return i + 1, nil })
	if err != nil || !reflect.DeepEqual(out, []int{1, 2, 3}) {
		t.Fatalf("serial: %v %v", out, err)
	}
	out, err = runIndexed(context.Background(), 0, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty: %v %v", out, err)
	}
	wantErr := errors.New("boom")
	_, err = runIndexed(context.Background(), 1, 3, func(i int) (int, error) {
		if i == 1 {
			return 0, wantErr
		}
		return i, nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("serial error path: %v", err)
	}
}

// TestJobResultIPC: the kind-dispatched accessor the harness assemblies
// rely on.
func TestJobResultIPC(t *testing.T) {
	r := JobResult{Kind: KindDS}
	r.DS.IPC, r.Trad.IPC = 2.5, 1.5
	if r.IPC() != 2.5 {
		t.Fatalf("DS IPC = %v", r.IPC())
	}
	r.Kind = KindPerfect
	if r.IPC() != 1.5 {
		t.Fatalf("perfect IPC = %v", r.IPC())
	}
	for k, want := range map[MachineKind]string{
		KindDS: "DS", KindTraditional: "traditional", KindPerfect: "perfect",
	} {
		if k.String() != want {
			t.Fatalf("String(%d) = %q", k, k.String())
		}
	}
}
