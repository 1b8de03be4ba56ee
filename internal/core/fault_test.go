package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/wisc-arch/datascalar/internal/bus"
	"github.com/wisc-arch/datascalar/internal/fault"
	"github.com/wisc-arch/datascalar/internal/obs"
)

// gatherLoads reads a multi-page zero-filled array without writing it
// first: every off-node line must arrive by broadcast, making this the
// densest broadcast workload of the three.
const gatherLoads = `
        .data
arr:    .space 32768
        .text
        la   r1, arr
        li   r2, 4096
        li   r3, 0
gather: ld   r5, 0(r1)
        add  r3, r3, r5
        addi r1, r1, 8
        addi r2, r2, -1
        bne  r2, zero, gather
        halt
`

// faultKernels are the workloads the resilience tests run: they differ
// in access pattern (streaming, dependent chasing, pure gathering) so
// drop recovery is exercised against distinct broadcast behaviours.
var faultKernels = []struct {
	name, src string
	dropRate  float64
}{
	{"streamSum", streamSum, 0.05},
	{"pointerChase", pointerChase, 0.05},
	{"gatherLoads", gatherLoads, 0.05},
}

// archState snapshots the registers that carry each kernel's results,
// after checking that every live node read the whole instruction stream.
func archState(t testing.TB, m *Machine) [8]uint64 {
	t.Helper()
	checkStreamConsumed(t, m)
	var out [8]uint64
	for i := range out {
		out[i] = m.Emu().Reg(uint8(i + 1))
	}
	return out
}

// TestFaultZeroConfigIdentical: a zero fault.Config must behave exactly
// like no fault layer at all — bit-identical Result and observation
// stream (the machine-level half of the zero-rate differential; the sim
// layer repeats it over every harness).
func TestFaultZeroConfigIdentical(t *testing.T) {
	for _, k := range faultKernels {
		t.Run(k.name, func(t *testing.T) {
			run := func(withZero bool) (Result, *obs.Trace) {
				trace := obs.NewTrace()
				m := buildMachine(t, k.src, 2, func(c *Config) {
					c.Observer = trace
					c.SampleInterval = 500
					if withZero {
						c.Fault = fault.Config{} // explicitly zero
					}
				})
				if withZero && m.fault != nil {
					t.Fatal("zero fault.Config built fault state")
				}
				return mustRunMachine(t, m), trace
			}
			base, baseTrace := run(false)
			zero, zeroTrace := run(true)
			if !reflect.DeepEqual(base, zero) {
				t.Fatalf("zero fault config changed the result:\nbase: %+v\nzero: %+v", base, zero)
			}
			if !reflect.DeepEqual(baseTrace, zeroTrace) {
				t.Fatal("zero fault config changed the observation stream")
			}
		})
	}
}

// TestDropRecovery: with transient broadcast drops injected, every
// kernel must still complete with correspondent caches, the same
// committed work, and the same architectural results as the fault-free
// run — the drops are detected by BSHR timeout and repaired by directed
// retries, never silently corrupting anything.
func TestDropRecovery(t *testing.T) {
	for _, k := range faultKernels {
		t.Run(k.name, func(t *testing.T) {
			clean := buildMachine(t, k.src, 2, nil)
			cleanRes := mustRunMachine(t, clean)

			m := buildMachine(t, k.src, 2, func(c *Config) {
				c.Fault = fault.Config{
					Seed:               11,
					DropRate:           k.dropRate,
					RetryTimeoutCycles: 1_000,
					MaxRetries:         4,
				}
			})
			r := mustRunMachine(t, m)
			if r.Fault == nil {
				t.Fatal("fault stats missing")
			}
			if r.Fault.InjectedDrops == 0 {
				t.Fatal("no drops injected (rate/seed too tame for this kernel)")
			}
			if r.Fault.Retries == 0 || r.Fault.RetriesServed == 0 {
				t.Fatalf("drops were not repaired by retries: %+v", r.Fault)
			}
			if r.Fault.DetectedDrops == 0 {
				t.Fatalf("no injected drop was credited as detected: %+v", r.Fault)
			}
			if r.Instructions != cleanRes.Instructions {
				t.Fatalf("committed work changed: %d vs clean %d", r.Instructions, cleanRes.Instructions)
			}
			if got, want := archState(t, m), archState(t, clean); got != want {
				t.Fatalf("architectural results corrupted: %v vs clean %v", got, want)
			}
			if r.Fault.MeanDetectLatency() <= 0 {
				t.Fatalf("detection latency not measured: %+v", r.Fault)
			}
		})
	}
}

// TestFaultDeterministicAndSkipInvariant: a seeded faulty run must be
// bit-reproducible, and bit-identical between the cycle-skipping and
// polled schedulers (timeouts and the death cycle are skip barriers).
func TestFaultDeterministicAndSkipInvariant(t *testing.T) {
	cfg := fault.Config{
		Seed:               99,
		DropRate:           0.03,
		DelayRate:          0.05,
		DelayMaxCycles:     300,
		RetryTimeoutCycles: 1_500,
		MaxRetries:         4,
	}
	run := func(noSkip bool) Result {
		m := buildMachine(t, streamSum, 4, func(c *Config) {
			c.Fault = cfg
			c.Core.NoCycleSkip = noSkip
		})
		return mustRunMachine(t, m)
	}
	a, b, polled := run(false), run(false), run(true)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
	if !reflect.DeepEqual(a, polled) {
		t.Fatalf("cycle skipping changed a faulty run:\nskip:   %+v\npolled: %+v", a, polled)
	}
	if a.Fault.InjectedDrops == 0 || a.Fault.InjectedDelays == 0 {
		t.Fatalf("expected both drops and delays: %+v", a.Fault)
	}
}

// TestDelayOnly: bounded delivery delays alone must never require
// detection — the machine absorbs them as ordinary latency.
func TestDelayOnly(t *testing.T) {
	m := buildMachine(t, pointerChase, 2, func(c *Config) {
		c.Fault = fault.Config{Seed: 5, DelayRate: 0.5, DelayMaxCycles: 100}
	})
	r := mustRunMachine(t, m)
	if r.Fault.InjectedDelays == 0 {
		t.Fatal("no delays injected")
	}
	if r.Fault.DelayCycles == 0 {
		t.Fatal("delay cycles not accounted")
	}
}

// TestDeathRecovery: a permanent owner death mid-run must be detected by
// retry exhaustion and recovered by remapping the dead node's pages to
// the successor; the run finishes degraded with uncorrupted results.
func TestDeathRecovery(t *testing.T) {
	clean := buildMachine(t, streamSum, 2, nil)
	cleanRes := mustRunMachine(t, clean)

	m := buildMachine(t, streamSum, 2, func(c *Config) {
		c.Fault = fault.Config{
			Seed:               1,
			Deaths:             []fault.Death{{Node: 1, Cycle: 4_000}},
			Recover:            true,
			RetryTimeoutCycles: 500,
			MaxRetries:         2,
		}
	})
	r, err := m.Run()
	if err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	if !r.CorrespondenceOK {
		t.Fatal("sampled digests from the dead node's live phase must match")
	}
	f := r.Fault
	if f == nil || !f.NodeDied || !f.DeathDetected || !f.Degraded {
		t.Fatalf("death not detected/recovered: %+v", f)
	}
	if f.RemappedPages == 0 || f.SuccessorNode != 0 {
		t.Fatalf("remap missing: %+v", f)
	}
	if f.DeathDetectedAt <= f.DeathCycle {
		t.Fatalf("detection latency impossible: %+v", f)
	}
	if r.Instructions != cleanRes.Instructions {
		t.Fatalf("degraded run committed %d instructions, clean %d", r.Instructions, cleanRes.Instructions)
	}
	if got, want := archState(t, m), archState(t, clean); got != want {
		t.Fatalf("architectural results corrupted: %v vs clean %v", got, want)
	}
}

// TestDeathHalt: with recovery off, an owner death must halt with a
// structured death Report — never a silent wrong answer, never a bare
// watchdog.
func TestDeathHalt(t *testing.T) {
	m := buildMachine(t, streamSum, 2, func(c *Config) {
		c.Fault = fault.Config{
			Seed:               1,
			Deaths:             []fault.Death{{Node: 1, Cycle: 4_000}},
			RetryTimeoutCycles: 500,
			MaxRetries:         2,
		}
	})
	_, err := m.Run()
	var rep *fault.Report
	if !errors.As(err, &rep) {
		t.Fatalf("want *fault.Report, got %v", err)
	}
	if rep.Class != fault.ClassDeath || rep.Node != 1 {
		t.Fatalf("wrong report: %+v", rep)
	}
	if fs := m.FaultStats(); fs == nil || !fs.DeathDetected {
		t.Fatalf("halted run must still expose detection stats: %+v", fs)
	}
}

// TestFingerprintCleanRun: the exchange on a healthy machine produces
// broadcasts and checks but no mismatch, and the run completes with the
// fault-free architectural results (the exchange costs bandwidth, not
// correctness).
func TestFingerprintCleanRun(t *testing.T) {
	m := buildMachine(t, storeHeavy, 2, func(c *Config) {
		c.Fault = fault.Config{Seed: 3, FingerprintInterval: 256}
	})
	r := mustRunMachine(t, m)
	f := r.Fault
	if f.FPBroadcasts == 0 || f.FPChecks == 0 {
		t.Fatalf("exchange never ran: %+v", f)
	}
	if f.FPMismatches != 0 {
		t.Fatalf("false divergence on a healthy run: %+v", f)
	}
}

// TestFlipDetection: a payload corruption is invisible to the protocol
// but must surface as a fingerprint divergence with a structured report.
func TestFlipDetection(t *testing.T) {
	m := buildMachine(t, streamSum, 2, func(c *Config) {
		c.Fault = fault.Config{
			Seed:                21,
			FlipRate:            0.01,
			FingerprintInterval: 128,
		}
	})
	_, err := m.Run()
	var rep *fault.Report
	if !errors.As(err, &rep) {
		t.Fatalf("flip went undetected: err=%v", err)
	}
	if rep.Class != fault.ClassDivergence {
		t.Fatalf("wrong class: %+v", rep)
	}
	fs := m.FaultStats()
	if fs.InjectedFlips == 0 || fs.FPMismatches == 0 {
		t.Fatalf("stats inconsistent with a detected flip: %+v", fs)
	}
}

// TestFlipAttribution: with three voters a single corrupted node is
// outvoted and named in the report (majority attribution), and the
// ground-truth cross-check credits a detected flip with its latency.
func TestFlipAttribution(t *testing.T) {
	m := buildMachine(t, streamSum, 3, func(c *Config) {
		c.Fault = fault.Config{
			Seed:                4,
			FlipRate:            0.002,
			FingerprintInterval: 512,
		}
	})
	_, err := m.Run()
	var rep *fault.Report
	if !errors.As(err, &rep) {
		t.Skipf("seed injected no flip on this kernel: %v", err)
	}
	fs := m.FaultStats()
	if fs.InjectedFlips == 0 {
		t.Fatalf("divergence without injection: %+v", rep)
	}
	if rep.Node >= 0 {
		if fs.DetectedFlips == 0 || fs.MeanDetectLatency() <= 0 {
			t.Fatalf("attributed divergence must credit a detected flip: %+v", fs)
		}
	}
}

// TestDeadlockErrorFormat asserts the enriched watchdog diagnostics:
// the typed error carries per-node pending BSHR tags, interconnect
// queue depth, and last-commit cycles, all rendered in the message.
func TestDeadlockErrorFormat(t *testing.T) {
	m := buildMachine(t, pointerChase, 2, func(c *Config) {
		c.WatchdogCycles = 1 // fires on the first idle stretch
	})
	_, err := m.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want *DeadlockError, got %T: %v", err, err)
	}
	if dl.Cycle == 0 || len(dl.Nodes) != 2 {
		t.Fatalf("bad snapshot: %+v", dl)
	}
	msg := err.Error()
	for _, want := range []string{
		"core: deadlock: no commit progress at cycle",
		"netPending=",
		"node0{committed=",
		"lastCommit=",
		"srcPending=",
		"buffered=",
	} {
		if !strings.Contains(msg, want) {
			t.Fatalf("deadlock message lacks %q:\n%s", want, msg)
		}
	}
	for _, n := range dl.Nodes {
		if n.ID == 0 && n.Committed == 0 {
			t.Fatal("node 0 snapshot empty")
		}
	}
}

// TestCascadeRecovery: an ordered two-death schedule on four nodes must
// be survived death by death — the first dead owner's pages remap to its
// successor and are re-replicated (warm-fill), so the successor's own
// death is again recoverable — finishing degraded on two nodes with the
// fault-free architectural results.
func TestCascadeRecovery(t *testing.T) {
	clean := buildMachine(t, streamSum, 4, nil)
	cleanRes := mustRunMachine(t, clean)

	m := buildMachine(t, streamSum, 4, func(c *Config) {
		c.Fault = fault.Config{
			Seed:                  9,
			Deaths:                []fault.Death{{Node: 1, Cycle: 3_000}, {Node: 2, Cycle: 12_000}},
			Recover:               true,
			RetryTimeoutCycles:    1_000,
			RetryBackoffCapCycles: 1_000,
			MaxRetries:            2,
		}
	})
	r, err := m.Run()
	if err != nil {
		t.Fatalf("cascade run failed: %v", err)
	}
	f := r.Fault
	if f == nil || len(f.Deaths) != 2 {
		t.Fatalf("want 2 per-death records: %+v", f)
	}
	if f.LiveNodes != 2 {
		t.Fatalf("want 2 survivors, got %d", f.LiveNodes)
	}
	for i, d := range f.Deaths {
		if !d.Detected {
			t.Fatalf("death %d undetected: %+v", i, d)
		}
		if d.DetectLatency == 0 || d.DetectedAt != d.Cycle+d.DetectLatency {
			t.Fatalf("death %d latency inconsistent: %+v", i, d)
		}
		if d.RemappedPages == 0 {
			t.Fatalf("death %d moved no pages: %+v", i, d)
		}
		if d.PostDeathIPC <= 0 {
			t.Fatalf("death %d post-death throughput missing: %+v", i, d)
		}
		if d.LiveAfter != 3-i {
			t.Fatalf("death %d wrong survivor count: %+v", i, d)
		}
	}
	// Node 1's pages go to ring successor 2; node 2's death must find the
	// warm replicas pushed after the first remap.
	if f.Deaths[0].SuccessorNode != 2 || f.Deaths[1].SuccessorNode != 3 {
		t.Fatalf("wrong successors: %+v", f.Deaths)
	}
	if f.WarmFillMsgs == 0 || f.WarmFillBytes == 0 {
		t.Fatalf("no re-replication traffic: %+v", f)
	}
	if f.WarmRemaps == 0 {
		t.Fatalf("second remap never hit a warm replica: %+v", f)
	}
	if !r.CorrespondenceOK {
		t.Fatal("correspondence broken by cascade recovery")
	}
	if r.Instructions != cleanRes.Instructions {
		t.Fatalf("committed work changed: %d vs clean %d", r.Instructions, cleanRes.Instructions)
	}
	if got, want := archState(t, m), archState(t, clean); got != want {
		t.Fatalf("architectural results corrupted: %v vs clean %v", got, want)
	}
}

// TestQuorumLoss: a cascade that drains the machine below MinQuorum must
// halt with a structured quorum-loss report at the fatal death's cycle,
// not a watchdog and not a silent answer.
func TestQuorumLoss(t *testing.T) {
	m := buildMachine(t, streamSum, 3, func(c *Config) {
		c.Fault = fault.Config{
			Seed:               9,
			Deaths:             []fault.Death{{Node: 1, Cycle: 3_000}, {Node: 2, Cycle: 12_000}},
			MinQuorum:          2,
			Recover:            true,
			RetryTimeoutCycles: 1_000,
			MaxRetries:         3,
		}
	})
	_, err := m.Run()
	var rep *fault.Report
	if !errors.As(err, &rep) {
		t.Fatalf("want *fault.Report, got %v", err)
	}
	if rep.Class != fault.ClassQuorumLoss || rep.Node != 2 || rep.Cycle != 12_000 {
		t.Fatalf("wrong report: %+v", rep)
	}
	fs := m.FaultStats()
	if fs.LiveNodes != 1 || len(fs.Deaths) != 2 {
		t.Fatalf("stats inconsistent with a quorum loss: %+v", fs)
	}
}

// TestCascadeParallelIdentical: ParallelNodes must never change a
// faulted run's bytes. Run sends every active fault plan to the serial
// loop, so results and observation streams match at any worker count.
func TestCascadeParallelIdentical(t *testing.T) {
	run := func(workers int) (Result, *obs.Trace) {
		trace := obs.NewTrace()
		m := buildMachine(t, streamSum, 4, func(c *Config) {
			c.Observer = trace
			c.SampleInterval = 500
			c.ParallelNodes = workers
			c.Fault = fault.Config{
				Seed:                9,
				Deaths:              []fault.Death{{Node: 1, Cycle: 3_000}, {Node: 2, Cycle: 12_000}},
				Recover:             true,
				DropRate:            0.01,
				FingerprintInterval: 2_048,
				RetryTimeoutCycles:  1_000,
				MaxRetries:          4,
			}
		})
		return mustRunMachine(t, m), trace
	}
	serial, serialTrace := run(1)
	for _, workers := range []int{2, 4} {
		par, parTrace := run(workers)
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("parallel-%d result diverged:\nserial: %+v\npar:    %+v", workers, serial, par)
		}
		if !reflect.DeepEqual(serialTrace, parTrace) {
			t.Fatalf("parallel-%d observation stream diverged", workers)
		}
	}
}

// TestCascade64Mesh is the acceptance-scale cascade: three sequential
// owner deaths on a 64-node mesh must complete degraded with the same
// committed work and architectural results as the fault-free machine,
// and setting ParallelNodes to 4 must not change a byte of the result
// (fault runs always take the serial loop).
func TestCascade64Mesh(t *testing.T) {
	const nodes = 64
	mesh := func(c *Config) { c.Topology.Kind = bus.TopoMesh }
	clean := buildMachine(t, streamSum, nodes, mesh)
	cleanRes := mustRunMachine(t, clean)
	if cleanRes.Cycles <= 12_000 {
		t.Fatalf("clean run too short (%d cycles) for the death schedule", cleanRes.Cycles)
	}

	run := func(workers int) (*Machine, Result) {
		m := buildMachine(t, streamSum, nodes, func(c *Config) {
			mesh(c)
			c.ParallelNodes = workers
			c.Fault = fault.Config{
				Seed: 5,
				Deaths: []fault.Death{
					{Node: 1, Cycle: 3_000},
					{Node: 2, Cycle: 7_000},
					{Node: 3, Cycle: 11_000},
				},
				Recover:               true,
				RetryTimeoutCycles:    2_000,
				RetryBackoffCapCycles: 2_000,
				MaxRetries:            6,
			}
		})
		return m, mustRunMachine(t, m)
	}

	m, r := run(1)
	if r.Fault == nil || len(r.Fault.Deaths) != 3 {
		t.Fatalf("want 3 landed deaths, got %+v", r.Fault)
	}
	if r.Fault.LiveNodes != nodes-3 {
		t.Fatalf("live nodes = %d, want %d", r.Fault.LiveNodes, nodes-3)
	}
	if r.Instructions != cleanRes.Instructions {
		t.Fatalf("committed work changed: %d vs clean %d", r.Instructions, cleanRes.Instructions)
	}
	if got, want := archState(t, m), archState(t, clean); got != want {
		t.Fatalf("architectural state diverged: %v vs clean %v", got, want)
	}

	_, par := run(4)
	if !reflect.DeepEqual(r, par) {
		t.Fatalf("parallel-4 cascade diverged:\nserial: %+v\npar:    %+v", r, par)
	}
}
