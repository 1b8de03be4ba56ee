package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/wisc-arch/datascalar/internal/asm"
	"github.com/wisc-arch/datascalar/internal/bus"
	"github.com/wisc-arch/datascalar/internal/fault"
	"github.com/wisc-arch/datascalar/internal/mem"
	"github.com/wisc-arch/datascalar/internal/stats"
)

// The protocol fuzzer: random straight-line memory programs run under a
// deliberately tiny, conflict-prone cache so that lines bounce in and
// out between issue and commit — the regime that produces false hits,
// false misses, reparative broadcasts, and absorb traffic. Every program
// must complete (no protocol deadlock), keep the caches correspondent,
// and leave identical architectural state at every node.

// randomProgram emits a straight-line program of n memory operations over
// `pages` data pages, with register-computed addresses, occasional
// read-modify-write chains, and (when privRegions) private reduction
// regions.
func randomProgram(rng *stats.RNG, n, pages int, privRegions bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "        .data\narea:   .space %d\n        .text\n", pages*8192)
	fmt.Fprintf(&b, "        la   r1, area\n        li   r9, 1\nbench_main:\n")
	inRegion := false
	for i := 0; i < n; i++ {
		// Addresses constrained to the area, 8-aligned, biased toward a
		// small set of conflicting lines.
		var off int
		if rng.Intn(3) == 0 {
			off = rng.Intn(pages*8192/8) * 8 // anywhere
		} else {
			off = (rng.Intn(16)*512 + rng.Intn(4)*8) % (pages * 8192) // conflict-prone
		}
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // load
			fmt.Fprintf(&b, "        li   r2, %d\n", off)
			fmt.Fprintf(&b, "        add  r3, r1, r2\n")
			fmt.Fprintf(&b, "        ld   r4, 0(r3)\n")
			fmt.Fprintf(&b, "        add  r9, r9, r4\n")
		case 4, 5, 6: // store
			fmt.Fprintf(&b, "        li   r2, %d\n", off)
			fmt.Fprintf(&b, "        add  r3, r1, r2\n")
			fmt.Fprintf(&b, "        sd   r9, 0(r3)\n")
		case 7: // read-modify-write (load feeds store)
			fmt.Fprintf(&b, "        li   r2, %d\n", off)
			fmt.Fprintf(&b, "        add  r3, r1, r2\n")
			fmt.Fprintf(&b, "        ld   r4, 0(r3)\n")
			fmt.Fprintf(&b, "        addi r4, r4, 7\n")
			fmt.Fprintf(&b, "        sd   r4, 0(r3)\n")
		case 8: // dependent pointer-ish access: address derived from data
			fmt.Fprintf(&b, "        li   r2, %d\n", off)
			fmt.Fprintf(&b, "        add  r3, r1, r2\n")
			fmt.Fprintf(&b, "        ld   r4, 0(r3)\n")
			fmt.Fprintf(&b, "        andi r4, r4, %d\n", pages*8192-8)
			fmt.Fprintf(&b, "        andi r4, r4, -8\n")
			fmt.Fprintf(&b, "        add  r3, r1, r4\n")
			fmt.Fprintf(&b, "        ld   r5, 0(r3)\n")
			fmt.Fprintf(&b, "        add  r9, r9, r5\n")
		case 9:
			if privRegions && !inRegion && rng.Intn(2) == 0 {
				fmt.Fprintf(&b, "        li   r2, %d\n", off)
				fmt.Fprintf(&b, "        add  r3, r1, r2\n")
				fmt.Fprintf(&b, "        privb 0(r3)\n")
				inRegion = true
			} else if inRegion {
				fmt.Fprintf(&b, "        prive\n")
				inRegion = false
			} else {
				fmt.Fprintf(&b, "        nop\n")
			}
		}
	}
	if inRegion {
		fmt.Fprintf(&b, "        prive\n")
	}
	fmt.Fprintf(&b, "        halt\n")
	return b.String()
}

func fuzzOnce(t *testing.T, seed uint64, nodes int, privRegions, resultComm bool) {
	t.Helper()
	rng := stats.NewRNG(seed)
	src := randomProgram(rng, 120, 4, privRegions)
	p, err := asm.Assemble(fmt.Sprintf("fuzz-%d", seed), src)
	if err != nil {
		t.Fatalf("seed %d: assemble: %v", seed, err)
	}
	pt, err := mem.Partition{NumNodes: nodes, BlockPages: 1, ReplicateText: true}.Build(p)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	cfg := DefaultConfig(nodes)
	cfg.L1.SizeBytes = 512 // conflict-prone: stress the protocol
	cfg.WatchdogCycles = 300_000
	cfg.DigestInterval = 8 // dense correspondence sampling
	cfg.ResultComm = resultComm
	m, err := NewMachine(cfg, p, pt)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatalf("seed %d (nodes=%d priv=%v rc=%v): %v", seed, nodes, privRegions, resultComm, err)
	}
	if !r.CorrespondenceOK {
		t.Fatalf("seed %d: correspondence violated: %s\nprogram:\n%s",
			seed, m.CorrespondenceReport(), src)
	}
	// Architectural state identical across nodes.
	ref := m.NodeEmu(0)
	for i := 1; i < nodes; i++ {
		em := m.NodeEmu(i)
		for reg := uint8(1); reg < 32; reg++ {
			if em.Reg(reg) != ref.Reg(reg) {
				t.Fatalf("seed %d: node %d r%d = %d, node 0 has %d",
					seed, i, reg, em.Reg(reg), ref.Reg(reg))
			}
		}
	}
}

func TestProtocolFuzz(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		fuzzOnce(t, seed, 2, false, false)
	}
}

func TestProtocolFuzzThreeNodes(t *testing.T) {
	// Odd node counts exercise asymmetric ownership splits.
	for seed := uint64(100); seed <= 112; seed++ {
		fuzzOnce(t, seed, 3, false, false)
	}
}

func TestProtocolFuzzWithRegions(t *testing.T) {
	for seed := uint64(200); seed <= 215; seed++ {
		fuzzOnce(t, seed, 2, true, true)
	}
}

func TestProtocolFuzzRegionsInert(t *testing.T) {
	// The same region-bearing programs with result communication off.
	for seed := uint64(200); seed <= 210; seed++ {
		fuzzOnce(t, seed, 2, true, false)
	}
}

func TestProtocolFuzzFourNodesTinyBus(t *testing.T) {
	// A slow, narrow bus maximizes in-flight skew between nodes.
	for seed := uint64(300); seed <= 308; seed++ {
		rng := stats.NewRNG(seed)
		src := randomProgram(rng, 100, 4, false)
		p, err := asm.Assemble("fuzz", src)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := mem.Partition{NumNodes: 4, BlockPages: 1, ReplicateText: true}.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(4)
		cfg.L1.SizeBytes = 512
		cfg.Topology.Bus.WidthBytes = 2
		cfg.Topology.Bus.ClockDivisor = 8
		cfg.WatchdogCycles = 500_000
		cfg.DigestInterval = 8
		m, err := NewMachine(cfg, p, pt)
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !r.CorrespondenceOK {
			t.Fatalf("seed %d: correspondence violated", seed)
		}
	}
}

func TestProtocolFuzzOnRing(t *testing.T) {
	// The correspondence protocol must hold regardless of interconnect:
	// on a ring, broadcasts reach different nodes at different cycles,
	// widening the issue-time divergence between nodes.
	for seed := uint64(400); seed <= 412; seed++ {
		rng := stats.NewRNG(seed)
		src := randomProgram(rng, 100, 4, false)
		p, err := asm.Assemble("fuzz", src)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := mem.Partition{NumNodes: 3, BlockPages: 1, ReplicateText: true}.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(3)
		cfg.L1.SizeBytes = 512
		cfg.Topology.Kind = bus.TopoRing
		cfg.WatchdogCycles = 500_000
		cfg.DigestInterval = 8
		m, err := NewMachine(cfg, p, pt)
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !r.CorrespondenceOK {
			t.Fatalf("seed %d: correspondence violated on ring: %s", seed, m.CorrespondenceReport())
		}
	}
}

// fuzzDeathSchedule derives a random ordered multi-death schedule:
// distinct nodes, nonzero spaced cycles, and always at least one
// survivor (running below a configured quorum is still possible — that
// is a legal, structured outcome).
func fuzzDeathSchedule(rng *stats.RNG, nodes int) []fault.Death {
	maxDeaths := nodes - 1
	if maxDeaths > 3 {
		maxDeaths = 3
	}
	k := 1 + rng.Intn(maxDeaths)
	perm := rng.Perm(nodes)
	deaths := make([]fault.Death, k)
	cycle := uint64(1_000 + rng.Intn(8_000))
	for i := range deaths {
		deaths[i] = fault.Death{Node: perm[i], Cycle: cycle}
		cycle += uint64(2_000 + rng.Intn(8_000))
	}
	return deaths
}

// fuzzFaultConfig derives a random-but-valid fault plan from the fuzzer
// RNG: any mix of drops, delays, flips (with or without the fingerprint
// exchange that could catch them), and a mid-run death — a single one
// or an ordered multi-death schedule.
func fuzzFaultConfig(rng *stats.RNG, nodes int) fault.Config {
	fc := fault.Config{
		Seed:               rng.Uint64(),
		RetryTimeoutCycles: 500 + uint64(rng.Intn(1500)),
		MaxRetries:         2 + rng.Intn(3),
	}
	if rng.Intn(2) == 0 {
		fc.DropRate = float64(rng.Intn(8)) / 100
	}
	if rng.Intn(2) == 0 {
		fc.DelayRate = float64(rng.Intn(20)) / 100
		fc.DelayMaxCycles = uint64(1 + rng.Intn(400))
	}
	if rng.Intn(3) == 0 {
		fc.FlipRate = float64(rng.Intn(3)) / 100
	}
	if rng.Intn(2) == 0 {
		fc.FingerprintInterval = uint64(64 << rng.Intn(4))
	}
	switch rng.Intn(6) {
	case 0, 1: // single death
		node := rng.Intn(nodes)
		fc.Deaths = []fault.Death{{Node: node, Cycle: uint64(1_000 + rng.Intn(20_000))}}
		fc.Recover = rng.Intn(2) == 0
	case 2: // ordered multi-death schedule
		fc.Deaths = fuzzDeathSchedule(rng, nodes)
		fc.Recover = rng.Intn(2) == 0
		if rng.Intn(2) == 0 {
			fc.MinQuorum = 1 + rng.Intn(nodes)
		}
	}
	return fc
}

// TestProtocolFuzzWithFaults runs random programs under random fault
// plans. Every run must terminate with one of exactly three outcomes —
// clean completion, a structured *fault.Report, or a *DeadlockError —
// never a panic or livelock, and the same seed must reproduce the same
// outcome bit-for-bit. On clean completion the caches must stay
// correspondent and all live nodes must agree architecturally (injected
// faults may cost cycles and retries, never answers).
func TestProtocolFuzzWithFaults(t *testing.T) {
	for seed := uint64(600); seed <= 640; seed++ {
		rng := stats.NewRNG(seed)
		nodes := 2 + rng.Intn(2)
		src := randomProgram(rng, 100, 4, false)
		fc := fuzzFaultConfig(rng, nodes)
		p, err := asm.Assemble("fuzz-fault", src)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := mem.Partition{NumNodes: nodes, BlockPages: 1, ReplicateText: true}.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		run := func() (*Machine, Result, error) {
			cfg := DefaultConfig(nodes)
			cfg.L1.SizeBytes = 512
			cfg.WatchdogCycles = 2_000_000
			cfg.DigestInterval = 8
			cfg.Fault = fc
			m, err := NewMachine(cfg, p, pt)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			r, err := m.Run()
			return m, r, err
		}
		m, r, err := run()
		if err != nil {
			var rep *fault.Report
			var dl *DeadlockError
			if !errors.As(err, &rep) && !errors.As(err, &dl) {
				t.Fatalf("seed %d: unstructured failure %T: %v\nfault plan: %+v", seed, err, err, fc)
			}
		} else {
			if !r.CorrespondenceOK {
				t.Fatalf("seed %d: correspondence violated under faults: %s\nfault plan: %+v",
					seed, m.CorrespondenceReport(), fc)
			}
			ref := -1
			for i := 0; i < nodes; i++ {
				if m.nodeDead(i) {
					continue
				}
				if ref < 0 {
					ref = i
					continue
				}
				for reg := uint8(1); reg < 32; reg++ {
					if m.NodeEmu(i).Reg(reg) != m.NodeEmu(ref).Reg(reg) {
						t.Fatalf("seed %d: live nodes diverged: node %d r%d = %d, node %d has %d\nfault plan: %+v",
							seed, i, reg, m.NodeEmu(i).Reg(reg), ref, m.NodeEmu(ref).Reg(reg), fc)
					}
				}
			}
		}
		// Same seed, same outcome — the plan must be deterministic.
		_, r2, err2 := run()
		if (err == nil) != (err2 == nil) {
			t.Fatalf("seed %d: outcome flipped between runs: %v vs %v", seed, err, err2)
		}
		if err != nil {
			if err.Error() != err2.Error() {
				t.Fatalf("seed %d: failure not reproducible:\n%v\n%v", seed, err, err2)
			}
		} else if !reflect.DeepEqual(r, r2) {
			t.Fatalf("seed %d: result not reproducible:\n%+v\n%+v", seed, r, r2)
		}
	}
}

// TestProtocolFuzzMultiDeathTopologies runs random programs under
// random ordered multi-death schedules on all four interconnects. Every
// run must terminate in exactly one of three outcomes — clean
// completion, a structured *fault.Report, or a *DeadlockError — with
// the same seed reproducing the same outcome bit-for-bit, and every run
// that completes must leave its survivors with the fault-free
// architectural state: deaths may cost cycles, never answers.
func TestProtocolFuzzMultiDeathTopologies(t *testing.T) {
	for ti, topo := range []bus.TopologyKind{bus.TopoBus, bus.TopoRing, bus.TopoMesh, bus.TopoTorus} {
		topo := topo
		for s := 0; s < 6; s++ {
			seed := uint64(700 + 20*ti + s)
			rng := stats.NewRNG(seed)
			nodes := 3 + rng.Intn(2)
			src := randomProgram(rng, 100, 4, false)
			fc := fault.Config{
				Seed:                  rng.Uint64(),
				Deaths:                fuzzDeathSchedule(rng, nodes),
				Recover:               rng.Intn(3) > 0, // mostly recovering plans
				RetryTimeoutCycles:    500 + uint64(rng.Intn(1500)),
				RetryBackoffCapCycles: 2_000,
				MaxRetries:            2 + rng.Intn(3),
			}
			if rng.Intn(3) == 0 {
				fc.MinQuorum = 1 + rng.Intn(nodes)
			}
			p, err := asm.Assemble("fuzz-cascade", src)
			if err != nil {
				t.Fatal(err)
			}
			pt, err := mem.Partition{NumNodes: nodes, BlockPages: 1, ReplicateText: true}.Build(p)
			if err != nil {
				t.Fatal(err)
			}
			run := func(f fault.Config) (*Machine, Result, error) {
				cfg := DefaultConfig(nodes)
				cfg.L1.SizeBytes = 512
				cfg.Topology.Kind = topo
				cfg.WatchdogCycles = 2_000_000
				cfg.DigestInterval = 8
				cfg.Fault = f
				m, err := NewMachine(cfg, p, pt)
				if err != nil {
					t.Fatalf("%s seed %d: %v", topo, seed, err)
				}
				r, err := m.Run()
				return m, r, err
			}

			clean, _, err := run(fault.Config{})
			if err != nil {
				t.Fatalf("%s seed %d: fault-free run failed: %v", topo, seed, err)
			}

			m, r, err := run(fc)
			if err != nil {
				var rep *fault.Report
				var dl *DeadlockError
				if !errors.As(err, &rep) && !errors.As(err, &dl) {
					t.Fatalf("%s seed %d: unstructured failure %T: %v\nfault plan: %+v", topo, seed, err, err, fc)
				}
			} else {
				if !r.CorrespondenceOK {
					t.Fatalf("%s seed %d: correspondence violated: %s\nfault plan: %+v",
						topo, seed, m.CorrespondenceReport(), fc)
				}
				for i := 0; i < nodes; i++ {
					if m.nodeDead(i) {
						continue
					}
					for reg := uint8(1); reg < 32; reg++ {
						if got, want := m.NodeEmu(i).Reg(reg), clean.NodeEmu(0).Reg(reg); got != want {
							t.Fatalf("%s seed %d: survivor %d r%d = %d, fault-free run has %d\nfault plan: %+v",
								topo, seed, i, reg, got, want, fc)
						}
					}
				}
			}

			// Same seed, same outcome — bit-reproducible on every topology.
			_, r2, err2 := run(fc)
			if (err == nil) != (err2 == nil) {
				t.Fatalf("%s seed %d: outcome flipped between runs: %v vs %v", topo, seed, err, err2)
			}
			if err != nil {
				if err.Error() != err2.Error() {
					t.Fatalf("%s seed %d: failure not reproducible:\n%v\n%v", topo, seed, err, err2)
				}
			} else if !reflect.DeepEqual(r, r2) {
				t.Fatalf("%s seed %d: result not reproducible:\n%+v\n%+v", topo, seed, r, r2)
			}
		}
	}
}

func TestProtocolFuzzRegionsOnRing(t *testing.T) {
	for seed := uint64(500); seed <= 508; seed++ {
		rng := stats.NewRNG(seed)
		src := randomProgram(rng, 100, 4, true)
		p, err := asm.Assemble("fuzz", src)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := mem.Partition{NumNodes: 2, BlockPages: 1, ReplicateText: true}.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(2)
		cfg.L1.SizeBytes = 512
		cfg.Topology.Kind = bus.TopoRing
		cfg.ResultComm = true
		cfg.WatchdogCycles = 500_000
		cfg.DigestInterval = 8
		m, err := NewMachine(cfg, p, pt)
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !r.CorrespondenceOK {
			t.Fatalf("seed %d: correspondence violated: %s", seed, m.CorrespondenceReport())
		}
	}
}
