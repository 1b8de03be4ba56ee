package core

import (
	"reflect"
	"strings"
	"testing"

	"github.com/wisc-arch/datascalar/internal/asm"
	"github.com/wisc-arch/datascalar/internal/mem"
	"github.com/wisc-arch/datascalar/internal/obs"
)

// privateReduction sums blocks of an array inside PRIVB/PRIVE regions —
// the paper's "private computation" — then a shared pass reads the
// per-block results. Each region names its block's base address, so the
// block's owner executes it and everyone else skips it.
const privateReduction = `
        .data
blocks: .space 65536             # 8 pages of data, round-robin distributed
        .space 288
sums:   .space 1024              # per-block results (shared)
        .text
        # init blocks with a counter pattern
        la   r1, blocks
        li   r2, 8192
        li   r3, 1
init:   sd   r3, 0(r1)
        addi r3, r3, 1
        addi r1, r1, 8
        addi r2, r2, -1
        bne  r2, zero, init

bench_main:
        # one region per 8 KB block: sum its 1024 words privately
        la   r10, blocks
        la   r11, sums
        li   r12, 8              # blocks
blk:    privb 0(r10)             # region owner = owner of this block
        li   r2, 1024
        li   r3, 0
        mov  r1, r10
red:    ld   r4, 0(r1)
        add  r3, r3, r4
        addi r1, r1, 8
        addi r2, r2, -1
        bne  r2, zero, red
        sd   r3, 0(r11)          # private result store
        prive
        addi r10, r10, 8192
        addi r11, r11, 8
        addi r12, r12, -1
        bne  r12, zero, blk

        # shared pass: total the per-block results (ordinary ESP)
        la   r11, sums
        li   r12, 8
        li   r20, 0
tot:    ld   r4, 0(r11)
        add  r20, r20, r4
        addi r11, r11, 8
        addi r12, r12, -1
        bne  r12, zero, tot
        halt
`

func runResultComm(t *testing.T, nodes int, enable bool) (Result, *Machine) {
	t.Helper()
	return runResultCommWith(t, nodes, func(c *Config) { c.ResultComm = enable })
}

// runResultCommWith runs privateReduction on an n-node machine whose
// configuration mut adjusts.
func runResultCommWith(t *testing.T, nodes int, mut func(*Config)) (Result, *Machine) {
	t.Helper()
	p, err := asm.Assemble("rc", privateReduction)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := mem.Partition{NumNodes: nodes, BlockPages: 1, ReplicateText: true}.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(nodes)
	cfg.WatchdogCycles = 500_000
	cfg.FastForwardPC = p.Labels["bench_main"]
	mut(&cfg)
	m, err := NewMachine(cfg, p, pt)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatalf("resultComm=%v parallel=%d: %v", cfg.ResultComm, cfg.ParallelNodes, err)
	}
	if !r.CorrespondenceOK {
		t.Fatalf("resultComm=%v parallel=%d: correspondence violated", cfg.ResultComm, cfg.ParallelNodes)
	}
	return r, m
}

func TestResultCommFunctionalEquality(t *testing.T) {
	// The grand total is sum(1..8192) regardless of execution model.
	want := uint64(8192 * 8193 / 2)
	for _, enable := range []bool{false, true} {
		_, m := runResultComm(t, 2, enable)
		if got := m.Emu().Reg(20); got != want {
			t.Fatalf("resultComm=%v: total = %d, want %d", enable, got, want)
		}
		checkStreamConsumed(t, m)
	}
}

func TestResultCommEliminatesOperandBroadcasts(t *testing.T) {
	off, _ := runResultComm(t, 2, false)
	on, _ := runResultComm(t, 2, true)

	offB := off.BusStats.Messages.Value()
	onB := on.BusStats.Messages.Value()
	// With regions private, the block operand loads (8 K words = 2048
	// lines) are never broadcast; only the tiny shared result pass is.
	if onB*4 > offB {
		t.Fatalf("broadcasts with result comm = %d, without = %d; want >= 4x reduction", onB, offB)
	}
	if on.Cycles >= off.Cycles {
		t.Fatalf("result comm slower: %d cycles vs %d", on.Cycles, off.Cycles)
	}
}

func TestResultCommSkipsRemoteRegions(t *testing.T) {
	r, _ := runResultComm(t, 2, true)
	var skipped, privLoads, privStores uint64
	for _, ns := range r.Nodes {
		skipped += ns.SkippedInstr.Value()
		privLoads += ns.PrivateLoads.Value()
		privStores += ns.PrivateStores.Value()
	}
	if skipped == 0 {
		t.Fatal("no instructions skipped despite remote private regions")
	}
	if privLoads == 0 || privStores == 0 {
		t.Fatalf("private accesses not used: loads=%d stores=%d", privLoads, privStores)
	}
	// Each node executes only its own blocks: committed counts differ,
	// and the sum of (committed + skipped) equals the full stream length
	// at every node.
	total0 := r.Core[0].Committed + r.Nodes[0].SkippedInstr.Value()
	total1 := r.Core[1].Committed + r.Nodes[1].SkippedInstr.Value()
	if total0 != total1 {
		t.Fatalf("stream accounting differs: %d vs %d", total0, total1)
	}
	if r.Core[0].Committed == total0 {
		t.Fatal("node 0 skipped nothing")
	}
}

func TestResultCommDisabledMarkersInert(t *testing.T) {
	// With ResultComm off, the markers pass through as 1-cycle NOPs and
	// every node commits every instruction.
	r, _ := runResultComm(t, 2, false)
	if r.Core[0].Committed != r.Core[1].Committed {
		t.Fatal("inert markers changed per-node commit counts")
	}
	for _, ns := range r.Nodes {
		if ns.SkippedInstr.Value() != 0 || ns.PrivateLoads.Value() != 0 {
			t.Fatal("private machinery active with ResultComm off")
		}
	}
}

func TestResultCommFourNodes(t *testing.T) {
	r, m := runResultComm(t, 4, true)
	want := uint64(8192 * 8193 / 2)
	if got := m.Emu().Reg(20); got != want {
		t.Fatalf("total = %d", got)
	}
	checkStreamConsumed(t, m)
	if !r.CorrespondenceOK {
		t.Fatal("correspondence violated")
	}
}

// TestResultCommParallelBitIdentical: result communication under the
// parallel engine. Owners execute private regions while the other nodes
// drain them in one Next call each, so the nodes' stream positions
// spread by whole region bodies, and the coordinator's pre-fill must
// cover every drain. The result and the observer stream must match the
// serial loop's exactly.
func TestResultCommParallelBitIdentical(t *testing.T) {
	for _, nodes := range []int{2, 4} {
		run := func(workers int) (Result, *obs.Trace) {
			trace := obs.NewTrace()
			r, m := runResultCommWith(t, nodes, func(c *Config) {
				c.ResultComm = true
				c.ParallelNodes = workers
				c.Observer = trace
				c.SampleInterval = 500
			})
			checkStreamConsumed(t, m)
			return r, trace
		}
		serial, serialTrace := run(1)
		for _, workers := range []int{2, 4} {
			par, parTrace := run(workers)
			if !reflect.DeepEqual(serial, par) {
				t.Fatalf("%d nodes, parallel-nodes=%d changed the result:\nserial:   %+v\nparallel: %+v",
					nodes, workers, serial, par)
			}
			if !reflect.DeepEqual(serialTrace, parTrace) {
				t.Fatalf("%d nodes, parallel-nodes=%d changed the observer stream", nodes, workers)
			}
		}
	}
}

// TestResultCommUnmappedRegion: a PRIVB naming an address outside the
// page table has no owner to delegate the region to. The run ends with
// an error naming the node and the address, the same one at any
// ParallelNodes, instead of panicking in the page table.
func TestResultCommUnmappedRegion(t *testing.T) {
	p, err := asm.Assemble("rc-unmapped", `
        .text
        li   r1, 0x7000000
        privb 0(r1)
        addi r2, r2, 1
        prive
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := mem.Partition{NumNodes: 2, BlockPages: 1, ReplicateText: true}.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	const want = "core: node 0: private region at unmapped address 0x7000000"
	for _, workers := range []int{1, 2} {
		cfg := DefaultConfig(2)
		cfg.ResultComm = true
		cfg.ParallelNodes = workers
		m, err := NewMachine(cfg, p, pt)
		if err != nil {
			t.Fatal(err)
		}
		_, err = m.Run()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("ParallelNodes=%d: Run error = %v, want %q", workers, err, want)
		}
	}
}
