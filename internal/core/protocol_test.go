package core

import (
	"fmt"
	"strings"
	"testing"

	"github.com/wisc-arch/datascalar/internal/asm"
	"github.com/wisc-arch/datascalar/internal/mem"
)

// Protocol-scenario tests: small crafted programs that deterministically
// exercise specific arms of the cache-correspondence protocol and assert
// the corresponding statistics, documenting each mechanism beyond what
// the fuzzer's blanket invariants cover.

// thrashProgram ping-pongs between lines that conflict in a small
// direct-mapped cache while a long-latency dependence keeps many accesses
// in flight — the recipe for false hits (a line present at issue is
// evicted by older commits before the access itself commits).
func thrashProgram() string {
	var b strings.Builder
	b.WriteString(`
        .data
area:   .space 32768
        .text
        la   r1, area
        li   r9, 0
bench_main:
`)
	// Interleave accesses to three conflicting lines (0, 512, 1024 under
	// a 512-byte direct-mapped cache) with occasional far pages.
	offs := []int{0, 512, 1024, 0, 8192, 512, 16384, 1024, 0, 512, 24576, 1024}
	for round := 0; round < 60; round++ {
		for _, off := range offs {
			fmt.Fprintf(&b, "        ld   r4, %d(r1)\n", off)
			fmt.Fprintf(&b, "        add  r9, r9, r4\n")
		}
	}
	b.WriteString("        halt\n")
	return b.String()
}

func runThrash(t *testing.T, nodes int) Result {
	t.Helper()
	p, err := asm.Assemble("thrash", thrashProgram())
	if err != nil {
		t.Fatal(err)
	}
	pt, err := mem.Partition{NumNodes: nodes, BlockPages: 1, ReplicateText: true}.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(nodes)
	cfg.L1.SizeBytes = 512
	cfg.FastForwardPC = p.Labels["bench_main"]
	cfg.WatchdogCycles = 300_000
	m, err := NewMachine(cfg, p, pt)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !r.CorrespondenceOK {
		t.Fatal("correspondence violated")
	}
	return r
}

func TestRepairStatisticsUnderThrash(t *testing.T) {
	r := runThrash(t, 2)
	var late, squashes, merged uint64
	for i, ns := range r.Nodes {
		late += ns.LateBroadcasts.Value()
		merged += ns.MergedMisses.Value()
		squashes += r.BSHR[i].Squashes.Value()
	}
	if merged == 0 {
		t.Error("no merged misses (DCUB sharing never observed)")
	}
	if late == 0 {
		t.Error("no late broadcasts (multi-fill episodes never repaired)")
	}
	if squashes == 0 {
		t.Error("no absorbed broadcasts")
	}
}

// falseHitProgram engineers the issue/commit race behind a false hit:
// X is warmed and committed; a conflicting remote line Y is loaded (slow
// to complete, so it commits late); a second load of X has its address
// gated behind a long multiply chain so it *issues* after X's warm-up
// committed (probe hit) but *commits* after Y's fill evicted X — a
// commit-time miss on an issue-time hit. A back-to-back X pair at the
// start of each round produces false misses (the second folds into the
// first's episode and commit-hits).
func falseHitProgram() string {
	var b strings.Builder
	b.WriteString(`
        .data
area:   .space 32768
        .text
        la   r1, area
        li   r9, 0
        li   r10, 3
bench_main:
        li   r20, 120            # rounds
round:  ld   r4, 0(r1)           # X: miss, fill at commit
        ld   r5, 8(r1)           # X again: folds into the episode (false miss)
        mul  r11, r10, r10       # ~5-mul delay chain (~20 cycles)
        mul  r11, r11, r10
        mul  r11, r11, r10
        mul  r11, r11, r10
        mul  r11, r11, r10
        andi r11, r11, 16        # in {0, 16}: stays within line X
        ld   r6, 8192(r1)        # Y: conflicts with X; remote at node 0
        add  r12, r1, r11
        ld   r7, 0(r12)          # X via delayed address: the false-hit victim
        add  r9, r9, r4
        add  r9, r9, r5
        add  r9, r9, r6
        add  r9, r9, r7
        ld   r8, 16384(r1)       # churn another set to vary timing
        add  r9, r9, r8
        addi r20, r20, -1
        bne  r20, zero, round
        halt
`)
	return b.String()
}

func TestFalseHitAndFalseMissArms(t *testing.T) {
	p, err := asm.Assemble("falsehit", falseHitProgram())
	if err != nil {
		t.Fatal(err)
	}
	pt, err := mem.Partition{NumNodes: 2, BlockPages: 1, ReplicateText: true}.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(2)
	cfg.L1.SizeBytes = 512
	cfg.FastForwardPC = p.Labels["bench_main"]
	cfg.WatchdogCycles = 300_000
	// A small window keeps one round's X loads from attaching to the
	// previous round's DCUB entry: the entry must die for the delayed
	// load to probe the cache (and false-hit) instead of merging.
	cfg.Core.RUUSize = 16
	cfg.Core.LSQSize = 8
	cfg.Core.FwdDist = 8
	m, err := NewMachine(cfg, p, pt)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !r.CorrespondenceOK {
		t.Fatal("correspondence violated")
	}
	var falseHits, falseMisses uint64
	for _, ns := range r.Nodes {
		falseHits += ns.FalseHits.Value()
		falseMisses += ns.FalseMisses.Value()
	}
	if falseHits == 0 {
		t.Error("engineered false-hit race never fired")
	}
	if falseMisses == 0 {
		t.Error("engineered false-miss fold never fired")
	}
	t.Logf("falseHits=%d falseMisses=%d", falseHits, falseMisses)
}

func TestBroadcastFillPairing(t *testing.T) {
	// Conservation at each node: arrivals are consumed by exactly one of
	// match, buffered(-then-hit), or absorb, and every waiting alloc is
	// eventually satisfied (zero waiters at end — otherwise the run
	// would have deadlocked).
	r := runThrash(t, 4)
	for i, b := range r.BSHR {
		consumed := b.Matched.Value() + b.Squashes.Value() + b.Buffered.Value()
		if b.Arrivals.Value() != consumed {
			t.Errorf("node %d: arrivals %d != matched %d + squashed %d + buffered %d",
				i, b.Arrivals.Value(), b.Matched.Value(), b.Squashes.Value(), b.Buffered.Value())
		}
		if b.Allocs.Value() != b.Matched.Value() {
			// Every waiting entry is freed by exactly one matching
			// arrival (none left at completion).
			t.Errorf("node %d: allocs %d != matched %d", i, b.Allocs.Value(), b.Matched.Value())
		}
	}
}

func TestOwnerBroadcastPerFill(t *testing.T) {
	// Across the whole machine, every commit-time fill of a communicated
	// line at a non-owner consumes one broadcast; total broadcasts sent
	// must therefore be >= the per-node maximum of (bufferedHits +
	// matched arrivals).
	r := runThrash(t, 2)
	var sent uint64
	for _, ns := range r.Nodes {
		sent += ns.Broadcasts.Value()
	}
	for i, b := range r.BSHR {
		needed := b.BufferedHits.Value() + b.Matched.Value()
		if needed > sent {
			t.Errorf("node %d consumed %d broadcasts but only %d were sent", i, needed, sent)
		}
	}
	if sent == 0 {
		t.Fatal("no broadcasts at all")
	}
}

func TestDigestSamplingDisabled(t *testing.T) {
	// DigestInterval = 0 must still verify final-state correspondence.
	p, err := asm.Assemble("thrash", thrashProgram())
	if err != nil {
		t.Fatal(err)
	}
	pt, err := mem.Partition{NumNodes: 2, BlockPages: 1, ReplicateText: true}.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(2)
	cfg.DigestInterval = 0
	cfg.FastForwardPC = p.Labels["bench_main"]
	m, err := NewMachine(cfg, p, pt)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !r.CorrespondenceOK {
		t.Fatal("final-state correspondence check failed")
	}
	if m.CorrespondenceReport() != "" {
		t.Fatal("report non-empty for a passing run")
	}
}

// TestCorrespondenceCheckFires: the correspondence check that every
// protocol test relies on must be able to fail. A clean line of a page
// the program never touches is planted in node 1's tags mid-run, while
// streamSum's write pass (write-no-allocate, so no fills) keeps every
// cache empty; timing is unaffected, but node 1's sampled digests
// disagree with node 0's from the next milestone on. The run must report
// CorrespondenceOK false, and the report must name that milestone.
func TestCorrespondenceCheckFires(t *testing.T) {
	m := buildMachine(t, streamSum, 2, nil)
	victim := m.nodes[1]
	now := uint64(0)
	for ; victim.memCommits < 1000; now++ {
		if _, done, err := m.Step(now); done || err != nil {
			t.Fatalf("cycle %d: done=%v err=%v before the corruption point", now, done, err)
		}
	}
	m.now = now
	victim.l1.Fill(0x7ff00000, false)
	iv := m.cfg.DigestInterval
	want := (victim.memCommits/iv + 1) * iv

	r, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if r.CorrespondenceOK {
		t.Fatal("CorrespondenceOK = true with node 1's tags corrupted")
	}
	report := m.CorrespondenceReport()
	if !strings.Contains(report, fmt.Sprintf("first digest mismatch at memCommits=%d", want)) {
		t.Fatalf("report does not name milestone %d:\n%s", want, report)
	}
}
