package traditional

import (
	"testing"

	"github.com/wisc-arch/datascalar/internal/asm"
	"github.com/wisc-arch/datascalar/internal/bus"
	"github.com/wisc-arch/datascalar/internal/mem"
	"github.com/wisc-arch/datascalar/internal/ooo"
	"github.com/wisc-arch/datascalar/internal/prog"
)

const streamSum = `
        .data
arr:    .space 32768
        .text
        la   r1, arr
        li   r2, 4096
        li   r3, 0
        li   r4, 7
loop:   sd   r4, 0(r1)
        addi r1, r1, 8
        addi r2, r2, -1
        bne  r2, zero, loop
        la   r1, arr
        li   r2, 4096
sum:    ld   r5, 0(r1)
        add  r3, r3, r5
        addi r1, r1, 8
        addi r2, r2, -1
        bne  r2, zero, sum
        halt
`

func build(t *testing.T, src string, chips int, mut func(*Config)) *Machine {
	t.Helper()
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := mem.Partition{NumNodes: chips, BlockPages: 1, ReplicateText: true}.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(chips)
	cfg.WatchdogCycles = 500_000
	if mut != nil {
		mut(&cfg)
	}
	m, err := NewMachine(cfg, p, pt)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustRun(t *testing.T, m *Machine) Result {
	t.Helper()
	r, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return r
}

func TestSingleChipAllLocal(t *testing.T) {
	m := build(t, streamSum, 1, nil)
	r := mustRun(t, m)
	if r.BusStats.Messages.Value() != 0 {
		t.Fatalf("single chip used the bus: %d", r.BusStats.Messages.Value())
	}
	if m.Emu().Reg(3) != 7*4096 {
		t.Fatalf("sum = %d", m.Emu().Reg(3))
	}
}

func TestOffChipRequestResponse(t *testing.T) {
	m := build(t, streamSum, 2, nil)
	r := mustRun(t, m)
	s := r.BusStats
	if s.ByKindMsgs[bus.Response].Value() == 0 {
		t.Fatal("no responses on a half-off-chip run")
	}
	// Every read request is answered by exactly one response. (Request
	// kind also carries writes/writebacks, so requests >= responses.)
	if s.ByKindMsgs[bus.Request].Value() < s.ByKindMsgs[bus.Response].Value() {
		t.Fatalf("requests %d < responses %d",
			s.ByKindMsgs[bus.Request].Value(), s.ByKindMsgs[bus.Response].Value())
	}
	if r.Mem.OffChipLoads.Value() == 0 || r.Mem.OnChipMisses.Value() == 0 {
		t.Fatalf("miss mix = %+v", r.Mem)
	}
	if m.Emu().Reg(3) != 7*4096 {
		t.Fatalf("sum = %d", m.Emu().Reg(3))
	}
}

func TestWriteTrafficExists(t *testing.T) {
	// A store sweep over off-chip pages must generate off-chip store
	// traffic — the traffic ESP eliminates.
	src := `
        .data
buf:    .space 32768
        .text
        la   r1, buf
        li   r2, 4096
st:     sd   r2, 0(r1)
        addi r1, r1, 8
        addi r2, r2, -1
        bne  r2, zero, st
        halt
`
	m := build(t, src, 2, nil)
	r := mustRun(t, m)
	if r.Mem.StoresOff.Value() == 0 {
		t.Fatal("no off-chip store traffic")
	}
}

func TestLessOnChipMemoryIsSlower(t *testing.T) {
	// 1/4 on-chip must be no faster than 1/2 on-chip for the same
	// program (more off-chip round trips).
	half := mustRun(t, build(t, streamSum, 2, nil))
	quarter := mustRun(t, build(t, streamSum, 4, nil))
	if quarter.Cycles < half.Cycles {
		t.Fatalf("1/4 on-chip (%d cycles) faster than 1/2 on-chip (%d cycles)",
			quarter.Cycles, half.Cycles)
	}
}

func TestPerfectCacheFastest(t *testing.T) {
	p, err := asm.Assemble("t", streamSum)
	if err != nil {
		t.Fatal(err)
	}
	perfect, err := RunPerfect(ooo.DefaultConfig(), p, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	real := mustRun(t, build(t, streamSum, 2, nil))
	if perfect.IPC <= real.IPC {
		t.Fatalf("perfect IPC %.3f <= real IPC %.3f", perfect.IPC, real.IPC)
	}
}

func TestBusWidthMatters(t *testing.T) {
	wide := mustRun(t, build(t, streamSum, 4, func(c *Config) { c.Topology.Bus.WidthBytes = 32 }))
	narrow := mustRun(t, build(t, streamSum, 4, func(c *Config) { c.Topology.Bus.WidthBytes = 4 }))
	if wide.Cycles >= narrow.Cycles {
		t.Fatalf("wide bus (%d) not faster than narrow (%d)", wide.Cycles, narrow.Cycles)
	}
}

func TestValidation(t *testing.T) {
	p, err := asm.Assemble("t", streamSum)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := mem.Partition{NumNodes: 2, ReplicateText: true}.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(4) // mismatch
	if _, err := NewMachine(cfg, p, pt); err == nil {
		t.Error("chip-count mismatch accepted")
	}
	cfg = DefaultConfig(0)
	if err := cfg.Validate(); err == nil {
		t.Error("zero chips accepted")
	}
}

func TestMaxInstr(t *testing.T) {
	m := build(t, streamSum, 2, func(c *Config) { c.MaxInstr = 300 })
	r := mustRun(t, m)
	if r.Instructions != 300 {
		t.Fatalf("instructions = %d", r.Instructions)
	}
}

func TestReplicatedPagesCountAsOnChip(t *testing.T) {
	p, err := asm.Assemble("t", streamSum)
	if err != nil {
		t.Fatal(err)
	}
	repl := make(map[uint64]bool)
	for _, pg := range p.Pages() {
		if prog.SegmentOf(pg*prog.PageSize) == prog.SegGlobal {
			repl[pg] = true
		}
	}
	pt, err := mem.Partition{NumNodes: 2, ReplicateText: true, ReplicatedPages: repl}.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(2)
	m, err := NewMachine(cfg, p, pt)
	if err != nil {
		t.Fatal(err)
	}
	r := mustRun(t, m)
	if r.Mem.OffChipLoads.Value() != 0 {
		t.Fatalf("replicated pages went off-chip: %d", r.Mem.OffChipLoads.Value())
	}
}

func TestDirtyEvictionWritebacks(t *testing.T) {
	// Load a line (allocate), dirty it with a store hit, then evict it
	// with a conflicting load: the writeback goes off-chip when the line
	// lives in a memory chip and on-chip otherwise.
	p, err := asm.Assemble("wb", `
        .data
a:      .space 32768
        .text
        la   r1, a
        li   r9, 0
bench_main:
        li   r20, 400
loop:   ld   r2, 0(r1)
        sd   r2, 0(r1)
        ld   r3, 512(r1)
        add  r9, r9, r3
        la   r4, a
        sub  r5, r1, r4
        addi r5, r5, 8192
        andi r5, r5, 24576
        add  r1, r4, r5
        addi r20, r20, -1
        bne  r20, zero, loop
        halt
`)
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
	m, err := NewMachine(cfg, p, pt)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Mem.WritebacksOff.Value() == 0 {
		t.Errorf("no off-chip writebacks: %+v", r.Mem)
	}
	if r.Mem.WritebacksOn.Value() == 0 {
		t.Errorf("no on-chip writebacks: %+v", r.Mem)
	}
	if m.Network().NetStats().Messages.Value() == 0 {
		t.Error("network accessor broken")
	}
}

func TestRingOnTraditional(t *testing.T) {
	p, err := asm.Assemble("t", streamSum)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := mem.Partition{NumNodes: 2, BlockPages: 1, ReplicateText: true}.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(2)
	cfg.Topology.Kind = bus.TopoRing
	m, err := NewMachine(cfg, p, pt)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Emu().Reg(3) != 7*4096 {
		t.Fatalf("sum over ring = %d", m.Emu().Reg(3))
	}
	if r.Mem.OffChipLoads.Value() == 0 {
		t.Fatal("nothing crossed the ring")
	}
}

func TestValidateBranches(t *testing.T) {
	bad := DefaultConfig(2)
	bad.L1.SizeBytes = 100
	if err := bad.Validate(); err == nil {
		t.Error("bad L1 accepted")
	}
	bad = DefaultConfig(2)
	bad.DRAM.AccessCycles = 0
	if err := bad.Validate(); err == nil {
		t.Error("bad DRAM accepted")
	}
	bad = DefaultConfig(2)
	bad.Topology.Bus.WidthBytes = 0
	if err := bad.Validate(); err == nil {
		t.Error("bad bus accepted")
	}
	bad = DefaultConfig(2)
	bad.Core.RUUSize = 0
	if err := bad.Validate(); err == nil {
		t.Error("bad core accepted")
	}
	bad = DefaultConfig(2)
	bad.L1HitCycles = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero hit latency accepted")
	}
}

func TestFastForwardErrors(t *testing.T) {
	p, err := asm.Assemble("t", streamSum)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := mem.Partition{NumNodes: 2, BlockPages: 1, ReplicateText: true}.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(2)
	cfg.FastForwardPC = 0xdeadbee8 // never reached
	if _, err := NewMachine(cfg, p, pt); err == nil {
		t.Error("unreachable fast-forward accepted")
	}
	if _, err := RunPerfect(cfg.Core, p, 0, 0xdeadbee8); err == nil {
		t.Error("unreachable perfect fast-forward accepted")
	}
}
