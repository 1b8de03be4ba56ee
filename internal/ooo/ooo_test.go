package ooo

import (
	"errors"
	"testing"

	"github.com/wisc-arch/datascalar/internal/asm"
	"github.com/wisc-arch/datascalar/internal/cache"
	"github.com/wisc-arch/datascalar/internal/emu"
	"github.com/wisc-arch/datascalar/internal/isa"
)

// recordingMem wraps a MemPort and records every call for assertions.
type recordingMem struct {
	inner      MemPort
	issueAddrs []uint64
	commits    []struct {
		store bool
		addr  uint64
	}
}

func (r *recordingMem) IssueLoad(now uint64, tok LoadToken, addr uint64, size int) (uint64, bool) {
	r.issueAddrs = append(r.issueAddrs, addr)
	return r.inner.IssueLoad(now, tok, addr, size)
}
func (r *recordingMem) CommitLoad(now uint64, tok LoadToken, addr uint64, size int) {
	r.commits = append(r.commits, struct {
		store bool
		addr  uint64
	}{false, addr})
	r.inner.CommitLoad(now, tok, addr, size)
}
func (r *recordingMem) CommitStore(now uint64, addr uint64, size int) {
	r.commits = append(r.commits, struct {
		store bool
		addr  uint64
	}{true, addr})
	r.inner.CommitStore(now, addr, size)
}

func coreFor(t *testing.T, src string, mem MemPort, mut func(*Config)) (*Core, *emu.Machine) {
	t.Helper()
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m, err := emu.New(p)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	cfg := DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	return New(cfg, NewEmuSource(m, 0), mem), m
}

func mustRun(t *testing.T, c *Core) uint64 {
	t.Helper()
	cycles, err := Drive(c, 0, c.cfg.NoCycleSkip, 100_000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return cycles
}

func TestIndependentALUThroughput(t *testing.T) {
	// 64 independent LIs + halt: with 8-wide everything, IPC should be
	// well above 4.
	src := "\t.text\n"
	for i := 0; i < 64; i++ {
		src += "\tli r1, 1\n"
	}
	src += "\thalt\n"
	c, _ := coreFor(t, src, PerfectMem{}, nil)
	cycles := mustRun(t, c)
	ipc := float64(c.Committed()) / float64(cycles)
	if ipc < 4 {
		t.Fatalf("independent ALU IPC = %.2f, want >= 4 (cycles=%d committed=%d)",
			ipc, cycles, c.Committed())
	}
}

func TestDependentChainSerializes(t *testing.T) {
	// 64 dependent adds must take at least 64 cycles.
	src := "\t.text\n\tli r1, 0\n"
	for i := 0; i < 64; i++ {
		src += "\taddi r1, r1, 1\n"
	}
	src += "\thalt\n"
	c, m := coreFor(t, src, PerfectMem{}, nil)
	cycles := mustRun(t, c)
	if cycles < 64 {
		t.Fatalf("dependent chain finished in %d cycles", cycles)
	}
	if m.Reg(1) != 64 {
		t.Fatalf("functional result r1 = %d", m.Reg(1))
	}
}

func TestMulDivLatencies(t *testing.T) {
	// A chain of 8 dependent MULs at latency 3 needs >= 24 cycles.
	src := "\t.text\n\tli r1, 1\n\tli r2, 3\n"
	for i := 0; i < 8; i++ {
		src += "\tmul r1, r1, r2\n"
	}
	src += "\thalt\n"
	c, _ := coreFor(t, src, PerfectMem{}, nil)
	cycles := mustRun(t, c)
	if cycles < 24 {
		t.Fatalf("mul chain = %d cycles, want >= 24", cycles)
	}
}

func TestLoadLatencyExposedOnDependentChain(t *testing.T) {
	// Pointer-chase: each load's address depends on the previous load.
	// With 20-cycle memory, 8 chained loads need >= 160 cycles.
	src := `
        .data
p0:     .word p1
p1:     .word p2
p2:     .word p3
p3:     .word p4
p4:     .word p5
p5:     .word p6
p6:     .word p7
p7:     .word p0
        .text
        la   r1, p0
        ld   r1, 0(r1)
        ld   r1, 0(r1)
        ld   r1, 0(r1)
        ld   r1, 0(r1)
        ld   r1, 0(r1)
        ld   r1, 0(r1)
        ld   r1, 0(r1)
        ld   r1, 0(r1)
        halt
`
	c, _ := coreFor(t, src, FixedLatencyMem{Cycles: 20}, nil)
	cycles := mustRun(t, c)
	if cycles < 160 {
		t.Fatalf("chained loads = %d cycles, want >= 160", cycles)
	}

	// Independent loads with the same latency overlap: much faster.
	src2 := `
        .data
arr:    .space 128
        .text
        la   r1, arr
        ld   r2, 0(r1)
        ld   r3, 8(r1)
        ld   r4, 16(r1)
        ld   r5, 24(r1)
        ld   r6, 32(r1)
        ld   r7, 40(r1)
        ld   r8, 48(r1)
        ld   r9, 56(r1)
        halt
`
	c2, _ := coreFor(t, src2, FixedLatencyMem{Cycles: 20}, nil)
	cycles2 := mustRun(t, c2)
	if cycles2 >= 100 {
		t.Fatalf("independent loads = %d cycles, want < 100 (overlap)", cycles2)
	}
}

func TestStoreForwarding(t *testing.T) {
	src := `
        .data
x:      .space 8
        .text
        la   r1, x
        li   r2, 42
        sd   r2, 0(r1)
        ld   r3, 0(r1)
        halt
`
	rec := &recordingMem{inner: FixedLatencyMem{Cycles: 50}}
	c, m := coreFor(t, src, rec, nil)
	cycles := mustRun(t, c)
	if len(rec.issueAddrs) != 0 {
		t.Fatalf("forwarded load issued to memory: %v", rec.issueAddrs)
	}
	if c.Stats().FwdLoads != 1 {
		t.Fatalf("FwdLoads = %d", c.Stats().FwdLoads)
	}
	if cycles > 30 {
		t.Fatalf("forwarded load run took %d cycles (memory is 50)", cycles)
	}
	if m.Reg(3) != 42 {
		t.Fatalf("functional r3 = %d", m.Reg(3))
	}
	// Forwarded load must not reach commit-time memory either.
	for _, cm := range rec.commits {
		if !cm.store {
			t.Fatalf("forwarded load committed to memory: %+v", rec.commits)
		}
	}
}

func TestPartialOverlapNotForwarded(t *testing.T) {
	// 4-byte store, 8-byte load over it: cannot forward, must access
	// memory after the store resolves.
	src := `
        .data
x:      .space 8
        .text
        la   r1, x
        li   r2, 7
        sw   r2, 0(r1)
        ld   r3, 0(r1)
        halt
`
	rec := &recordingMem{inner: FixedLatencyMem{Cycles: 10}}
	c, _ := coreFor(t, src, rec, nil)
	mustRun(t, c)
	if len(rec.issueAddrs) != 1 {
		t.Fatalf("partial-overlap load issues = %v, want one memory access", rec.issueAddrs)
	}
	if c.Stats().FwdLoads != 0 {
		t.Fatal("partial overlap forwarded")
	}
}

func TestForwardDistanceLimit(t *testing.T) {
	// With FwdDist = 2, a store 3+ instructions earlier cannot forward.
	src := `
        .data
x:      .space 8
        .text
        la   r1, x
        li   r2, 9
        sd   r2, 0(r1)
        nop
        nop
        nop
        ld   r3, 0(r1)
        halt
`
	rec := &recordingMem{inner: FixedLatencyMem{Cycles: 5}}
	c, _ := coreFor(t, src, rec, func(cfg *Config) { cfg.FwdDist = 2 })
	mustRun(t, c)
	if c.Stats().FwdLoads != 0 {
		t.Fatal("forwarding crossed the distance limit")
	}
	if len(rec.issueAddrs) != 1 {
		t.Fatalf("issues = %d, want 1", len(rec.issueAddrs))
	}
}

func TestCommitOrderAndAddresses(t *testing.T) {
	src := `
        .data
a:      .space 32
        .text
        la   r1, a
        li   r2, 5
        sd   r2, 0(r1)
        ld   r3, 8(r1)
        sd   r2, 16(r1)
        ld   r4, 24(r1)
        halt
`
	rec := &recordingMem{inner: FixedLatencyMem{Cycles: 3}}
	c, m := coreFor(t, src, rec, nil)
	mustRun(t, c)
	base := m.Program().Labels["a"]
	want := []struct {
		store bool
		addr  uint64
	}{
		{true, base}, {false, base + 8}, {true, base + 16}, {false, base + 24},
	}
	if len(rec.commits) != len(want) {
		t.Fatalf("commits = %+v", rec.commits)
	}
	for i, w := range want {
		if rec.commits[i] != w {
			t.Fatalf("commit %d = %+v, want %+v", i, rec.commits[i], w)
		}
	}
}

// pendingMem leaves every load pending and completes it manually.
type pendingMem struct {
	pending []LoadToken
}

func (p *pendingMem) IssueLoad(_ uint64, tok LoadToken, _ uint64, _ int) (uint64, bool) {
	p.pending = append(p.pending, tok)
	return 0, true
}
func (p *pendingMem) CommitLoad(uint64, LoadToken, uint64, int) {}
func (p *pendingMem) CommitStore(uint64, uint64, int)           {}

func TestPendingLoadCompletion(t *testing.T) {
	src := `
        .data
x:      .word 11
        .text
        la   r1, x
        ld   r2, 0(r1)
        addi r3, r2, 1
        halt
`
	pm := &pendingMem{}
	c, _ := coreFor(t, src, pm, nil)
	now := uint64(0)
	for !c.Done() && now < 10_000 {
		c.Cycle(now)
		// Complete any pending load 7 cycles after we see it.
		for _, tok := range pm.pending {
			c.CompleteLoad(tok, now+7)
		}
		pm.pending = pm.pending[:0]
		now++
	}
	if !c.Done() {
		t.Fatalf("core did not finish; committed %d", c.Committed())
	}
	if c.Stats().PendingLds != 1 {
		t.Fatalf("PendingLds = %d", c.Stats().PendingLds)
	}
}

func TestDuplicateCompletionIgnored(t *testing.T) {
	src := "\t.data\nx:\t.word 1\n\t.text\n\tla r1, x\n\tld r2, 0(r1)\n\thalt\n"
	pm := &pendingMem{}
	c, _ := coreFor(t, src, pm, nil)
	now := uint64(0)
	completed := false
	for !c.Done() && now < 1000 {
		c.Cycle(now)
		if len(pm.pending) > 0 && !completed {
			tok := pm.pending[0]
			c.CompleteLoad(tok, now+3)
			c.CompleteLoad(tok, now+5) // duplicate must be harmless
			completed = true
		}
		now++
	}
	if !c.Done() {
		t.Fatal("did not finish")
	}
}

func TestSmallWindowStalls(t *testing.T) {
	src := "\t.text\n"
	for i := 0; i < 32; i++ {
		src += "\tli r1, 1\n"
	}
	src += "\thalt\n"
	c, _ := coreFor(t, src, PerfectMem{}, func(cfg *Config) {
		cfg.RUUSize = 4
		cfg.LSQSize = 2
	})
	mustRun(t, c)
	if c.Stats().WindowFullC == 0 {
		t.Fatal("tiny window never filled")
	}
}

func TestLSQFullStalls(t *testing.T) {
	src := "\t.data\nbuf: .space 512\n\t.text\n\tla r1, buf\n"
	for i := 0; i < 32; i++ {
		src += "\tld r2, 0(r1)\n"
	}
	src += "\thalt\n"
	c, _ := coreFor(t, src, FixedLatencyMem{Cycles: 40}, func(cfg *Config) {
		cfg.LSQSize = 2
	})
	mustRun(t, c)
	if c.Stats().LSQFullC == 0 {
		t.Fatal("tiny LSQ never filled")
	}
}

func TestStatsAndDone(t *testing.T) {
	src := `
        .data
x:      .space 16
        .text
        la   r1, x
        ld   r2, 0(r1)
        sd   r2, 8(r1)
        halt
`
	c, _ := coreFor(t, src, FixedLatencyMem{Cycles: 2}, nil)
	mustRun(t, c)
	s := c.Stats()
	if s.Loads != 1 || s.Stores != 1 {
		t.Fatalf("loads=%d stores=%d", s.Loads, s.Stores)
	}
	if s.Committed != 4 {
		t.Fatalf("committed = %d", s.Committed)
	}
	if !c.Done() {
		t.Fatal("not done")
	}
	if s.IPC() <= 0 {
		t.Fatal("IPC not positive")
	}
}

func TestPerfectVsSlowMemoryIPC(t *testing.T) {
	// The same memory-bound kernel must have strictly higher IPC under
	// PerfectMem than under slow memory.
	src := "\t.data\nbuf: .space 4096\n\t.text\n\tla r1, buf\n\tli r2, 64\n" +
		"loop:\tld r3, 0(r1)\n\tadd r4, r4, r3\n\taddi r1, r1, 8\n\taddi r2, r2, -1\n\tbne r2, zero, loop\n\thalt\n"
	cPerfect, _ := coreFor(t, src, PerfectMem{}, nil)
	cycP := mustRun(t, cPerfect)
	cSlow, _ := coreFor(t, src, FixedLatencyMem{Cycles: 100}, nil)
	cycS := mustRun(t, cSlow)
	if cycP >= cycS {
		t.Fatalf("perfect %d cycles !< slow %d cycles", cycP, cycS)
	}
}

func TestEmuSourceLimit(t *testing.T) {
	src := "\t.text\nl:\tnop\n\tj l\n" // infinite loop
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := emu.New(p)
	s := NewEmuSource(m, 100)
	n := 0
	for {
		_, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != 100 {
		t.Fatalf("limited source yielded %d", n)
	}
}

func TestSliceSource(t *testing.T) {
	dyns := []emu.Dyn{
		{Seq: 0, Instr: isa.Instr{Op: isa.OpNOP}},
		{Seq: 1, Instr: isa.Instr{Op: isa.OpNOP}},
	}
	s := NewSliceSource(dyns)
	for i := 0; i < 2; i++ {
		d, ok, err := s.Next()
		if err != nil || !ok || d.Seq != uint64(i) {
			t.Fatalf("slice source step %d: %+v %v %v", i, d, ok, err)
		}
	}
	if _, ok, _ := s.Next(); ok {
		t.Fatal("slice source did not end")
	}
}

// TestWatchdogFires: a memory that never completes loads must trip the
// watchdog at the first cycle more than the budget past the last
// commit, whether Drive skips the idle stretch or polls it.
func TestWatchdogFires(t *testing.T) {
	src := "\t.data\nx: .word 1\n\t.text\n\tla r1, x\n\tld r2, 0(r1)\n\thalt\n"
	const budget = 50
	var fired [2]uint64
	for i, noSkip := range []bool{false, true} {
		c, _ := coreFor(t, src, &pendingMem{}, nil)
		cycles, err := Drive(c, 0, noSkip, budget)
		if !errors.Is(err, ErrNoProgress) {
			t.Fatalf("noSkip=%v: err = %v, want ErrNoProgress on a stuck load", noSkip, err)
		}
		if want := c.LastCommitCycle() + budget + 1; cycles != want {
			t.Fatalf("noSkip=%v: watchdog fired at cycle %d, want %d", noSkip, cycles, want)
		}
		fired[i] = cycles
	}
	if fired[0] != fired[1] {
		t.Fatalf("watchdog cycle: skipped %d, polled %d", fired[0], fired[1])
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.IssueWidth = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero issue width accepted")
	}
	bad = DefaultConfig()
	bad.RUUSize = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero RUU accepted")
	}
}

func TestICacheStallsFetch(t *testing.T) {
	// A loop whose body spans several lines: with a tiny I-cache the
	// first traversal misses per line; later iterations hit. Compare
	// against no I-cache.
	src := "\t.text\n\tli r1, 50\nloop:\n"
	for i := 0; i < 16; i++ {
		src += "\tli r2, 1\n"
	}
	src += "\taddi r1, r1, -1\n\tbne r1, zero, loop\n\thalt\n"

	mkCfg := func(withIC bool) Config {
		cfg := DefaultConfig()
		if withIC {
			ic := cache.Config{Name: "il1", SizeBytes: 1024, LineBytes: 32, Assoc: 1}
			cfg.ICache = &ic
			cfg.IFetchMissCycles = 10
		}
		return cfg
	}

	run := func(withIC bool) (uint64, uint64) {
		p, err := asm.Assemble("t", src)
		if err != nil {
			t.Fatal(err)
		}
		m, err := emu.New(p)
		if err != nil {
			t.Fatal(err)
		}
		c := New(mkCfg(withIC), NewEmuSource(m, 0), PerfectMem{})
		cycles := mustRun(t, c)
		return cycles, c.Stats().IFetchMiss
	}

	cycNo, missNo := run(false)
	cycIC, missIC := run(true)
	if missNo != 0 {
		t.Fatalf("misses without I-cache = %d", missNo)
	}
	if missIC == 0 {
		t.Fatal("no I-cache misses recorded")
	}
	if cycIC <= cycNo {
		t.Fatalf("I-cache did not cost cycles: %d vs %d", cycIC, cycNo)
	}
	// The loop body fits in 1 KB, so misses are bounded by the touched
	// lines (cold misses only), not per-iteration.
	if missIC > 8 {
		t.Fatalf("I-cache thrashing on a resident loop: %d misses", missIC)
	}
}
