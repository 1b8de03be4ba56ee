package emu

import (
	"strings"
	"testing"
	"testing/quick"

	"github.com/wisc-arch/datascalar/internal/asm"
	"github.com/wisc-arch/datascalar/internal/isa"
	"github.com/wisc-arch/datascalar/internal/prog"
)

func run(t *testing.T, src string) *Machine {
	t.Helper()
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m, err := New(p)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !m.Halted() {
		t.Fatal("program did not halt within 1M instructions")
	}
	return m
}

func TestArithmetic(t *testing.T) {
	m := run(t, `
        .text
        li   r1, 6
        li   r2, 7
        mul  r3, r1, r2        # 42
        add  r4, r3, r1        # 48
        sub  r5, r4, r2        # 41
        div  r6, r4, r2        # 6
        rem  r7, r4, r2        # 6
        li   r8, -16
        srai r9, r8, 2         # -4
        srli r10, r8, 60       # 15
        slt  r11, r8, r1       # 1
        sltu r12, r8, r1       # 0 (big unsigned)
        nor  r13, r0, r0       # all ones
        halt
`)
	want := map[uint8]uint64{
		3: 42, 4: 48, 5: 41, 6: 6, 7: 6,
		9:  ^uint64(0) - 3, // -4 as two's complement
		10: 15, 11: 1, 12: 0,
		13: ^uint64(0),
	}
	for reg, v := range want {
		if got := m.Reg(reg); got != v {
			t.Errorf("r%d = %d, want %d", reg, int64(got), int64(v))
		}
	}
}

func TestDivByZeroSemantics(t *testing.T) {
	m := run(t, `
        .text
        li   r1, 100
        li   r2, 0
        div  r3, r1, r2
        rem  r4, r1, r2
        halt
`)
	if m.Reg(3) != ^uint64(0) {
		t.Errorf("div/0 = %x, want all-ones", m.Reg(3))
	}
	if m.Reg(4) != 100 {
		t.Errorf("rem/0 = %d, want dividend", m.Reg(4))
	}
}

func TestR0Hardwired(t *testing.T) {
	m := run(t, `
        .text
        li   r0, 99
        addi r0, r0, 5
        add  r1, r0, r0
        halt
`)
	if m.Reg(0) != 0 || m.Reg(1) != 0 {
		t.Errorf("r0 = %d, r1 = %d; r0 must stay 0", m.Reg(0), m.Reg(1))
	}
}

func TestLoadsStores(t *testing.T) {
	m := run(t, `
        .data
buf:    .space 64
vals:   .word 0x1122334455667788
        .text
        la   r1, buf
        li   r2, -1
        sd   r2, 0(r1)
        ld   r3, 0(r1)         # -1
        lw   r4, 0(r1)         # -1 (sign extended)
        lwu  r5, 0(r1)         # 0xffffffff
        lb   r6, 0(r1)         # -1
        lbu  r7, 0(r1)         # 255
        li   r8, 0x12345678
        sw   r8, 8(r1)
        lwu  r9, 8(r1)
        li   r10, 0xab
        sb   r10, 16(r1)
        lbu  r11, 16(r1)
        la   r12, vals
        ld   r13, 0(r12)
        halt
`)
	checks := map[uint8]uint64{
		3:  ^uint64(0),
		4:  ^uint64(0),
		5:  0xffffffff,
		6:  ^uint64(0),
		7:  255,
		9:  0x12345678,
		11: 0xab,
		13: 0x1122334455667788,
	}
	for reg, want := range checks {
		if got := m.Reg(reg); got != want {
			t.Errorf("r%d = 0x%x, want 0x%x", reg, got, want)
		}
	}
}

func TestFloatingPoint(t *testing.T) {
	m := run(t, `
        .data
a:      .double 2.0
b:      .double 3.0
out:    .space 8
        .text
        la    r1, a
        la    r2, b
        fld   f1, 0(r1)
        fld   f2, 0(r2)
        fadd  f3, f1, f2       # 5
        fmul  f4, f3, f2       # 15
        fsub  f5, f4, f1       # 13
        fdiv  f6, f4, f2       # 5
        fsqrt f7, f1           # sqrt(2)
        fneg  f8, f7
        fabs  f9, f8
        feq   r3, f7, f9       # 1
        flt   r4, f8, f7       # 1
        fle   r5, f3, f6       # 1
        li    r6, 4
        fcvtdw f10, r6         # 4.0
        fcvtwd r7, f4          # 15
        la    r8, out
        fsd   f5, 0(r8)
        fld   f11, 0(r8)
        halt
`)
	if got := m.FReg(3); got != 5 {
		t.Errorf("f3 = %v, want 5", got)
	}
	if got := m.FReg(4); got != 15 {
		t.Errorf("f4 = %v, want 15", got)
	}
	if got := m.FReg(11); got != 13 {
		t.Errorf("f11 (via memory) = %v, want 13", got)
	}
	if m.Reg(3) != 1 || m.Reg(4) != 1 || m.Reg(5) != 1 {
		t.Errorf("fp compares = %d,%d,%d, want 1,1,1", m.Reg(3), m.Reg(4), m.Reg(5))
	}
	if m.Reg(7) != 15 {
		t.Errorf("fcvtwd = %d, want 15", m.Reg(7))
	}
	if m.FReg(10) != 4 {
		t.Errorf("fcvtdw = %v, want 4", m.FReg(10))
	}
}

func TestLoopAndBranches(t *testing.T) {
	// sum 1..10 = 55
	m := run(t, `
        .text
        li   r1, 10
        li   r2, 0
loop:   add  r2, r2, r1
        addi r1, r1, -1
        bne  r1, zero, loop
        halt
`)
	if m.Reg(2) != 55 {
		t.Errorf("sum = %d, want 55", m.Reg(2))
	}
}

func TestCallReturn(t *testing.T) {
	m := run(t, `
        .text
        li   r1, 5
        jal  double
        jal  double
        halt
double: add  r1, r1, r1
        jr   ra
`)
	if m.Reg(1) != 20 {
		t.Errorf("r1 = %d, want 20", m.Reg(1))
	}
}

func TestJALR(t *testing.T) {
	m := run(t, `
        .text
        la   r2, fn
        jalr r3, r2
        halt
fn:     li   r4, 77
        jr   r3
`)
	if m.Reg(4) != 77 {
		t.Errorf("r4 = %d, want 77", m.Reg(4))
	}
}

func TestDynRecords(t *testing.T) {
	p, err := asm.Assemble("t", `
        .data
x:      .word 42
        .text
        la   r1, x
        ld   r2, 0(r1)
        sd   r2, 8(r1)
        beq  r2, r2, done
        nop
done:   halt
`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	var dyns []Dyn
	for !m.Halted() {
		d, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		dyns = append(dyns, d)
	}
	if len(dyns) != 5 {
		t.Fatalf("executed %d instrs, want 5 (branch skips nop)", len(dyns))
	}
	ld := dyns[1]
	if ld.EA != p.Labels["x"] {
		t.Errorf("ld EA = 0x%x, want 0x%x", ld.EA, p.Labels["x"])
	}
	sd := dyns[2]
	if sd.EA != p.Labels["x"]+8 {
		t.Errorf("sd EA = 0x%x", sd.EA)
	}
	br := dyns[3]
	if !br.Taken || br.NextPC != p.Labels["done"] {
		t.Errorf("branch taken=%v next=0x%x", br.Taken, br.NextPC)
	}
	for i, d := range dyns {
		if d.Seq != uint64(i) {
			t.Errorf("dyn %d has seq %d", i, d.Seq)
		}
	}
}

func TestHaltBehaviour(t *testing.T) {
	m := run(t, "\t.text\n\thalt")
	if _, err := m.Step(); err != ErrHalted {
		t.Errorf("Step after halt = %v, want ErrHalted", err)
	}
	if n, err := m.Run(10); n != 0 || err != nil {
		t.Errorf("Run after halt = %d, %v", n, err)
	}
}

func TestMisalignedAccessError(t *testing.T) {
	p, err := asm.Assemble("t", `
        .text
        li   r1, 0x20000001
        ld   r2, 0(r1)
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	p.HeapBytes = prog.PageSize
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(0); err == nil {
		t.Fatal("misaligned load accepted")
	}
}

func TestFetchOutsideText(t *testing.T) {
	p, err := asm.Assemble("t", "\t.text\n\tnop\n\tnop") // no halt: falls off the end
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(0); err == nil {
		t.Fatal("fetch past text accepted")
	}
}

func TestStackAndGlobals(t *testing.T) {
	m := run(t, `
        .text
        addi sp, sp, -16
        li   r1, 42
        sd   r1, 0(sp)
        ld   r2, 0(sp)
        addi sp, sp, 16
        halt
`)
	if m.Reg(2) != 42 {
		t.Errorf("stack round trip = %d", m.Reg(2))
	}
	if m.Reg(isa.RegGP) != prog.DataBase {
		t.Errorf("gp = 0x%x", m.Reg(isa.RegGP))
	}
}

func TestMemoryPrimitives(t *testing.T) {
	mem := NewMemory()
	if mem.Read8(1234) != 0 || mem.Read64(8000) != 0 {
		t.Error("untouched memory not zero")
	}
	mem.Write64(prog.PageSize-8, 0xdeadbeefcafef00d)
	if mem.Read64(prog.PageSize-8) != 0xdeadbeefcafef00d {
		t.Error("page-edge 64-bit round trip failed")
	}
	mem.WriteFloat64(64, 3.25)
	if mem.ReadFloat64(64) != 3.25 {
		t.Error("float round trip failed")
	}
	buf := make([]byte, 3*prog.PageSize)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	mem.WriteBytes(prog.PageSize/2, buf)
	got := make([]byte, len(buf))
	mem.ReadBytes(prog.PageSize/2, got)
	for i := range buf {
		if got[i] != buf[i] {
			t.Fatalf("cross-page byte %d = %d, want %d", i, got[i], buf[i])
		}
	}
	if mem.PageCount() == 0 {
		t.Error("no pages allocated")
	}
}

// Property: a store followed by a same-size load round-trips for all
// aligned addresses and values.
func TestMemoryRoundTripQuick(t *testing.T) {
	mem := NewMemory()
	f := func(addr uint64, v uint64) bool {
		addr = (addr % (1 << 30)) &^ 7
		mem.Write64(addr, v)
		if mem.Read64(addr) != v {
			return false
		}
		mem.Write32(addr, uint32(v))
		return mem.Read32(addr) == uint32(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: two fresh machines running the same program produce identical
// dynamic streams — the foundation of DataScalar's redundant execution.
func TestRedundantExecutionIdentical(t *testing.T) {
	src := `
        .data
arr:    .space 256
        .text
        la   r1, arr
        li   r2, 32
        li   r3, 1
fill:   sd   r3, 0(r1)
        addi r1, r1, 8
        mul  r3, r3, r3
        addi r3, r3, 1
        addi r2, r2, -1
        bne  r2, zero, fill
        halt
`
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	m1, _ := New(p)
	m2, _ := New(p)
	for !m1.Halted() {
		d1, err1 := m1.Step()
		d2, err2 := m2.Step()
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if d1 != d2 {
			t.Fatalf("streams diverged at seq %d: %+v vs %+v", d1.Seq, d1, d2)
		}
	}
	if !m2.Halted() {
		t.Fatal("machines disagree on halt")
	}
}

func TestPrivateRegions(t *testing.T) {
	p, err := asm.Assemble("t", `
        .data
x:      .word 5
        .text
        la   r1, x
        privb 0(r1)
        ld   r2, 0(r1)
        addi r2, r2, 1
        sd   r2, 0(r1)
        prive
        ld   r3, 0(r1)
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	var dyns []Dyn
	for !m.Halted() {
		d, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		dyns = append(dyns, d)
	}
	// la, privb, ld, addi, sd, prive, ld, halt
	wantPrivate := []bool{false, false, true, true, true, false, false, false}
	if len(dyns) != len(wantPrivate) {
		t.Fatalf("executed %d instructions", len(dyns))
	}
	for i, w := range wantPrivate {
		if dyns[i].Private != w {
			t.Errorf("instr %d (%s): Private = %v, want %v", i, dyns[i].Instr, dyns[i].Private, w)
		}
	}
	if dyns[1].EA != p.Labels["x"] {
		t.Errorf("privb EA = 0x%x", dyns[1].EA)
	}
	if m.Reg(3) != 6 {
		t.Errorf("functional result = %d, want 6", m.Reg(3))
	}
}

func TestUnbalancedRegionsError(t *testing.T) {
	// prive without privb
	p, err := asm.Assemble("t", "\t.text\n\tprive\n\thalt\n")
	if err != nil {
		t.Fatal(err)
	}
	m, _ := New(p)
	if _, err := m.Run(0); err == nil {
		t.Fatal("unmatched prive accepted")
	}
	// halt inside an open region
	p, err = asm.Assemble("t", "\t.text\n\tprivb 0(r1)\n\thalt\n")
	if err != nil {
		t.Fatal(err)
	}
	m, _ = New(p)
	if _, err := m.Run(0); err == nil {
		t.Fatal("halt inside open region accepted")
	}
}

func TestShiftAndLogicRegisterVariants(t *testing.T) {
	m := run(t, `
        .text
        li   r1, 1
        li   r2, 5
        sll  r3, r1, r2        # 32
        li   r4, -64
        srl  r5, r4, r2        # logical shift of two's complement
        sra  r6, r4, r2        # -2
        and  r7, r4, r2        # 0: low six bits of -64 are clear
        or   r8, r1, r2        # 5
        xor  r9, r8, r2        # 0... 5^5 = 0
        slli r10, r2, 60       # shift masking check below
        sll  r11, r2, r10      # shift amount masked to 6 bits
        halt
`)
	if m.Reg(3) != 32 {
		t.Errorf("sll = %d", m.Reg(3))
	}
	if m.Reg(6) != ^uint64(0)-1 {
		t.Errorf("sra = %x", m.Reg(6))
	}
	if m.Reg(5) != (^uint64(0)-63)>>5 {
		t.Errorf("srl = %x", m.Reg(5))
	}
	if m.Reg(7) != 0 || m.Reg(8) != 5 || m.Reg(9) != 0 {
		t.Errorf("logic = %d %d %d", m.Reg(7), m.Reg(8), m.Reg(9))
	}
}

func TestAllBranchVariants(t *testing.T) {
	m := run(t, `
        .text
        li   r1, -1
        li   r2, 1
        li   r9, 0
        blt  r1, r2, a         # signed: taken
        halt
a:      addi r9, r9, 1
        bge  r2, r1, b         # signed: taken
        halt
b:      addi r9, r9, 1
        bltu r2, r1, c         # unsigned: -1 is huge, taken
        halt
c:      addi r9, r9, 1
        bgeu r1, r2, d         # unsigned: taken
        halt
d:      addi r9, r9, 1
        beq  r9, r9, e
        halt
e:      addi r9, r9, 1
        bne  r9, zero, f
        halt
f:      addi r9, r9, 1
        j    done
        halt
done:   halt
`)
	if m.Reg(9) != 6 {
		t.Errorf("branch path count = %d, want 6", m.Reg(9))
	}
}

func TestImmediateLogicOps(t *testing.T) {
	m := run(t, `
        .text
        li   r1, 0xf0
        andi r2, r1, 0x3c      # 0x30
        ori  r3, r1, 0x0f      # 0xff
        xori r4, r1, 0xff      # 0x0f
        slti r5, r1, 0x100     # 1
        slti r6, r1, 0x10      # 0
        halt
`)
	want := map[uint8]uint64{2: 0x30, 3: 0xff, 4: 0x0f, 5: 1, 6: 0}
	for reg, v := range want {
		if m.Reg(reg) != v {
			t.Errorf("r%d = 0x%x, want 0x%x", reg, m.Reg(reg), v)
		}
	}
}

func TestNewAt(t *testing.T) {
	p, err := asm.Assemble("t", `
        .text
        li   r1, 3
loop:   addi r1, r1, -1
        bne  r1, zero, loop
done:   halt
`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewAt(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.PC() != p.EntryPC() || m.InstrCount() != 0 {
		t.Fatalf("NewAt(0) = pc %#x after %d instrs, want the entry point", m.PC(), m.InstrCount())
	}
	done := p.Labels["done"]
	m, err = NewAt(p, done)
	if err != nil {
		t.Fatal(err)
	}
	// li, then three addi/bne pairs.
	if m.PC() != done || m.InstrCount() != 7 || m.Halted() {
		t.Fatalf("NewAt(done) = pc %#x after %d instrs", m.PC(), m.InstrCount())
	}
	if _, err := NewAt(p, 0xdeadbee8); err == nil || !strings.Contains(err.Error(), "never reached pc 0xdeadbee8") {
		t.Fatalf("unreachable pc: %v", err)
	}
}

// TestMachineClone: a clone is bit-identical at the point of cloning
// and fully independent afterwards.
func TestMachineClone(t *testing.T) {
	p, err := asm.Assemble("t", `
        .text
        li   r1, 0
        li   r2, 10
loop:   add  r1, r1, r2
        addi r2, r2, -1
        bne  r2, r0, loop
        sd   r1, 0(r0)
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(3); err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	if c.PC() != m.PC() || c.InstrCount() != m.InstrCount() {
		t.Fatalf("clone diverges at birth: pc %#x/%#x icount %d/%d",
			c.PC(), m.PC(), c.InstrCount(), m.InstrCount())
	}
	// Lockstep: both run to halt with identical streams.
	for !m.Halted() {
		dm, errM := m.Step()
		dc, errC := c.Step()
		if errM != nil || errC != nil {
			t.Fatalf("step errors: %v / %v", errM, errC)
		}
		if dm != dc {
			t.Fatalf("clone diverged: %+v vs %+v", dm, dc)
		}
	}
	if !c.Halted() {
		t.Fatal("clone did not halt with the original")
	}
	// Independence: writes through one memory must not leak to the other.
	m2, _ := New(p)
	c2 := m2.Clone()
	m2.Mem().WriteBytes(0x20000, []byte{0xAA})
	var got [1]byte
	c2.Mem().ReadBytes(0x20000, got[:])
	if got[0] != 0 {
		t.Fatal("clone shares pages with its original")
	}
}
