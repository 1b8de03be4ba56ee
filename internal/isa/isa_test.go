package isa

import (
	"strings"
	"testing"
)

func TestOpMetadataComplete(t *testing.T) {
	for _, op := range Ops() {
		if op.String() == "" || strings.HasPrefix(op.String(), "op(") {
			t.Errorf("op %d has no mnemonic", op)
		}
		if op.IsMem() && op.MemBytes() == 0 {
			t.Errorf("%s: memory op with zero width", op)
		}
		if !op.IsMem() && op.MemBytes() != 0 {
			t.Errorf("%s: non-memory op with width %d", op, op.MemBytes())
		}
	}
}

func TestOpByName(t *testing.T) {
	for _, op := range Ops() {
		if got := OpByName(op.String()); got != op {
			t.Errorf("OpByName(%q) = %v, want %v", op.String(), got, op)
		}
	}
	if OpByName("bogus") != OpInvalid {
		t.Error("OpByName(bogus) != OpInvalid")
	}
	if OpByName("invalid") != OpInvalid {
		t.Error("the invalid pseudo-mnemonic must not resolve")
	}
}

func TestOpPredicates(t *testing.T) {
	cases := []struct {
		op                   Op
		load, store, br, ctl bool
		memBytes             int
	}{
		{OpLD, true, false, false, false, 8},
		{OpLB, true, false, false, false, 1},
		{OpSW, false, true, false, false, 4},
		{OpFLD, true, false, false, false, 8},
		{OpFSD, false, true, false, false, 8},
		{OpBEQ, false, false, true, true, 0},
		{OpJ, false, false, false, true, 0},
		{OpJR, false, false, false, true, 0},
		{OpADD, false, false, false, false, 0},
		{OpHALT, false, false, false, false, 0},
	}
	for _, c := range cases {
		if c.op.IsLoad() != c.load {
			t.Errorf("%s IsLoad = %v", c.op, c.op.IsLoad())
		}
		if c.op.IsStore() != c.store {
			t.Errorf("%s IsStore = %v", c.op, c.op.IsStore())
		}
		if c.op.IsBranch() != c.br {
			t.Errorf("%s IsBranch = %v", c.op, c.op.IsBranch())
		}
		if c.op.IsControl() != c.ctl {
			t.Errorf("%s IsControl = %v", c.op, c.op.IsControl())
		}
		if c.op.MemBytes() != c.memBytes {
			t.Errorf("%s MemBytes = %d, want %d", c.op, c.op.MemBytes(), c.memBytes)
		}
	}
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpADD, Rd: 1, Rs1: 2, Rs2: 3}, "add r1, r2, r3"},
		{Instr{Op: OpADDI, Rd: 1, Rs1: 2, Imm: -4}, "addi r1, r2, -4"},
		{Instr{Op: OpLI, Rd: 5, Imm: 99}, "li r5, 99"},
		{Instr{Op: OpLD, Rd: 7, Rs1: 8, Imm: 16}, "ld r7, 16(r8)"},
		{Instr{Op: OpSD, Rs2: 7, Rs1: 8, Imm: 16}, "sd r7, 16(r8)"},
		{Instr{Op: OpFLD, Rd: 3, Rs1: 8, Imm: 8}, "fld f3, 8(r8)"},
		{Instr{Op: OpFSD, Rs2: 3, Rs1: 8}, "fsd f3, 0(r8)"},
		{Instr{Op: OpFADD, Rd: 1, Rs1: 2, Rs2: 3}, "fadd f1, f2, f3"},
		{Instr{Op: OpFMOV, Rd: 1, Rs1: 2}, "fmov f1, f2"},
		{Instr{Op: OpFEQ, Rd: 4, Rs1: 2, Rs2: 3}, "feq r4, f2, f3"},
		{Instr{Op: OpFCVTDW, Rd: 1, Rs1: 9}, "fcvtdw f1, r9"},
		{Instr{Op: OpFCVTWD, Rd: 9, Rs1: 1}, "fcvtwd r9, f1"},
		{Instr{Op: OpBEQ, Rs1: 1, Rs2: 2, Target: 0x100}, "beq r1, r2, 0x100"},
		{Instr{Op: OpJ, Target: 0x80}, "j 0x80"},
		{Instr{Op: OpJR, Rs1: 31}, "jr r31"},
		{Instr{Op: OpJALR, Rd: 1, Rs1: 9}, "jalr r1, r9"},
		{Instr{Op: OpNOP}, "nop"},
		{Instr{Op: OpHALT}, "halt"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := (Instr{Op: OpADD, Rd: 1, Rs1: 2, Rs2: 3}).Validate(); err != nil {
		t.Errorf("valid instr rejected: %v", err)
	}
	if err := (Instr{}).Validate(); err == nil {
		t.Error("zero instr accepted")
	}
	if err := (Instr{Op: OpADD, Rd: 32}).Validate(); err == nil {
		t.Error("out-of-range register accepted")
	}
	if err := (Instr{Op: numOps}).Validate(); err == nil {
		t.Error("out-of-range op accepted")
	}
}

func TestSrcDstRegs(t *testing.T) {
	srcs := func(in Instr) []RegRef { return in.SrcRegs(nil) }

	in := Instr{Op: OpADD, Rd: 1, Rs1: 2, Rs2: 3}
	if got := srcs(in); len(got) != 2 || got[0] != IntReg(2) || got[1] != IntReg(3) {
		t.Errorf("ADD srcs = %v", got)
	}
	if d, ok := in.DstReg(); !ok || d != IntReg(1) {
		t.Errorf("ADD dst = %v, %v", d, ok)
	}

	// Writes to r0 have no architectural destination.
	in = Instr{Op: OpADD, Rd: 0, Rs1: 2, Rs2: 3}
	if _, ok := in.DstReg(); ok {
		t.Error("write to r0 reported as destination")
	}

	in = Instr{Op: OpFSD, Rs1: 8, Rs2: 3}
	if got := srcs(in); len(got) != 2 || got[0] != IntReg(8) || got[1] != FPReg(3) {
		t.Errorf("FSD srcs = %v", got)
	}
	if _, ok := in.DstReg(); ok {
		t.Error("store reported a destination")
	}

	in = Instr{Op: OpFLD, Rd: 3, Rs1: 8}
	if d, ok := in.DstReg(); !ok || d != FPReg(3) {
		t.Errorf("FLD dst = %v, %v", d, ok)
	}

	in = Instr{Op: OpJAL, Target: 0x100}
	if d, ok := in.DstReg(); !ok || d != IntReg(RegRA) {
		t.Errorf("JAL dst = %v, %v", d, ok)
	}

	in = Instr{Op: OpJ, Target: 0x100}
	if _, ok := in.DstReg(); ok {
		t.Error("J reported a destination")
	}

	in = Instr{Op: OpBEQ, Rs1: 4, Rs2: 5}
	if got := srcs(in); len(got) != 2 || got[0] != IntReg(4) || got[1] != IntReg(5) {
		t.Errorf("BEQ srcs = %v", got)
	}

	in = Instr{Op: OpFEQ, Rd: 2, Rs1: 3, Rs2: 4}
	if got := srcs(in); len(got) != 2 || got[0] != FPReg(3) || got[1] != FPReg(4) {
		t.Errorf("FEQ srcs = %v", got)
	}
	if d, ok := in.DstReg(); !ok || d != IntReg(2) {
		t.Errorf("FEQ dst = %v, %v", d, ok)
	}
}

func TestRegRef(t *testing.T) {
	if IntReg(5).String() != "r5" || FPReg(5).String() != "f5" {
		t.Error("RegRef.String wrong")
	}
	seen := map[int]bool{}
	for i := uint8(0); i < NumIntRegs; i++ {
		seen[IntReg(i).Index()] = true
	}
	for i := uint8(0); i < NumFPRegs; i++ {
		seen[FPReg(i).Index()] = true
	}
	if len(seen) != NumIntRegs+NumFPRegs {
		t.Fatalf("Index not dense/unique: %d distinct", len(seen))
	}
	for idx := range seen {
		if idx < 0 || idx >= NumIntRegs+NumFPRegs {
			t.Fatalf("Index out of range: %d", idx)
		}
	}
}

func TestRegionMarkerMetadata(t *testing.T) {
	in := Instr{Op: OpPRIVB, Rs1: 7, Imm: 32}
	if got := in.String(); got != "privb 32(r7)" {
		t.Errorf("privb String = %q", got)
	}
	if got := (Instr{Op: OpPRIVE}).String(); got != "prive" {
		t.Errorf("prive String = %q", got)
	}
	srcs := in.SrcRegs(nil)
	if len(srcs) != 1 || srcs[0] != IntReg(7) {
		t.Errorf("privb srcs = %v", srcs)
	}
	if _, ok := in.DstReg(); ok {
		t.Error("privb has a destination")
	}
	if OpPRIVB.IsMem() || OpPRIVB.IsControl() {
		t.Error("privb misclassified")
	}
	if OpPRIVB.Class() != ClassMisc || OpPRIVE.Class() != ClassMisc {
		t.Error("marker class wrong")
	}
}

func TestOpStringOutOfRange(t *testing.T) {
	bogus := Op(9999)
	if bogus.Valid() {
		t.Error("bogus op valid")
	}
	if bogus.Format() != FmtNone || bogus.Class() != ClassMisc || bogus.MemBytes() != 0 {
		t.Error("bogus op metadata not defaulted")
	}
}

func TestControlFlowHelpers(t *testing.T) {
	for _, op := range []Op{OpJ, OpJR, OpHALT} {
		if op.FallsThrough() {
			t.Errorf("%s falls through", op)
		}
	}
	for _, op := range []Op{OpADD, OpBEQ, OpJAL, OpJALR, OpNOP, OpLD, OpPRIVB} {
		if !op.FallsThrough() {
			t.Errorf("%s does not fall through", op)
		}
	}
	if !OpJAL.IsCall() || !OpJALR.IsCall() {
		t.Error("JAL/JALR not calls")
	}
	if OpJ.IsCall() || OpJR.IsCall() || OpBEQ.IsCall() {
		t.Error("non-linking transfer classified as call")
	}
}

func TestDstRegRaw(t *testing.T) {
	// Writes to R0 are invisible to DstReg but visible to DstRegRaw.
	in := Instr{Op: OpADD, Rd: RegZero, Rs1: 1, Rs2: 2}
	if _, ok := in.DstReg(); ok {
		t.Error("DstReg reported a write to r0")
	}
	r, ok := in.DstRegRaw()
	if !ok || r != IntReg(RegZero) {
		t.Errorf("DstRegRaw = %v, %v", r, ok)
	}
	// JAL links through RA under both views.
	jal := Instr{Op: OpJAL, Target: 0x10000}
	r, ok = jal.DstRegRaw()
	if !ok || r != IntReg(RegRA) {
		t.Errorf("jal DstRegRaw = %v, %v", r, ok)
	}
	// Branches and stores have no destination at all.
	for _, in := range []Instr{
		{Op: OpBEQ}, {Op: OpSD, Rs1: 1, Rs2: 2}, {Op: OpJ}, {Op: OpJR, Rs1: RegRA}, {Op: OpHALT},
	} {
		if _, ok := in.DstRegRaw(); ok {
			t.Errorf("%s has a raw destination", in.Op)
		}
	}
}
