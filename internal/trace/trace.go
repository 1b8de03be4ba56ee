// Package trace implements the paper's trace-driven analyses: the ESP
// off-chip traffic reduction study (Table 1) and the datathread-length
// approximation (Table 2). Both consume the memory reference stream of a
// program run on the functional emulator, filtered through split L1
// caches exactly as the paper's cache simulations were.
package trace

import (
	"fmt"

	"github.com/wisc-arch/datascalar/internal/emu"
	"github.com/wisc-arch/datascalar/internal/isa"
	"github.com/wisc-arch/datascalar/internal/prog"
)

// Ref is one memory reference: an instruction fetch or a data access.
type Ref struct {
	Addr  uint64
	Size  int
	Store bool
	Instr bool // instruction fetch
}

// ForEachRefFrom executes program p from startPC (bounded by maxInstr;
// 0 = to completion) and streams its memory references to fn in
// execution order: each instruction's fetch (when includeInstr is set)
// followed by its data access, if any. The program first runs silently
// up to startPC (0 = start immediately), so analyses measure
// steady-state behaviour rather than initialization — the same
// fast-forward discipline the timing harnesses use. Returning an error
// from fn aborts the walk.
func ForEachRefFrom(p *prog.Program, startPC, maxInstr uint64, includeInstr bool, fn func(Ref) error) error {
	m, err := emu.NewAt(p, startPC)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	start := m.InstrCount()
	for !m.Halted() {
		if maxInstr != 0 && m.InstrCount()-start >= maxInstr {
			break
		}
		d, err := m.Step()
		if err != nil {
			if err == emu.ErrHalted {
				break
			}
			return err
		}
		if includeInstr {
			if err := fn(Ref{Addr: d.PC, Size: isa.InstrBytes, Instr: true}); err != nil {
				return err
			}
		}
		if d.Instr.Op.IsMem() {
			if err := fn(Ref{Addr: d.EA, Size: d.Instr.Op.MemBytes(), Store: d.Instr.Op.IsStore()}); err != nil {
				return err
			}
		}
	}
	return nil
}

// ProfilePagesFrom counts page accesses over a program run from startPC
// (instruction and data references), the input to the paper's
// replication selection.
func ProfilePagesFrom(p *prog.Program, startPC, maxInstr uint64, observe func(addr uint64)) error {
	return ForEachRefFrom(p, startPC, maxInstr, true, func(r Ref) error {
		observe(r.Addr)
		return nil
	})
}

func validateRef(r Ref) error {
	if r.Size <= 0 {
		return fmt.Errorf("trace: reference with non-positive size %d", r.Size)
	}
	return nil
}
