package core

import (
	"fmt"

	"github.com/wisc-arch/datascalar/internal/emu"
	"github.com/wisc-arch/datascalar/internal/isa"
	"github.com/wisc-arch/datascalar/internal/mem"
	"github.com/wisc-arch/datascalar/internal/ooo"
	"github.com/wisc-arch/datascalar/internal/stats"
)

// regionSource implements the execution side of result communication
// (paper Section 5.1): "it is possible for a processor to temporarily
// deviate from the ESP model and execute a private computation,
// broadcasting only the result — not the operands — to the other
// processors."
//
// A PRIVB marker names a region and, through its effective address, the
// node owning the region's data. That owner executes the region with
// uncached local accesses and no broadcasts (the ooo.PrivatePort path);
// every other node SKIPS the region's instructions entirely — this
// wrapper drains them from the dynamic stream without dispatching them —
// and picks the results up through ordinary ESP broadcasts the first
// time post-region code loads them. Functional state never diverges:
// the wrapped emulator still executes every instruction; only the timing
// model skips.
//
// Regions whose pages are replicated are executed by every node (there
// is no single owner to delegate to).
// The PRIVB/PRIVE markers themselves are always delivered, even at nodes
// that skip the region body: the out-of-order core treats them as
// store-forwarding barriers, and the barrier must fall at the same
// program position at every node — otherwise a skipping node could
// forward a post-region load from a pre-region store while the owner
// (whose forwarding window contains the region's private stores) does
// not, desynchronizing commit-time cache updates and eliding a broadcast
// the skipper waits on.
type regionSource struct {
	inner   ooo.Source
	pt      *mem.PageTable
	nodeID  int
	skipped *stats.Counter
	// pending holds the region-closing PRIVE to deliver after a skipped
	// body.
	pending *emu.Dyn
}

var _ ooo.Source = (*regionSource)(nil)

// Next implements ooo.Source.
func (s *regionSource) Next() (emu.Dyn, bool, error) {
	if s.pending != nil {
		d := *s.pending
		s.pending = nil
		return d, true, nil
	}
	d, ok, err := s.inner.Next()
	if err != nil || !ok {
		return d, ok, err
	}
	if d.Instr.Op != isa.OpPRIVB {
		return d, true, nil
	}
	pe, ok := s.pt.Lookup(d.EA)
	if !ok {
		return emu.Dyn{}, false, mem.UnmappedError("private region", d.EA)
	}
	if pe.Owns(s.nodeID) {
		// This node executes the region (as owner, or because the
		// region's data is replicated everywhere).
		return d, true, nil
	}
	// Remote region: drain its body, keeping the closing PRIVE for the
	// next call so both markers reach the core.
	depth := 1
	for depth > 0 {
		nd, ok, err := s.inner.Next()
		if err != nil {
			return emu.Dyn{}, false, err
		}
		if !ok {
			return emu.Dyn{}, false, fmt.Errorf("core: stream ended inside a private region")
		}
		switch nd.Instr.Op {
		case isa.OpPRIVB:
			depth++
		case isa.OpPRIVE:
			depth--
			if depth == 0 {
				s.pending = &nd
				break
			}
		}
		if depth > 0 {
			s.skipped.Inc()
		}
	}
	return d, true, nil
}
