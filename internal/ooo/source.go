package ooo

import (
	"github.com/wisc-arch/datascalar/internal/emu"
)

// EmuSource adapts a functional emulator to the Source interface,
// optionally bounded to a maximum instruction count (the paper runs each
// benchmark "for N instructions or to completion, whichever came first").
type EmuSource struct {
	m     *emu.Machine
	limit uint64 // 0 = unlimited
	count uint64
}

// NewEmuSource wraps machine m, stopping after limit instructions
// (0 means run to completion).
func NewEmuSource(m *emu.Machine, limit uint64) *EmuSource {
	return &EmuSource{m: m, limit: limit}
}

// Next implements Source.
func (s *EmuSource) Next() (emu.Dyn, bool, error) {
	if s.m.Halted() || (s.limit != 0 && s.count >= s.limit) {
		return emu.Dyn{}, false, nil
	}
	d, err := s.m.Step()
	if err != nil {
		if err == emu.ErrHalted {
			return emu.Dyn{}, false, nil
		}
		return emu.Dyn{}, false, err
	}
	s.count++
	return d, true, nil
}

// SliceSource replays a pre-recorded dynamic stream; tests use it to
// drive the core with hand-built schedules.
type SliceSource struct {
	dyns []emu.Dyn
	pos  int
}

// NewSliceSource wraps a recorded stream.
func NewSliceSource(dyns []emu.Dyn) *SliceSource { return &SliceSource{dyns: dyns} }

// Next implements Source.
func (s *SliceSource) Next() (emu.Dyn, bool, error) {
	if s.pos >= len(s.dyns) {
		return emu.Dyn{}, false, nil
	}
	d := s.dyns[s.pos]
	s.pos++
	return d, true, nil
}

// PerfectMem is the paper's "perfect data cache" baseline: every load
// completes in a single cycle and commits are free.
type PerfectMem struct{}

// IssueLoad implements MemPort.
func (PerfectMem) IssueLoad(now uint64, _ LoadToken, _ uint64, _ int) (uint64, bool) {
	return now + 1, false
}

// CommitLoad implements MemPort.
func (PerfectMem) CommitLoad(uint64, LoadToken, uint64, int) {}

// CommitStore implements MemPort.
func (PerfectMem) CommitStore(uint64, uint64, int) {}

// FixedLatencyMem completes every load after a fixed latency; tests and
// simple models use it.
type FixedLatencyMem struct {
	Cycles uint64
}

// IssueLoad implements MemPort.
func (m FixedLatencyMem) IssueLoad(now uint64, _ LoadToken, _ uint64, _ int) (uint64, bool) {
	return now + m.Cycles, false
}

// CommitLoad implements MemPort.
func (FixedLatencyMem) CommitLoad(uint64, LoadToken, uint64, int) {}

// CommitStore implements MemPort.
func (FixedLatencyMem) CommitStore(uint64, uint64, int) {}
