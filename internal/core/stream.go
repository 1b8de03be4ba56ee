package core

import (
	"fmt"

	"github.com/wisc-arch/datascalar/internal/emu"
	"github.com/wisc-arch/datascalar/internal/isa"
	"github.com/wisc-arch/datascalar/internal/ooo"
)

// stream is a machine's one functional emulator and the ring of dynamic
// instructions its nodes read.
//
// Every DataScalar node runs the same sequential program, and no node's
// timing ever feeds a value back to the emulator, so every node would
// compute the identical dynamic instruction stream. The machine
// therefore steps a single emulator and keeps what it produced in a
// power-of-two ring; each node reads the ring through its own
// streamReader cursor, which implements ooo.Source. A reader behind the
// head copies its entry; a reader at the head steps the emulator once.
//
// The ring holds positions [tail, head). When it is full, the tail moves
// up to the slowest open reader, and the ring doubles only when the live
// span is still more than half of it, so its size tracks the spread
// between the fastest and the slowest node. A dead node's reader is
// closed and no longer holds the tail back.
type stream struct {
	em *emu.Machine
	// src is the producer: it owns the instruction limit, the halt and
	// the emulator's errors.
	src *ooo.EmuSource

	ring       []emu.Dyn
	mask       uint64
	tail, head uint64

	// ended is set once src has reported the end of the stream — a halt,
	// the instruction limit, or an emulator error (endErr; nil for the
	// other two). head is then the end position, and every reader that
	// reaches it gets the same answer.
	ended  bool
	endErr error

	// depth is the private-region nesting depth after the last produced
	// entry; fill uses it to stop only outside every region.
	depth int

	readers []*streamReader
	// sealed is set while parallel workers own the readers: a reader at
	// the head then returns an underrun error instead of stepping the
	// emulator, which only the coordinator may do.
	sealed bool
}

// streamMinRing is the ring's initial size; it doubles as nodes spread.
const streamMinRing = 64

// newStream starts a stream over em that ends after limit instructions
// (0 = run to completion).
func newStream(em *emu.Machine, limit uint64) *stream {
	return &stream{
		em:   em,
		src:  ooo.NewEmuSource(em, limit),
		ring: make([]emu.Dyn, streamMinRing),
		mask: streamMinRing - 1,
	}
}

// reader opens a cursor at the stream's first position for node id.
func (s *stream) reader(id int) *streamReader {
	r := &streamReader{s: s, id: id}
	s.readers = append(s.readers, r)
	return r
}

// produce steps the emulator once, appending its instruction at the
// head or recording the end of the stream.
func (s *stream) produce() {
	if s.head-s.tail == uint64(len(s.ring)) {
		s.trim()
	}
	d, ok, err := s.src.Next()
	if err != nil || !ok {
		s.ended, s.endErr = true, err
		return
	}
	s.depth += regionStep(d.Instr.Op)
	s.ring[s.head&s.mask] = d
	s.head++
}

// regionStep is the private-region depth change an instruction makes.
func regionStep(op isa.Op) int {
	switch op {
	case isa.OpPRIVB:
		return 1
	case isa.OpPRIVE:
		return -1
	}
	return 0
}

// trim makes room in a full ring: the tail moves up to the slowest open
// reader, and the ring doubles if the live span is still more than half
// of it.
func (s *stream) trim() {
	low := s.head
	for _, r := range s.readers {
		if !r.closed && r.pos < low {
			low = r.pos
		}
	}
	s.tail = low
	if s.head-s.tail <= uint64(len(s.ring))/2 {
		return
	}
	ring := make([]emu.Dyn, 2*len(s.ring))
	mask := uint64(len(ring) - 1)
	for p := s.tail; p < s.head; p++ {
		ring[p&mask] = s.ring[p&s.mask]
	}
	s.ring, s.mask = ring, mask
}

// fill produces until every open reader can make k more Next calls
// without reaching the head, so that a parallel window never steps the
// emulator. A reader consumes at most one depth-0 entry per call — an
// entry outside every private region, the outermost PRIVB and PRIVE
// markers included — except that a node skipping a remote region drains
// its whole body and its closing PRIVE in one call. So fill counts k
// depth-0 entries past the furthest open reader and stops only at region
// depth 0 (or at the end of the stream); a count in positions would let
// a skipping node run off the head in the middle of a region.
func (s *stream) fill(k uint64) {
	far := s.tail
	for _, r := range s.readers {
		if !r.closed && r.pos > far {
			far = r.pos
		}
	}
	// Count the depth-0 entries already past far, walking back from the
	// head, whose depth is known.
	var have uint64
	depth := s.depth
	for p := s.head; p > far; p-- {
		after := depth
		depth -= regionStep(s.ring[(p-1)&s.mask].Instr.Op)
		if depth == 0 || after == 0 {
			have++
		}
	}
	for !s.ended && (have < k || s.depth != 0) {
		before := s.depth
		s.produce()
		if !s.ended && (before == 0 || s.depth == 0) {
			have++
		}
	}
}

// streamReader is one node's cursor into the stream; it implements
// ooo.Source. Each reader keeps its own position, so parallel workers
// share only the ring, which they read and never write.
type streamReader struct {
	s   *stream
	id  int
	pos uint64
	// closed marks a dead node's reader: it is never read again and no
	// longer holds the ring's tail back.
	closed bool
}

var _ ooo.Source = (*streamReader)(nil)

// Next implements ooo.Source.
//
//dsvet:hotpath
func (r *streamReader) Next() (emu.Dyn, bool, error) {
	s := r.s
	if r.pos == s.head {
		if !s.ended {
			if s.sealed {
				return emu.Dyn{}, false, r.underrun()
			}
			s.produce()
		}
		if s.ended {
			return emu.Dyn{}, false, s.endErr
		}
	}
	d := s.ring[r.pos&s.mask]
	r.pos++
	return d, true, nil
}

// underrun is the error of a reader that reached the head while the
// stream was sealed: fill under-provisioned the window, a simulator bug.
func (r *streamReader) underrun() error {
	return fmt.Errorf("instruction stream underrun: node %d reached the head at position %d inside a parallel window", r.id, r.pos)
}
