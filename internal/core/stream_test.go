package core

import (
	"strings"
	"testing"

	"github.com/wisc-arch/datascalar/internal/asm"
	"github.com/wisc-arch/datascalar/internal/bus"
	"github.com/wisc-arch/datascalar/internal/emu"
	"github.com/wisc-arch/datascalar/internal/fault"
	"github.com/wisc-arch/datascalar/internal/mem"
	"github.com/wisc-arch/datascalar/internal/prog"
	"github.com/wisc-arch/datascalar/internal/workload"
)

// countdown halts after 152 instructions (HALT included).
const countdown = `
        .text
        li   r1, 50
loop:   addi r2, r2, 3
        addi r1, r1, -1
        bne  r1, zero, loop
        halt
`

// spin never halts and never touches memory.
const spin = `
        .text
loop:   addi r1, r1, 1
        beq  zero, zero, loop
`

// misaligned faults in the emulator at its third instruction.
const misaligned = `
        .text
        li   r1, 5
        addi r2, r2, 1
        ld   r3, 0(r1)
        halt
`

func assemble(t testing.TB, src string) *prog.Program {
	t.Helper()
	p, err := asm.Assemble("stream", src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// newTestStream starts a stream over a fresh emulator of src.
func newTestStream(t testing.TB, src string, limit uint64) *stream {
	t.Helper()
	em, err := emu.New(assemble(t, src))
	if err != nil {
		t.Fatal(err)
	}
	return newStream(em, limit)
}

// readN makes up to n Next calls, stopping at the end of the stream.
func readN(t testing.TB, r *streamReader, n int) []emu.Dyn {
	t.Helper()
	var out []emu.Dyn
	for i := 0; i < n; i++ {
		d, ok, err := r.Next()
		if err != nil {
			t.Fatalf("reader %d at %d: %v", r.id, r.pos, err)
		}
		if !ok {
			break
		}
		out = append(out, d)
	}
	return out
}

// TestStreamReadersSeeSameEntries: readers advancing at different rates
// (so some copy from behind the head while others step the emulator)
// each see exactly the stream a standalone emulator produces, from a
// start past the program's first instructions, as after a fast-forward.
func TestStreamReadersSeeSameEntries(t *testing.T) {
	ref, err := emu.New(assemble(t, countdown))
	if err != nil {
		t.Fatal(err)
	}
	em := ref.Clone()
	if _, err := em.Run(5); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(5); err != nil {
		t.Fatal(err)
	}
	var want []emu.Dyn
	for !ref.Halted() {
		d, err := ref.Step()
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, d)
	}

	s := newStream(em, 0)
	readers := []*streamReader{s.reader(0), s.reader(1), s.reader(2)}
	got := make([][]emu.Dyn, len(readers))
	rates := []int{7, 3, 11}
	for progress := true; progress; {
		progress = false
		for i, r := range readers {
			chunk := readN(t, r, rates[i])
			got[i] = append(got[i], chunk...)
			progress = progress || len(chunk) > 0
		}
	}
	for i, r := range readers {
		if len(got[i]) != len(want) || r.pos != uint64(len(want)) {
			t.Fatalf("reader %d read %d entries (position %d), want %d", i, len(got[i]), r.pos, len(want))
		}
		for k := range want {
			if got[i][k] != want[k] {
				t.Fatalf("reader %d entry %d = %+v, want %+v", i, k, got[i][k], want[k])
			}
		}
	}
}

// TestStreamTrimFollowsSlowestReader: a full ring moves its tail up to
// the slowest open reader — never past it, and never keeping an entry
// behind it — and grows only while the live span needs the room.
func TestStreamTrimFollowsSlowestReader(t *testing.T) {
	s := newTestStream(t, spin, 0)
	a, b := s.reader(0), s.reader(1)
	for i := 0; i < 10_000; i++ {
		readN(t, a, 1)
		readN(t, b, 1)
	}
	if len(s.ring) != streamMinRing {
		t.Fatalf("lockstep readers grew the ring to %d entries, want %d", len(s.ring), streamMinRing)
	}
	// b lags a by 1000 entries: the ring must grow to hold them, and no
	// trim may drop one b has yet to read.
	for i := 0; i < 1000; i++ {
		readN(t, a, 1)
		if s.tail > b.pos {
			t.Fatalf("tail %d passed the slowest reader at %d", s.tail, b.pos)
		}
	}
	if len(s.ring) != 1024 {
		t.Fatalf("ring holds %d entries for a 1000-entry lag, want 1024", len(s.ring))
	}
	readN(t, b, 1000)
	// Fill the ring to the brim; the next produce trims to the slowest
	// reader exactly.
	for s.head-s.tail < uint64(len(s.ring)) {
		readN(t, a, 1)
	}
	readN(t, b, 10)
	readN(t, a, 1)
	if low := min(a.pos, b.pos); s.tail != low {
		t.Fatalf("trim left the tail at %d, slowest open reader is at %d", s.tail, low)
	}
	if len(s.ring) != 1024 {
		t.Fatalf("trim grew the ring to %d with a %d-entry live span", len(s.ring), s.head-s.tail)
	}
}

// TestStreamClosedReaderDoesNotPin: a dead node's closed reader never
// holds the tail back, while an idle open one does.
func TestStreamClosedReaderDoesNotPin(t *testing.T) {
	s := newTestStream(t, spin, 0)
	a, dead := s.reader(0), s.reader(1)
	dead.closed = true
	readN(t, a, 10_000)
	if len(s.ring) != streamMinRing || s.tail == 0 {
		t.Fatalf("closed reader pinned the ring: %d entries, tail %d", len(s.ring), s.tail)
	}

	s = newTestStream(t, spin, 0)
	a, _ = s.reader(0), s.reader(1)
	readN(t, a, 10_000)
	if s.tail != 0 || len(s.ring) < 10_000 {
		t.Fatalf("idle open reader did not pin the ring: %d entries, tail %d", len(s.ring), s.tail)
	}
}

// TestStreamEndReachesEveryReader: a halt, the instruction limit and an
// emulator error each end the stream at one position, and every reader
// that reaches it — first or last, once or again — gets the same answer.
func TestStreamEndReachesEveryReader(t *testing.T) {
	for _, tc := range []struct {
		name    string
		src     string
		limit   uint64
		end     uint64
		wantErr string
	}{
		{"halt", countdown, 0, 152, ""},
		{"limit", spin, 100, 100, ""},
		{"error", misaligned, 0, 2, "misaligned"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestStream(t, tc.src, tc.limit)
			readers := []*streamReader{s.reader(0), s.reader(1), s.reader(2)}
			var first error
			for i, r := range readers {
				for k := 0; k < 2; k++ {
					var err error
					ok := true
					for ok && err == nil {
						_, ok, err = r.Next()
					}
					if r.pos != tc.end {
						t.Fatalf("reader %d ended at %d, want %d", i, r.pos, tc.end)
					}
					if i == 0 && k == 0 {
						first = err
					}
					if err != first {
						t.Fatalf("reader %d got %v, reader 0 got %v", i, err, first)
					}
				}
			}
			if tc.wantErr == "" && first != nil {
				t.Fatalf("unexpected error %v", first)
			}
			if tc.wantErr != "" && (first == nil || !strings.Contains(first.Error(), tc.wantErr)) {
				t.Fatalf("error = %v, want one mentioning %q", first, tc.wantErr)
			}
		})
	}
}

// TestStreamSealedUnderrun: while sealed (a parallel window), a reader
// behind the head still reads, and a reader at the head gets an error
// naming its node and position instead of stepping the emulator.
func TestStreamSealedUnderrun(t *testing.T) {
	s := newTestStream(t, spin, 0)
	a, b := s.reader(0), s.reader(3)
	readN(t, a, 5)
	s.sealed = true
	if n := len(readN(t, b, 5)); n != 5 {
		t.Fatalf("sealed reader behind the head read %d of 5", n)
	}
	_, ok, err := b.Next()
	if ok || err == nil || !strings.Contains(err.Error(), "node 3") || !strings.Contains(err.Error(), "position 5") {
		t.Fatalf("reader at the head: ok=%v err=%v, want an underrun naming node 3 and position 5", ok, err)
	}
	if got := s.em.InstrCount(); got != 5 {
		t.Fatalf("sealed stream stepped the emulator: %d instructions, want 5", got)
	}
}

// TestStreamFillCoversRegionDrains: after fill(k), every reader can make
// k more Next calls without stepping the emulator, even a node that
// drains a whole remote private region in one call. The fill therefore
// counts depth-0 entries and stops only outside every region; a count in
// positions, or a stop inside a region, underruns here. The sweep over k
// (cycles times fetch width in a real window) varies where each window's
// last call falls relative to the region markers.
func TestStreamFillCoversRegionDrains(t *testing.T) {
	p := assemble(t, privateReduction)
	pt, err := mem.Partition{NumNodes: 2, BlockPages: 1, ReplicateText: true}.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 8; k++ {
		em, err := emu.NewAt(p, p.Labels["bench_main"])
		if err != nil {
			t.Fatal(err)
		}
		s := newStream(em, 0)
		var srcs []*regionSource
		for id := 0; id < 2; id++ {
			var skipped NodeStats
			srcs = append(srcs, &regionSource{inner: s.reader(id), pt: pt, nodeID: id, skipped: &skipped.SkippedInstr})
		}
		done := make([]bool, len(srcs))
		for windows := 0; !done[0] || !done[1]; windows++ {
			if windows > 1_000_000 {
				t.Fatal("stream never ended")
			}
			s.fill(uint64(k))
			s.sealed = true
			for id, src := range srcs {
				for n := 0; n < k && !done[id]; n++ {
					_, ok, err := src.Next()
					if err != nil {
						t.Fatalf("k=%d: node %d after %d windows: %v", k, id, windows, err)
					}
					done[id] = !ok
				}
			}
			s.sealed = false
		}
		var skipped uint64
		for _, src := range srcs {
			skipped += src.skipped.Value()
		}
		if skipped == 0 {
			t.Fatal("no region was skipped: the drain path went untested")
		}
	}
}

// TestStreamNextZeroAllocs: once the ring has grown to its working size,
// reading — behind the head or stepping at it — allocates nothing.
func TestStreamNextZeroAllocs(t *testing.T) {
	s := newTestStream(t, spin, 0)
	a, b := s.reader(0), s.reader(1)
	readN(t, a, 500)
	readN(t, b, 500)
	if n := testing.AllocsPerRun(1000, func() {
		a.Next()
		b.Next()
	}); n != 0 {
		t.Fatalf("streamReader.Next allocates %.1f times per pair of calls", n)
	}
}

// TestStreamDeadNodeKeepsRingSize: a node that dies mid-run releases its
// hold on the ring, so the degraded run keeps the ring size of the
// fault-free one instead of keeping every instruction since the death.
func TestStreamDeadNodeKeepsRingSize(t *testing.T) {
	if testing.Short() {
		t.Skip("two 100k-instruction 9-node runs")
	}
	w, ok := workload.ByName("compress")
	if !ok {
		t.Fatal("no compress workload")
	}
	p, err := w.Program(1)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := mem.Partition{NumNodes: 9, BlockPages: 1, ReplicateText: true}.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	ring := func(fc fault.Config) int {
		cfg := DefaultConfig(9)
		cfg.Topology.Kind = bus.TopoMesh
		cfg.MaxInstr = 100_000
		cfg.FastForwardPC = p.Labels["bench_main"]
		cfg.Fault = fc
		m, err := NewMachine(cfg, p, pt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		checkStreamConsumed(t, m)
		return len(m.stream.ring)
	}
	clean := ring(fault.Config{})
	degraded := ring(fault.Config{
		Seed:               1,
		Deaths:             []fault.Death{{Node: 1, Cycle: 30_000}},
		Recover:            true,
		RetryTimeoutCycles: 1000,
		MaxRetries:         3,
	})
	if degraded != clean {
		t.Fatalf("ring high-water mark %d entries with a dead node, %d fault-free", degraded, clean)
	}
}
