package trace

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"

	"github.com/wisc-arch/datascalar/internal/asm"
)

func TestTraceRoundTrip(t *testing.T) {
	refs := []Ref{
		{Addr: 0x1000, Size: 8},
		{Addr: 0x1008, Size: 8, Store: true},
		{Addr: 0x10000, Size: 8, Instr: true},
		{Addr: 0xfff, Size: 1},
		{Addr: 0x20000000, Size: 4, Store: true},
		{Addr: 0x1000, Size: 8}, // backwards delta
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(len(refs)) {
		t.Fatalf("count = %d", w.Count())
	}

	rd, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got []Ref
	if err := rd.ForEach(func(r Ref) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(refs) {
		t.Fatalf("read %d refs", len(got))
	}
	for i := range refs {
		if got[i] != refs[i] {
			t.Fatalf("ref %d: got %+v want %+v", i, got[i], refs[i])
		}
	}
}

func TestTraceRejectsBadInput(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("JUNKxxxx"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader([]byte("DS"))); err == nil {
		t.Fatal("truncated header accepted")
	}
	// Wrong version.
	if _, err := NewReader(bytes.NewReader([]byte{'D', 'S', 'T', 'R', 99})); err == nil {
		t.Fatal("future version accepted")
	}
	// Bad size code in a record.
	r, err := NewReader(bytes.NewReader([]byte{'D', 'S', 'T', 'R', 1, 0x0c, 0x00}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err == nil {
		t.Fatal("bad size code accepted")
	}
	// Truncated varint.
	r, err = NewReader(bytes.NewReader([]byte{'D', 'S', 'T', 'R', 1, 0x08, 0x80}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err == nil || err == io.EOF {
		t.Fatalf("truncated delta returned %v", err)
	}
	// Unsupported size at write time.
	w, err := NewWriter(&bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Ref{Addr: 0, Size: 3}); err == nil {
		t.Fatal("size 3 accepted")
	}
}

func TestRecordAndReplayMatchesLiveRun(t *testing.T) {
	p, err := asm.Assemble("t", tinyLoop)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := Record(&buf, p, 0, 100_000, true)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing recorded")
	}

	// A live traffic analysis and a replayed one must agree exactly.
	live := NewTrafficAnalyzer(DefaultTrafficConfig())
	if err := ForEachRefFrom(p, 0, 100_000, true, func(r Ref) error {
		if r.Instr {
			return nil
		}
		return live.Observe(r)
	}); err != nil {
		t.Fatal(err)
	}
	liveRes := live.Finish()

	rd, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replay := NewTrafficAnalyzer(DefaultTrafficConfig())
	if err := rd.ForEach(func(r Ref) error {
		if r.Instr {
			return nil
		}
		return replay.Observe(r)
	}); err != nil {
		t.Fatal(err)
	}
	replayRes := replay.Finish()

	if liveRes != replayRes {
		t.Fatalf("live %+v != replay %+v", liveRes, replayRes)
	}
}

func TestTraceCompression(t *testing.T) {
	// A sequential stream should cost little more than 2 bytes/ref.
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if err := w.Write(Ref{Addr: uint64(0x1000 + i*8), Size: 8}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if perRef := float64(buf.Len()) / 10000; perRef > 2.5 {
		t.Fatalf("sequential stream costs %.1f bytes/ref", perRef)
	}
}

// Property: arbitrary reference sequences round-trip exactly.
func TestTraceRoundTripQuick(t *testing.T) {
	sizes := []int{1, 4, 8}
	f := func(addrs []uint64, kinds []uint8) bool {
		var refs []Ref
		for i, a := range addrs {
			k := uint8(0)
			if i < len(kinds) {
				k = kinds[i]
			}
			refs = append(refs, Ref{
				Addr:  a,
				Size:  sizes[int(k)%3],
				Store: k&4 != 0,
				Instr: k&8 != 0,
			})
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		for _, r := range refs {
			if w.Write(r) != nil {
				return false
			}
		}
		if w.Flush() != nil {
			return false
		}
		rd, err := NewReader(&buf)
		if err != nil {
			return false
		}
		i := 0
		err = rd.ForEach(func(r Ref) error {
			if r != refs[i] {
				return io.ErrUnexpectedEOF
			}
			i++
			return nil
		})
		return err == nil && i == len(refs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
