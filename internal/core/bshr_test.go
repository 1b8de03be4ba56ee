package core

import (
	"testing"
	"testing/quick"

	"github.com/wisc-arch/datascalar/internal/ooo"
)

func TestBSHRWaitThenArrive(t *testing.T) {
	b := NewBSHR(8)
	ready, _ := b.Request(0x100, 1, 0)
	if ready {
		t.Fatal("request satisfied with empty BSHR")
	}
	toks := b.Arrive(0x100, 50)
	if len(toks) != 1 || toks[0] != 1 {
		t.Fatalf("arrive released %v", toks)
	}
	if b.Waiting() != 0 {
		t.Fatal("entry not freed")
	}
	s := b.Stats()
	if s.Allocs.Value() != 1 || s.Matched.Value() != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestBSHRJoinSharesOneArrival(t *testing.T) {
	b := NewBSHR(8)
	b.Request(0x100, 1, 0)
	b.Request(0x100, 2, 0)
	b.Request(0x100, 3, 0)
	if b.Stats().Joins.Value() != 2 {
		t.Fatalf("joins = %d", b.Stats().Joins.Value())
	}
	toks := b.Arrive(0x100, 10)
	if len(toks) != 3 {
		t.Fatalf("released %v", toks)
	}
}

func TestBSHRBufferedHit(t *testing.T) {
	b := NewBSHR(8)
	if toks := b.Arrive(0x200, 30); len(toks) != 0 {
		t.Fatal("unsolicited arrival released tokens")
	}
	ready, at := b.Request(0x200, 7, 0)
	if !ready || at != 30 {
		t.Fatalf("buffered hit = %v, %d", ready, at)
	}
	if b.Stats().BufferedHits.Value() != 1 {
		t.Fatal("buffered hit not counted")
	}
	// Entry consumed: second request waits.
	if ready, _ := b.Request(0x200, 8, 0); ready {
		t.Fatal("buffered entry not consumed")
	}
}

func TestBSHREarliestFirstMatching(t *testing.T) {
	b := NewBSHR(8)
	b.Request(0x100, 1, 0) // first waiting entry
	b.Arrive(0x100, 5)     // matches entry with tok 1
	b.Request(0x100, 2, 0)
	toks := b.Arrive(0x100, 9)
	if len(toks) != 1 || toks[0] != 2 {
		t.Fatalf("second arrival released %v", toks)
	}
}

func TestBSHRAbsorbBuffered(t *testing.T) {
	b := NewBSHR(8)
	b.Arrive(0x300, 1) // buffered
	b.Absorb(0x300)    // removes the buffered copy
	if ready, _ := b.Request(0x300, 1, 0); ready {
		t.Fatal("absorbed buffered entry still served data")
	}
	if b.Stats().Squashes.Value() != 1 {
		t.Fatal("absorb not counted")
	}
}

func TestBSHRAbsorbDefersToNextArrival(t *testing.T) {
	b := NewBSHR(8)
	b.Absorb(0x300) // nothing buffered: owed
	if toks := b.Arrive(0x300, 5); len(toks) != 0 {
		t.Fatal("absorbed arrival released tokens")
	}
	if b.Stats().Squashes.Value() != 1 {
		t.Fatalf("squashes = %d", b.Stats().Squashes.Value())
	}
	// Owed count consumed: the next arrival buffers normally.
	b.Arrive(0x300, 6)
	if ready, _ := b.Request(0x300, 9, 0); !ready {
		t.Fatal("post-absorb arrival lost")
	}
}

func TestBSHRWaiterNeverStarvedByAbsorb(t *testing.T) {
	// An owed absorption must never consume an arrival a waiter needs.
	b := NewBSHR(8)
	b.Absorb(0x400)
	b.Request(0x400, 11, 0)
	toks := b.Arrive(0x400, 3)
	if len(toks) != 1 || toks[0] != 11 {
		t.Fatalf("waiter starved: %v", toks)
	}
}

func TestBSHRBufferOverflowNeverDrops(t *testing.T) {
	b := NewBSHR(2)
	b.Arrive(0x100, 1)
	b.Arrive(0x200, 2)
	b.Arrive(0x300, 3) // beyond capacity: counted, never dropped
	if b.Stats().Overflows.Value() != 1 {
		t.Fatalf("overflows = %d", b.Stats().Overflows.Value())
	}
	// ESP has no re-request path: every buffered broadcast must remain
	// consumable or a future load would wait forever.
	for i, line := range []uint64{0x100, 0x200, 0x300} {
		if ready, _ := b.Request(line, ooo.LoadToken(i), 0); !ready {
			t.Fatalf("buffered broadcast 0x%x lost", line)
		}
	}
	if b.Stats().MaxBuffered != 3 {
		t.Fatalf("MaxBuffered = %d", b.Stats().MaxBuffered)
	}
}

func TestBSHRWaitingNeverDropped(t *testing.T) {
	b := NewBSHR(1)
	for i := 0; i < 10; i++ {
		b.Request(uint64(0x1000+i*64), ooo.LoadToken(i), 0)
	}
	if b.Waiting() != 10 {
		t.Fatalf("waiting = %d, want 10 (capacity applies to buffered only)", b.Waiting())
	}
	// Arrivals can still buffer without touching waiters.
	b.Arrive(0x9000, 1)
	if b.Waiting() != 10 {
		t.Fatal("buffering disturbed waiters")
	}
}

// Property: per line, tokens released over any operation sequence equal
// tokens requested minus tokens still waiting (no duplication, no loss).
func TestBSHRTokenConservationQuick(t *testing.T) {
	type op struct {
		Kind byte // 0 request, 1 arrive, 2 squash
		Line byte
	}
	f := func(ops []op) bool {
		b := NewBSHR(4)
		requested := map[uint64]int{}
		released := map[uint64]int{}
		tok := ooo.LoadToken(0)
		for _, o := range ops {
			line := uint64(o.Line%8) * 64
			switch o.Kind % 3 {
			case 0:
				ready, _ := b.Request(line, tok, 0)
				requested[line]++
				if ready {
					released[line]++
				}
				tok++
			case 1:
				released[line] += len(b.Arrive(line, 1))
			case 2:
				b.Absorb(line)
			}
		}
		// Drain: deliver enough arrivals to release all waiters.
		for i := 0; i < len(ops)+8; i++ {
			for _, line := range b.WaitingLines() {
				released[line] += len(b.Arrive(line, 2))
			}
		}
		if b.Waiting() != 0 {
			return false
		}
		for line, req := range requested {
			if released[line] != req {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
