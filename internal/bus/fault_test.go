package bus

import "testing"

// PurgeSource on a bus removes only the dead node's unsent queue; a
// transfer already granted the bus completes.
func TestBusPurgeSource(t *testing.T) {
	b := New(Config{WidthBytes: 8, ClockDivisor: 1}, 3)
	b.Enqueue(Message{Kind: Broadcast, Src: 0, Addr: 0x100, PayloadBytes: 32})
	b.Tick(0) // grants node 0's broadcast: it is now on the wire
	b.Enqueue(Message{Kind: Broadcast, Src: 0, Addr: 0x200, PayloadBytes: 32})
	b.Enqueue(Message{Kind: Broadcast, Src: 0, Addr: 0x300, PayloadBytes: 32})
	b.Enqueue(Message{Kind: Broadcast, Src: 1, Addr: 0x400, PayloadBytes: 32})

	if got := b.SourcePending(0); got != 3 {
		t.Fatalf("SourcePending(0) = %d, want 3 (2 queued + 1 in flight)", got)
	}
	if got := b.PurgeSource(0); got != 2 {
		t.Fatalf("PurgeSource(0) = %d, want 2 (the in-flight transfer survives)", got)
	}
	// Drain: the in-flight 0x100 and node 1's 0x400 still deliver.
	var addrs []uint64
	for now := uint64(1); now < 100 && b.Pending() > 0; now++ {
		if m, ok := b.Tick(now); ok {
			addrs = append(addrs, m.Addr)
		}
	}
	want := []uint64{0x100, 0x400}
	if len(addrs) != len(want) || addrs[0] != want[0] || addrs[1] != want[1] {
		t.Fatalf("delivered %#x, want %#x", addrs, want)
	}
}

// PurgeSource on a ring removes messages that have not started their
// first hop; travelling messages keep circulating to completion.
func TestRingPurgeSource(t *testing.T) {
	r := NewRing(LinkConfig{WidthBytes: 8, ClockDivisor: 1, HopCycles: 1}, 3)
	r.Enqueue(Message{Kind: Broadcast, Src: 0, Addr: 0x100, PayloadBytes: 8})
	r.Tick(0) // first hop starts: 0x100 is travelling
	r.Enqueue(Message{Kind: Broadcast, Src: 0, Addr: 0x200, PayloadBytes: 8, ReadyAt: 50})
	r.Enqueue(Message{Kind: Broadcast, Src: 1, Addr: 0x300, PayloadBytes: 8})

	if got := r.SourcePending(0); got != 2 {
		t.Fatalf("SourcePending(0) = %d, want 2", got)
	}
	if got := r.PurgeSource(0); got != 1 {
		t.Fatalf("PurgeSource(0) = %d, want 1 (travelling message survives)", got)
	}
	seen := map[uint64]int{}
	for now := uint64(1); now < 200 && r.Pending() > 0; now++ {
		for _, a := range r.Tick(now) {
			seen[a.Msg.Addr]++
		}
	}
	if seen[0x200] != 0 {
		t.Fatal("purged message 0x200 was delivered")
	}
	// Each surviving broadcast lands at both non-source nodes.
	if seen[0x100] != 2 || seen[0x300] != 2 {
		t.Fatalf("arrivals = %v, want 0x100:2 0x300:2", seen)
	}
}

func TestCtlZeroValueIsNone(t *testing.T) {
	var m Message
	if m.Ctl != CtlNone {
		t.Fatal("zero Message must carry CtlNone")
	}
}

// PurgeSource on a mesh removes messages whose broadcast trees have not
// touched the wire; trees with any hop already taken keep flowing to
// every destination — the routers forward them without the dead source.
func TestMeshPurgeSource(t *testing.T) {
	for _, wrap := range []bool{false, true} {
		var ms *Mesh
		if wrap {
			ms = NewTorus(LinkConfig{WidthBytes: 8, ClockDivisor: 1, HopCycles: 1}, 9)
		} else {
			ms = NewMesh(LinkConfig{WidthBytes: 8, ClockDivisor: 1, HopCycles: 1}, 9)
		}
		ms.Enqueue(Message{Kind: Broadcast, Src: 4, Addr: 0x100, PayloadBytes: 8})
		ms.Tick(0) // first hops start: 0x100 is travelling
		ms.Enqueue(Message{Kind: Broadcast, Src: 4, Addr: 0x200, PayloadBytes: 8, ReadyAt: 50})
		ms.Enqueue(Message{Kind: Broadcast, Src: 1, Addr: 0x300, PayloadBytes: 8})

		if got := ms.SourcePending(4); got != 2 {
			t.Fatalf("wrap=%v: SourcePending(4) = %d, want 2", wrap, got)
		}
		if got := ms.PurgeSource(4); got != 1 {
			t.Fatalf("wrap=%v: PurgeSource(4) = %d, want 1 (travelling tree survives)", wrap, got)
		}
		if got := ms.SourcePending(4); got != 1 {
			t.Fatalf("wrap=%v: SourcePending(4) after purge = %d, want 1", wrap, got)
		}
		seen := map[uint64]int{}
		for now := uint64(1); now < 500 && ms.Pending() > 0; now++ {
			for _, a := range ms.Tick(now) {
				seen[a.Msg.Addr]++
			}
		}
		if seen[0x200] != 0 {
			t.Fatalf("wrap=%v: purged message 0x200 was delivered", wrap)
		}
		// Each surviving broadcast still lands at all 8 other nodes.
		if seen[0x100] != 8 || seen[0x300] != 8 {
			t.Fatalf("wrap=%v: arrivals = %v, want 0x100:8 0x300:8", wrap, seen)
		}
	}
}
