package bus

import "testing"

// The DataPhase tests pin the phase semantics stall attribution relies
// on (see Network.DataPhase): where a load's data-bearing message sits,
// with the queued/blocked split decided by the binding constraint so
// the answer cannot flip inside a cycle-skipped stretch.

func TestDataMatch(t *testing.T) {
	const addr, dst = 0x100, 2
	cases := []struct {
		name string
		m    Message
		want bool
	}{
		{"broadcast from another node", Message{Kind: Broadcast, Src: 0, Addr: addr}, true},
		{"own broadcast", Message{Kind: Broadcast, Src: dst, Addr: addr}, false},
		{"response to dst", Message{Kind: Response, Src: 0, Dst: dst, Addr: addr, PayloadBytes: 32}, true},
		{"response to other node", Message{Kind: Response, Src: 0, Dst: 3, Addr: addr, PayloadBytes: 32}, false},
		{"own bare read request", Message{Kind: Request, Src: dst, Dst: 0, Addr: addr}, true},
		{"writeback (payload request)", Message{Kind: Request, Src: dst, Dst: 0, Addr: addr, PayloadBytes: 32}, false},
		{"wrong address", Message{Kind: Broadcast, Src: 0, Addr: addr + 8}, false},
		{"retry control traffic", Message{Kind: Response, Src: 0, Dst: dst, Addr: addr, Ctl: CtlRetryResp}, false},
	}
	for _, c := range cases {
		if got := dataMatch(c.m, addr, dst); got != c.want {
			t.Errorf("%s: dataMatch = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestBusDataPhase(t *testing.T) {
	b := New(DefaultConfig(), 4)
	if p := b.DataPhase(0x100, 0, 0); p != PhaseAbsent {
		t.Fatalf("empty bus: phase = %v, want absent", p)
	}
	// A lone head waiting out its own broadcast-queue penalty is queued.
	b.Enqueue(Message{Kind: Broadcast, Src: 1, Addr: 0x100, PayloadBytes: 32, ReadyAt: 10})
	b.Tick(0)
	if p := b.DataPhase(0x100, 0, 0); p != PhaseQueued {
		t.Fatalf("head before ReadyAt: phase = %v, want queued", p)
	}
	// The sender itself never matches its own broadcast.
	if p := b.DataPhase(0x100, 1, 0); p != PhaseAbsent {
		t.Fatalf("sender view: phase = %v, want absent", p)
	}
	// Once granted, the message occupies the wire.
	b.Tick(10)
	if p := b.DataPhase(0x100, 0, 10); p != PhaseTransfer {
		t.Fatalf("granted: phase = %v, want transfer", p)
	}
}

func TestBusDataPhaseBlockedVsQueued(t *testing.T) {
	b := New(DefaultConfig(), 4)
	// 32B payload + 8B header = 5 beats at divisor 2 = 10 cycles on the wire.
	b.Enqueue(Message{Kind: Broadcast, Src: 0, Addr: 0x200, PayloadBytes: 32, ReadyAt: 0})
	b.Enqueue(Message{Kind: Broadcast, Src: 1, Addr: 0x300, PayloadBytes: 32, ReadyAt: 0})
	b.Tick(0) // round-robin grants src 0
	if p := b.DataPhase(0x200, 1, 0); p != PhaseTransfer {
		t.Fatalf("granted message: phase = %v, want transfer", p)
	}
	// src 1's head is ready but lost arbitration: blocked behind traffic.
	if p := b.DataPhase(0x300, 0, 0); p != PhaseBlocked {
		t.Fatalf("ready head behind busy bus: phase = %v, want blocked", p)
	}
	// Deeper in a source queue: blocked regardless of its own readiness.
	b.Enqueue(Message{Kind: Broadcast, Src: 1, Addr: 0x400, PayloadBytes: 32, ReadyAt: 0})
	if p := b.DataPhase(0x400, 0, 0); p != PhaseBlocked {
		t.Fatalf("second in queue: phase = %v, want blocked", p)
	}
	// A head whose ReadyAt outlasts the in-flight transfer (done at 10)
	// is bound by its own penalty, not the contention: queued.
	b.Enqueue(Message{Kind: Broadcast, Src: 2, Addr: 0x500, PayloadBytes: 32, ReadyAt: 1000})
	if p := b.DataPhase(0x500, 0, 0); p != PhaseQueued {
		t.Fatalf("head outlasting transfer: phase = %v, want queued", p)
	}
}

func TestRingDataPhase(t *testing.T) {
	r := NewRing(DefaultLinkConfig(), 4)
	if p := r.DataPhase(0x100, 2, 0); p != PhaseAbsent {
		t.Fatalf("empty ring: phase = %v, want absent", p)
	}
	// Sitting uninjected with a free link: its own ReadyAt binds.
	r.Enqueue(Message{Kind: Broadcast, Src: 0, Addr: 0x100, PayloadBytes: 32, ReadyAt: 5})
	if p := r.DataPhase(0x100, 2, 0); p != PhaseQueued {
		t.Fatalf("uninjected, link free: phase = %v, want queued", p)
	}
	// First hop in progress (32B+8B = 5 beats * 2 + 1 hop = 11 cycles).
	r.Tick(5)
	if p := r.DataPhase(0x100, 2, 5); p != PhaseTransfer {
		t.Fatalf("hop in progress: phase = %v, want transfer", p)
	}
	// A second message wanting the same occupied outbound link waits on
	// contention, not on its own penalty: blocked.
	r.Enqueue(Message{Kind: Broadcast, Src: 0, Addr: 0x200, PayloadBytes: 32, ReadyAt: 0})
	r.Tick(6)
	if p := r.DataPhase(0x200, 2, 6); p != PhaseBlocked {
		t.Fatalf("busy link: phase = %v, want blocked", p)
	}
}

// TestDataPhaseZeroAllocs: attribution consults DataPhase every cycle a
// head-of-window load waits on the interconnect, so the query must not
// allocate.
func TestDataPhaseZeroAllocs(t *testing.T) {
	b := New(DefaultConfig(), 4)
	b.Enqueue(Message{Kind: Broadcast, Src: 0, Addr: 0x200, PayloadBytes: 32, ReadyAt: 0})
	b.Enqueue(Message{Kind: Broadcast, Src: 1, Addr: 0x300, PayloadBytes: 32, ReadyAt: 0})
	b.Tick(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		b.DataPhase(0x300, 0, 0)
	}); allocs != 0 {
		t.Fatalf("Bus.DataPhase allocated %.2f times per call", allocs)
	}
	r := NewRing(DefaultLinkConfig(), 4)
	r.Enqueue(Message{Kind: Broadcast, Src: 0, Addr: 0x100, PayloadBytes: 32, ReadyAt: 0})
	r.Tick(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		r.DataPhase(0x100, 2, 0)
	}); allocs != 0 {
		t.Fatalf("Ring.DataPhase allocated %.2f times per call", allocs)
	}
}

// TestMeshDataPhase mirrors TestRingDataPhase on the multi-hop mesh:
// an uninjected tree whose own readiness binds is queued, hops on the
// wire are transfers, and a tree waiting out another message's link
// occupancy is blocked.
func TestMeshDataPhase(t *testing.T) {
	ms := NewMesh(DefaultLinkConfig(), 9)
	if p := ms.DataPhase(0x100, 8, 0); p != PhaseAbsent {
		t.Fatalf("empty mesh: phase = %v, want absent", p)
	}
	// Sitting uninjected with free links: its own ReadyAt binds.
	ms.Enqueue(Message{Kind: Broadcast, Src: 0, Addr: 0x100, PayloadBytes: 32, ReadyAt: 5})
	if p := ms.DataPhase(0x100, 8, 0); p != PhaseQueued {
		t.Fatalf("uninjected, links free: phase = %v, want queued", p)
	}
	// First hops in progress (32B+8B = 5 beats * 2 + 1 hop = 11 cycles).
	ms.Tick(5)
	if p := ms.DataPhase(0x100, 8, 5); p != PhaseTransfer {
		t.Fatalf("hops in progress: phase = %v, want transfer", p)
	}
	// A second tree wanting the same occupied outbound links waits on
	// contention, not on its own penalty: blocked.
	ms.Enqueue(Message{Kind: Broadcast, Src: 0, Addr: 0x200, PayloadBytes: 32, ReadyAt: 0})
	ms.Tick(6)
	if p := ms.DataPhase(0x200, 8, 6); p != PhaseBlocked {
		t.Fatalf("busy links: phase = %v, want blocked", p)
	}
}

// TestMeshDataPhaseStableUnderSkip is the satellite pin for multi-hop
// attribution: two identical meshes run the same traffic, one ticked
// every cycle and one ticked only at NextDeliveryCycle boundaries with
// the frozen phase replicated across each certified no-op stretch. The
// per-cycle phase traces (observed at a far corner, so messages cross
// Queued -> Blocked -> Transfer over several hops) must be identical —
// phases cannot flip inside a skipped stretch.
func TestMeshDataPhaseStableUnderSkip(t *testing.T) {
	const addr, dst, until = 0x200, 8, 400
	build := func(wrap bool) *Mesh {
		var ms *Mesh
		if wrap {
			ms = NewTorus(DefaultLinkConfig(), 9)
		} else {
			ms = NewMesh(DefaultLinkConfig(), 9)
		}
		// Overlapping trees from the same corner create link contention;
		// staggered ReadyAt exercises the queued phase.
		ms.Enqueue(Message{Kind: Broadcast, Src: 0, Addr: 0x100, PayloadBytes: 32, ReadyAt: 2})
		ms.Enqueue(Message{Kind: Broadcast, Src: 0, Addr: addr, PayloadBytes: 32, ReadyAt: 9})
		ms.Enqueue(Message{Kind: Request, Src: 3, Dst: dst, Addr: addr, ReadyAt: 40})
		return ms
	}
	for _, wrap := range []bool{false, true} {
		polled := build(wrap)
		var pollTrace []MsgPhase
		for now := uint64(0); now <= until; now++ {
			polled.Tick(now)
			pollTrace = append(pollTrace, polled.DataPhase(addr, dst, now))
		}

		skipped := build(wrap)
		var skipTrace []MsgPhase
		for now := uint64(0); now <= until; {
			skipped.Tick(now)
			p := skipped.DataPhase(addr, dst, now)
			next := skipped.NextDeliveryCycle(now)
			if next == NoEvent || next > until+1 {
				next = until + 1
			}
			for ; now < next && now <= until; now++ {
				skipTrace = append(skipTrace, p)
			}
		}
		for c := range pollTrace {
			if pollTrace[c] != skipTrace[c] {
				t.Fatalf("wrap=%v: phase flipped inside a skipped stretch at cycle %d: poll %v, skip %v",
					wrap, c, pollTrace[c], skipTrace[c])
			}
		}
	}
}
