package bus

import (
	"testing"
	"testing/quick"
)

func runRing(r *Mesh, until uint64) map[uint64][]Arrival {
	out := map[uint64][]Arrival{}
	for now := uint64(0); now <= until && (r.Pending() > 0 || now == 0); now++ {
		// Tick's slice is only valid until the next call: copy to retain.
		if arr := r.Tick(now); len(arr) > 0 {
			out[now] = append([]Arrival(nil), arr...)
		}
	}
	return out
}

func TestRingBroadcastVisitsEveryNode(t *testing.T) {
	r := NewRing(Config{WidthBytes: 8, ClockDivisor: 1, HopCycles: 0}, 4)
	r.Enqueue(Message{Kind: Broadcast, Src: 1, Addr: 0x100, PayloadBytes: 8})
	byCycle := runRing(r, 100)

	seen := map[int]uint64{}
	for cyc, arrs := range byCycle {
		for _, a := range arrs {
			seen[a.Node] = cyc
		}
	}
	if len(seen) != 3 {
		t.Fatalf("broadcast reached %d nodes, want 3 (all but sender): %v", len(seen), seen)
	}
	if _, hitSender := seen[1]; hitSender {
		t.Fatal("broadcast delivered to its sender")
	}
	// Hop order from node 1: 2, then 3, then 0; 2 beats/hop with these
	// parameters (16 wire bytes / 8 wide at divisor 1).
	if !(seen[2] < seen[3] && seen[3] < seen[0]) {
		t.Fatalf("hop order wrong: %v", seen)
	}
	if r.Pending() != 0 {
		t.Fatal("broadcast not stripped by sender")
	}
}

func TestRingPointToPointStopsAtDst(t *testing.T) {
	r := NewRing(DefaultConfig(), 4)
	r.Enqueue(Message{Kind: Request, Src: 0, Dst: 2, Addr: 0x40})
	byCycle := runRing(r, 200)
	var arrivals []Arrival
	for _, a := range byCycle {
		arrivals = append(arrivals, a...)
	}
	if len(arrivals) != 1 || arrivals[0].Node != 2 {
		t.Fatalf("arrivals = %+v, want exactly one at node 2", arrivals)
	}
}

// TestRingOneWayTiming pins the two behaviours that set the ring apart
// from a torus of the same size: a point-to-point message always
// travels forward, taking (dst−src) mod N hops even where the other way
// is shorter, and a broadcast laps the whole ring, its last hop back
// into the sender, which strips it without delivering it.
func TestRingOneWayTiming(t *testing.T) {
	cfg := Config{WidthBytes: 8, ClockDivisor: 1, HopCycles: 0}

	// A header-only request is one beat per hop: 0→1→2→3, where a torus
	// would take the single hop 0→3 backwards.
	r := NewRing(cfg, 4)
	r.Enqueue(Message{Kind: Request, Src: 0, Dst: 3})
	byCycle := runRing(r, 100)
	if len(byCycle) != 1 || len(byCycle[3]) != 1 || byCycle[3][0].Node != 3 {
		t.Fatalf("request 0→3 arrivals = %+v, want one at node 3 on cycle 3", byCycle)
	}
	if busy := r.NetStats().BusyCycles.Value(); busy != 3 {
		t.Fatalf("request 0→3 busy cycles = %d, want 3", busy)
	}

	// An 8-byte broadcast is two beats per hop: 1→2→3→0, then the
	// strip hop 0→1 that keeps it pending until cycle 8.
	r = NewRing(cfg, 4)
	r.Enqueue(Message{Kind: Broadcast, Src: 1, PayloadBytes: 8})
	wantAt := map[uint64]int{2: 2, 4: 3, 6: 0}
	for now := uint64(0); now <= 8; now++ {
		if p := r.Pending(); p != 1 {
			t.Fatalf("before Tick(%d): Pending = %d, want 1", now, p)
		}
		arr := r.Tick(now)
		node, want := wantAt[now]
		switch {
		case want && (len(arr) != 1 || arr[0].Node != node):
			t.Fatalf("Tick(%d) arrivals = %+v, want one at node %d", now, arr, node)
		case !want && len(arr) != 0:
			t.Fatalf("Tick(%d) arrivals = %+v, want none", now, arr)
		}
	}
	if p := r.Pending(); p != 0 {
		t.Fatalf("after the strip hop: Pending = %d, want 0", p)
	}
	if busy := r.NetStats().BusyCycles.Value(); busy != 8 {
		t.Fatalf("broadcast busy cycles = %d, want 8", busy)
	}
}

func TestRingLinksCarryConcurrently(t *testing.T) {
	// Two point-to-point messages on disjoint links must not serialize:
	// 0->1 and 2->3 use links 0 and 2.
	cfg := Config{WidthBytes: 8, ClockDivisor: 4, HopCycles: 0}
	r := NewRing(cfg, 4)
	r.Enqueue(Message{Kind: Request, Src: 0, Dst: 1})
	r.Enqueue(Message{Kind: Request, Src: 2, Dst: 3})
	byCycle := runRing(r, 100)
	var cycles []uint64
	for cyc, arrs := range byCycle {
		for range arrs {
			cycles = append(cycles, cyc)
		}
	}
	if len(cycles) != 2 {
		t.Fatalf("arrivals = %v", byCycle)
	}
	if cycles[0] != cycles[1] {
		t.Fatalf("disjoint links serialized: %v", cycles)
	}

	// Same link must serialize: two messages from node 0.
	r2 := NewRing(cfg, 4)
	r2.Enqueue(Message{Kind: Request, Src: 0, Dst: 1})
	r2.Enqueue(Message{Kind: Request, Src: 0, Dst: 1})
	byCycle = runRing(r2, 200)
	cycles = cycles[:0]
	for cyc, arrs := range byCycle {
		for range arrs {
			cycles = append(cycles, cyc)
		}
	}
	if len(cycles) != 2 || cycles[0] == cycles[1] {
		t.Fatalf("same-link messages did not serialize: %v", cycles)
	}
}

func TestRingHonorsReadyAt(t *testing.T) {
	r := NewRing(Config{WidthBytes: 8, ClockDivisor: 1, HopCycles: 0}, 2)
	r.Enqueue(Message{Kind: Broadcast, Src: 0, ReadyAt: 50})
	byCycle := runRing(r, 200)
	for cyc := range byCycle {
		if cyc < 50 {
			t.Fatalf("delivery at %d before ReadyAt", cyc)
		}
	}
	if len(byCycle) == 0 {
		t.Fatal("message never delivered")
	}
}

func TestRingValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("bad nodes", func() { NewRing(DefaultConfig(), 0) })
	mustPanic("bad config", func() { NewRing(Config{WidthBytes: 8}, 2) })
	mustPanic("bad src", func() { NewRing(DefaultConfig(), 2).Enqueue(Message{Src: 9}) })
}

// Property: every broadcast is delivered to exactly n-1 nodes and the
// ring always drains.
func TestRingConservationQuick(t *testing.T) {
	f := func(srcs []uint8, payload uint8) bool {
		if len(srcs) > 24 {
			srcs = srcs[:24]
		}
		const n = 5
		r := NewRing(Config{WidthBytes: 4, ClockDivisor: 2, HopCycles: 1}, n)
		for i, s := range srcs {
			r.Enqueue(Message{
				Kind:         Broadcast,
				Src:          int(s % n),
				Seq:          uint64(i),
				PayloadBytes: int(payload % 64),
			})
		}
		deliveries := map[uint64]int{}
		for now := uint64(0); r.Pending() > 0; now++ {
			for _, a := range r.Tick(now) {
				deliveries[a.Msg.Seq]++
			}
			if now > 1_000_000 {
				return false // stuck
			}
		}
		for i := range srcs {
			if deliveries[uint64(i)] != n-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBusNetworkAdapter(t *testing.T) {
	var net Network = New(Config{WidthBytes: 8, ClockDivisor: 1}, 3)
	net.Enqueue(Message{Kind: Broadcast, Src: 0, PayloadBytes: 8})
	net.Enqueue(Message{Kind: Request, Src: 1, Dst: 2})
	var arrivals []Arrival
	for now := uint64(0); net.Pending() > 0; now++ {
		arrivals = append(arrivals, net.Tick(now)...)
		if now > 1000 {
			t.Fatal("bus network stuck")
		}
	}
	// Broadcast reaches nodes 1 and 2; request reaches node 2.
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %+v", arrivals)
	}
	if net.NetStats().Messages.Value() != 2 {
		t.Fatal("stats not shared")
	}
}
