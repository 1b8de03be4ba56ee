package bus

import (
	"testing"
	"testing/quick"
)

func runMesh(ms *Mesh, until uint64) map[uint64][]Arrival {
	out := map[uint64][]Arrival{}
	for now := uint64(0); now <= until && (ms.Pending() > 0 || now == 0); now++ {
		// Tick's slice is only valid until the next call: copy to retain.
		if arr := ms.Tick(now); len(arr) > 0 {
			out[now] = append([]Arrival(nil), arr...)
		}
	}
	return out
}

func TestMeshDims(t *testing.T) {
	cases := []struct{ n, w, h int }{
		{1, 1, 1}, {2, 1, 2}, {4, 2, 2}, {6, 2, 3}, {8, 2, 4},
		{9, 3, 3}, {12, 3, 4}, {16, 4, 4}, {32, 4, 8}, {64, 8, 8},
		{128, 8, 16}, {256, 16, 16}, {7, 1, 7},
	}
	for _, c := range cases {
		if w, h := meshDims(c.n); w != c.w || h != c.h {
			t.Errorf("meshDims(%d) = %dx%d, want %dx%d", c.n, w, h, c.w, c.h)
		}
	}
}

// TestMeshBroadcastTree pins the dimension-order broadcast tree on a
// 3x3 mesh: every node but the sender hears the message exactly once,
// and arrival time is proportional to hop distance from the center.
func TestMeshBroadcastTree(t *testing.T) {
	ms := NewMesh(Config{WidthBytes: 8, ClockDivisor: 1, HopCycles: 0}, 9)
	if w, h := ms.Dims(); w != 3 || h != 3 {
		t.Fatalf("dims = %dx%d", w, h)
	}
	// Node 4 is the center of the grid: ids are y*3+x.
	ms.Enqueue(Message{Kind: Broadcast, Src: 4, Addr: 0x100, PayloadBytes: 8})
	byCycle := runMesh(ms, 100)

	seen := map[int]uint64{}
	for cyc, arrs := range byCycle {
		for _, a := range arrs {
			if _, dup := seen[a.Node]; dup {
				t.Fatalf("node %d heard the broadcast twice", a.Node)
			}
			seen[a.Node] = cyc
		}
	}
	if len(seen) != 8 {
		t.Fatalf("broadcast reached %d nodes, want 8: %v", len(seen), seen)
	}
	if _, hitSender := seen[4]; hitSender {
		t.Fatal("broadcast delivered to its sender")
	}
	// 16 wire bytes / 8 wide at divisor 1, zero hop latency: 2 cycles
	// per hop. Direct neighbors (3, 5, 1, 7) hear it at 2; the corners
	// (two hops: row then column) at 4.
	for _, n := range []int{1, 3, 5, 7} {
		if seen[n] != 2 {
			t.Errorf("neighbor %d heard at %d, want 2", n, seen[n])
		}
	}
	for _, n := range []int{0, 2, 6, 8} {
		if seen[n] != 4 {
			t.Errorf("corner %d heard at %d, want 4", n, seen[n])
		}
	}
	if ms.Pending() != 0 {
		t.Fatal("broadcast tree never drained")
	}
}

// TestMeshPointToPointDOR pins dimension-order routing: X first, then
// Y, delivering only at the destination.
func TestMeshPointToPointDOR(t *testing.T) {
	ms := NewMesh(Config{WidthBytes: 8, ClockDivisor: 1, HopCycles: 0}, 9)
	ms.Enqueue(Message{Kind: Request, Src: 0, Dst: 8, Addr: 0x40, PayloadBytes: 8})
	byCycle := runMesh(ms, 100)
	var arrivals []Arrival
	var at uint64
	for cyc, a := range byCycle {
		arrivals = append(arrivals, a...)
		at = cyc
	}
	if len(arrivals) != 1 || arrivals[0].Node != 8 {
		t.Fatalf("arrivals = %+v, want exactly one at node 8", arrivals)
	}
	// Four hops (0->1->2->5->8) at 2 cycles each, back to back.
	if at != 8 {
		t.Fatalf("arrived at cycle %d, want 8", at)
	}
}

// TestTorusWrapsShorterWay: on a 4x4 torus, 0 -> 3 goes one hop -X
// around the seam instead of three hops +X.
func TestTorusWrapsShorterWay(t *testing.T) {
	cfg := Config{WidthBytes: 8, ClockDivisor: 1, HopCycles: 0}
	tor := NewTorus(cfg, 16)
	tor.Enqueue(Message{Kind: Request, Src: 0, Dst: 3, Addr: 0x40, PayloadBytes: 8})
	tByCycle := runMesh(tor, 100)

	mesh := NewMesh(cfg, 16)
	mesh.Enqueue(Message{Kind: Request, Src: 0, Dst: 3, Addr: 0x40, PayloadBytes: 8})
	mByCycle := runMesh(mesh, 100)

	cycleOf := func(byCycle map[uint64][]Arrival) uint64 {
		for cyc, arrs := range byCycle {
			if len(arrs) == 1 && arrs[0].Node == 3 {
				return cyc
			}
		}
		t.Fatalf("no single delivery at node 3: %v", byCycle)
		return 0
	}
	if got, want := cycleOf(tByCycle), uint64(2); got != want {
		t.Errorf("torus delivery at %d, want %d (one wrap hop)", got, want)
	}
	if got, want := cycleOf(mByCycle), uint64(6); got != want {
		t.Errorf("mesh delivery at %d, want %d (three hops)", got, want)
	}
}

// TestTorusBroadcastHalvesSpan: the torus tree travels each direction
// only halfway around, so the worst-case depth is (W+H)/2 hops instead
// of W+H-2.
func TestTorusBroadcastHalvesSpan(t *testing.T) {
	cfg := Config{WidthBytes: 8, ClockDivisor: 1, HopCycles: 0}
	for _, tc := range []struct {
		name  string
		build func() *Mesh
		worst uint64 // latest arrival cycle at 2 cycles/hop
	}{
		{"mesh", func() *Mesh { return NewMesh(cfg, 16) }, 12},  // 3+3 hops from corner 0
		{"torus", func() *Mesh { return NewTorus(cfg, 16) }, 8}, // 2+2 hops
	} {
		ms := tc.build()
		ms.Enqueue(Message{Kind: Broadcast, Src: 0, Addr: 0x100, PayloadBytes: 8})
		byCycle := runMesh(ms, 200)
		seen := map[int]uint64{}
		last := uint64(0)
		for cyc, arrs := range byCycle {
			for _, a := range arrs {
				if _, dup := seen[a.Node]; dup {
					t.Fatalf("%s: node %d heard twice", tc.name, a.Node)
				}
				seen[a.Node] = cyc
				if cyc > last {
					last = cyc
				}
			}
		}
		if len(seen) != 15 {
			t.Fatalf("%s: reached %d nodes, want 15", tc.name, len(seen))
		}
		if last != tc.worst {
			t.Errorf("%s: slowest arrival at %d, want %d", tc.name, last, tc.worst)
		}
	}
}

func TestMeshLinksCarryConcurrently(t *testing.T) {
	// Disjoint links must not serialize: on a 2x2 mesh, 0->1 uses node
	// 0's +X link and 2->3 uses node 2's +X link.
	cfg := Config{WidthBytes: 8, ClockDivisor: 4, HopCycles: 0}
	ms := NewMesh(cfg, 4)
	ms.Enqueue(Message{Kind: Request, Src: 0, Dst: 1})
	ms.Enqueue(Message{Kind: Request, Src: 2, Dst: 3})
	byCycle := runMesh(ms, 100)
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

	// The same outgoing link must serialize.
	ms2 := NewMesh(cfg, 4)
	ms2.Enqueue(Message{Kind: Request, Src: 0, Dst: 1})
	ms2.Enqueue(Message{Kind: Request, Src: 0, Dst: 1})
	byCycle = runMesh(ms2, 200)
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

func TestMeshHonorsReadyAt(t *testing.T) {
	ms := NewMesh(Config{WidthBytes: 8, ClockDivisor: 1, HopCycles: 0}, 4)
	ms.Enqueue(Message{Kind: Broadcast, Src: 0, ReadyAt: 50})
	byCycle := runMesh(ms, 200)
	for cyc := range byCycle {
		if cyc < 50 {
			t.Fatalf("delivery at %d before ReadyAt", cyc)
		}
	}
	if len(byCycle) == 0 {
		t.Fatal("message never delivered")
	}
}

func TestMeshValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("bad nodes", func() { NewMesh(DefaultConfig(), 0) })
	mustPanic("bad config", func() { NewMesh(Config{}, 4) })
	mustPanic("bad src", func() { NewMesh(DefaultConfig(), 4).Enqueue(Message{Src: 9}) })
	mustPanic("self-send", func() {
		NewMesh(DefaultConfig(), 4).Enqueue(Message{Kind: Request, Src: 1, Dst: 1})
	})
}

// TestMeshPendingCountsMessages: Pending and SourcePending count
// messages, not tree branches, so the machine's drain checks and the
// fault layer's diagnostics mean the same thing on every topology.
func TestMeshPendingCountsMessages(t *testing.T) {
	ms := NewMesh(DefaultConfig(), 9)
	ms.Enqueue(Message{Kind: Broadcast, Src: 4, Addr: 0x100, PayloadBytes: 8})
	ms.Enqueue(Message{Kind: Broadcast, Src: 4, Addr: 0x200, PayloadBytes: 8})
	ms.Enqueue(Message{Kind: Request, Src: 0, Dst: 8, Addr: 0x300})
	if got := ms.Pending(); got != 3 {
		t.Fatalf("Pending = %d, want 3", got)
	}
	if got := ms.SourcePending(4); got != 2 {
		t.Fatalf("SourcePending(4) = %d, want 2", got)
	}
	if got := ms.SourcePending(0); got != 1 {
		t.Fatalf("SourcePending(0) = %d, want 1", got)
	}
	for now := uint64(0); ms.Pending() > 0; now++ {
		ms.Tick(now)
		if now > 1000 {
			t.Fatal("mesh stuck")
		}
	}
	if got := ms.SourcePending(4) + ms.SourcePending(0); got != 0 {
		t.Fatalf("SourcePending after drain = %d, want 0", got)
	}
}

// Property: on meshes and tori of assorted sizes, every broadcast is
// delivered to exactly n-1 nodes, every point-to-point message exactly
// once at its destination, and the network always drains.
func TestMeshConservationQuick(t *testing.T) {
	f := func(srcs []uint8, dsts []uint8, payload uint8, nSel, wrapSel uint8) bool {
		if len(srcs) > 24 {
			srcs = srcs[:24]
		}
		sizes := []int{2, 4, 6, 9, 12, 16}
		n := sizes[int(nSel)%len(sizes)]
		cfg := Config{WidthBytes: 4, ClockDivisor: 2, HopCycles: 1}
		var ms *Mesh
		if wrapSel%2 == 0 {
			ms = NewMesh(cfg, n)
		} else {
			ms = NewTorus(cfg, n)
		}
		want := map[uint64]int{}
		for i, s := range srcs {
			src := int(s) % n
			m := Message{Kind: Broadcast, Src: src, Seq: uint64(i), PayloadBytes: int(payload % 64)}
			want[uint64(i)] = n - 1
			if i < len(dsts) {
				if dst := int(dsts[i]) % n; dst != src {
					m = Message{Kind: Request, Src: src, Dst: dst, Seq: uint64(i)}
					want[uint64(i)] = 1
				}
			}
			ms.Enqueue(m)
		}
		deliveries := map[uint64]int{}
		for now := uint64(0); ms.Pending() > 0; now++ {
			for _, a := range ms.Tick(now) {
				deliveries[a.Msg.Seq]++
			}
			if now > 1_000_000 {
				return false // stuck
			}
		}
		for seq, w := range want {
			if deliveries[seq] != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMeshNextDeliveryCertifiesNoOps: every Tick strictly before the
// cycle NextDeliveryCycle returns must change nothing — the property
// the machine scheduler's cycle skipping rests on.
func TestMeshNextDeliveryCertifiesNoOps(t *testing.T) {
	for _, wrap := range []bool{false, true} {
		var ms *Mesh
		if wrap {
			ms = NewTorus(DefaultConfig(), 9)
		} else {
			ms = NewMesh(DefaultConfig(), 9)
		}
		ms.Enqueue(Message{Kind: Broadcast, Src: 0, Addr: 0x100, PayloadBytes: 32, ReadyAt: 7})
		ms.Enqueue(Message{Kind: Broadcast, Src: 4, Addr: 0x200, PayloadBytes: 8, ReadyAt: 31})
		ms.Enqueue(Message{Kind: Request, Src: 2, Dst: 6, Addr: 0x300, ReadyAt: 3})
		deliveries := 0
		now := uint64(0)
		for ms.Pending() > 0 {
			if arr := ms.Tick(now); len(arr) > 0 {
				deliveries += len(arr)
			}
			next := ms.NextDeliveryCycle(now)
			if next == NoEvent {
				break
			}
			if next <= now {
				t.Fatalf("wrap=%v: NextDeliveryCycle(%d) = %d, not in the future", wrap, now, next)
			}
			// Ticks strictly before `next` must be no-ops.
			for c := now + 1; c < next; c++ {
				if arr := ms.Tick(c); len(arr) != 0 {
					t.Fatalf("wrap=%v: certified no-op cycle %d delivered %v", wrap, c, arr)
				}
			}
			now = next
			if now > 100_000 {
				t.Fatal("mesh stuck")
			}
		}
		if deliveries != 8+8+1 {
			t.Fatalf("wrap=%v: %d deliveries, want 17", wrap, deliveries)
		}
	}
}
