package bus

import (
	"fmt"
	"math/rand"
	"testing"
)

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
	r := NewRing(DefaultConfig(), 4)
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
	r := NewRing(DefaultConfig(), 4)
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
	ms := NewMesh(DefaultConfig(), 9)
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
			ms = NewTorus(DefaultConfig(), 9)
		} else {
			ms = NewMesh(DefaultConfig(), 9)
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

// meshBuilders are the three topologies the mesh model runs.
var meshBuilders = []struct {
	name string
	new  func(Config, int) *Mesh
}{{"ring", NewRing}, {"mesh", NewMesh}, {"torus", NewTorus}}

// branchScanDataPhase is the reference Mesh.DataPhase answers to: the
// binding-constraint phase of every branch of every matching message,
// maximised over branches. A branch hopping is Transfer; a sitting
// branch of a message not yet injected whose departure link is free by
// its ReadyAt is Queued; any other sitting branch is Blocked.
func branchScanDataPhase(ms *Mesh, addr uint64, dst int) MsgPhase {
	best := PhaseAbsent
	for i := range ms.flight {
		b := &ms.flight[i]
		if !dataMatch(b.m.msg, addr, dst) {
			continue
		}
		var p MsgPhase
		switch {
		case b.inFlight:
			p = PhaseTransfer
		case !b.m.injected && ms.linkFree[b.at*numDirs+int(b.dir)] <= b.readyAt:
			p = PhaseQueued
		default:
			p = PhaseBlocked
		}
		best = max(best, p)
	}
	return best
}

// TestMeshDataPhaseMatchesBranchScan drives randomized traffic —
// broadcasts, bare requests, responses and payload writebacks over a few
// shared lines, with scattered ReadyAt penalties and source purges —
// through rings, meshes and tori. Every cycle, for every line in flight
// and every node, the per-header DataPhase must equal the branch scan,
// on the network itself and on a CopyStateFrom scratch ticked ahead of
// it the way the parallel engine's predict phase does.
func TestMeshDataPhaseMatchesBranchScan(t *testing.T) {
	lines := []uint64{0x100, 0x120, 0x140, 0x160, 0x180}
	var seen [PhaseTransfer + 1]int
	check := func(t *testing.T, ms *Mesh, n int, now uint64, where string) {
		t.Helper()
		for _, hdr := range ms.live {
			for dst := 0; dst < n; dst++ {
				got, want := ms.DataPhase(hdr.msg.Addr, dst, now), branchScanDataPhase(ms, hdr.msg.Addr, dst)
				if got != want {
					t.Fatalf("%s cycle %d: DataPhase(%#x, %d) = %v, branch scan %v", where, now, hdr.msg.Addr, dst, got, want)
				}
				seen[got]++
			}
		}
		if hdrs := distinctHeaders(ms); hdrs != ms.Pending() {
			t.Fatalf("%s cycle %d: %d headers in flight, Pending %d", where, now, hdrs, ms.Pending())
		}
	}
	for _, bld := range meshBuilders {
		for _, n := range []int{2, 5, 9, 16} {
			t.Run(fmt.Sprintf("%s%d", bld.name, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n)))
				cfg := Config{WidthBytes: 8, ClockDivisor: 2, HopCycles: 1}
				ms := bld.new(cfg, n)
				scratch := ms.NewScratch().(*Mesh)
				seen = [PhaseTransfer + 1]int{}
				purged := 0
				for now := uint64(0); now < 2000; now++ {
					// Bursts keep links contended; the cap keeps the
					// backlog, and so the test, bounded.
					if rng.Intn(8) == 0 && ms.Pending() < 24 {
						for k := 1 + rng.Intn(4); k > 0; k-- {
							ms.Enqueue(randomMessage(rng, n, lines, now))
						}
					}
					if rng.Intn(50) == 0 {
						purged += ms.PurgeSource(rng.Intn(n))
					}
					ms.Tick(now)
					check(t, ms, n, now, "network")
					if now%97 == 0 {
						scratch.CopyStateFrom(ms)
						check(t, scratch, n, now, "copy")
						for c := now + 1; c < now+40; c++ {
							scratch.Tick(c)
							check(t, scratch, n, c, "copy")
						}
					}
				}
				// Every phase the header summary decides must have been
				// compared, and some purge must have dropped a message.
				for p := PhaseQueued; p <= PhaseTransfer; p++ {
					if seen[p] == 0 {
						t.Errorf("phase %v never observed", p)
					}
				}
				if purged == 0 {
					t.Error("no message was purged")
				}
			})
		}
	}
}

// randomMessage draws one message for the equivalence test: mostly
// broadcasts, the rest point-to-point traffic, due within 30 cycles.
func randomMessage(rng *rand.Rand, n int, lines []uint64, now uint64) Message {
	m := Message{
		Kind:    Broadcast,
		Src:     rng.Intn(n),
		Addr:    lines[rng.Intn(len(lines))],
		ReadyAt: now + uint64(rng.Intn(30)),
	}
	if rng.Intn(2) == 0 {
		m.PayloadBytes = 32
	}
	if rng.Intn(3) == 0 {
		m.Kind = Request + Kind(rng.Intn(2)) // or Response
		m.Dst = (m.Src + 1 + rng.Intn(n-1)) % n
	}
	return m
}

// distinctHeaders counts the message headers the branches in flight
// share.
func distinctHeaders(ms *Mesh) int {
	seen := map[*meshMsg]bool{}
	for i := range ms.flight {
		seen[ms.flight[i].m] = true
	}
	return len(seen)
}
