package bus

import "testing"

// TestBusTickZeroAllocs: Tick runs once per machine cycle, so the
// arbitrate/deliver path must not allocate — queue heads are consumed by
// reslicing, never by copying. Messages are enqueued before measurement
// (Enqueue may grow the per-source queues); the measured window covers
// both busy progress and post-drain idle ticks.
func TestBusTickZeroAllocs(t *testing.T) {
	b := New(DefaultConfig(), 4)
	for i := 0; i < 256; i++ {
		b.Enqueue(Message{
			Kind: Broadcast, Src: i % 4,
			Addr: 0x1000 + uint64(i)*64, PayloadBytes: 32,
			ReadyAt: uint64(i),
		})
	}
	now := uint64(0)
	for ; now < 100; now++ { // warmup: first grants, steady rotation
		b.Tick(now)
	}
	if allocs := testing.AllocsPerRun(10_000, func() {
		b.Tick(now)
		now++
	}); allocs != 0 {
		t.Fatalf("Bus.Tick allocated %.3f times per cycle", allocs)
	}
}

// TestRingTickZeroAllocs: the ring reuses its flight and arrival scratch
// buffers across cycles; after a warmup drain that grows them to their
// high-water marks, per-cycle ticking must be allocation-free.
func TestRingTickZeroAllocs(t *testing.T) {
	r := NewRing(DefaultLinkConfig(), 4)
	enqueue := func(base uint64) {
		for i := 0; i < 64; i++ {
			r.Enqueue(Message{
				Kind: Broadcast, Src: i % 4,
				Addr: base + uint64(i)*64, PayloadBytes: 32,
				ReadyAt: uint64(i),
			})
		}
	}
	now := uint64(0)
	enqueue(0x1000)
	for ; now < 5_000; now++ { // warmup: drain fully, grow scratch buffers
		r.Tick(now)
	}
	enqueue(0x100000) // refill outside the measured closure
	if allocs := testing.AllocsPerRun(10_000, func() {
		r.Tick(now)
		now++
	}); allocs != 0 {
		t.Fatalf("Ring.Tick allocated %.3f times per cycle", allocs)
	}
}

// TestMeshTickZeroAllocs: the mesh double-buffers its branch set and
// reuses the arrival scratch; after a warmup drain grows them (and the
// spawn path's high-water mark), per-cycle ticking and the DataPhase
// query must be allocation-free. Message headers are allocated in
// Enqueue, off the per-cycle path.
func TestMeshTickZeroAllocs(t *testing.T) {
	for _, wrap := range []bool{false, true} {
		var ms *Mesh
		if wrap {
			ms = NewTorus(DefaultLinkConfig(), 9)
		} else {
			ms = NewMesh(DefaultLinkConfig(), 9)
		}
		enqueue := func(base uint64) {
			for i := 0; i < 64; i++ {
				ms.Enqueue(Message{
					Kind: Broadcast, Src: i % 9,
					Addr: base + uint64(i)*64, PayloadBytes: 32,
					ReadyAt: uint64(i),
				})
			}
		}
		now := uint64(0)
		enqueue(0x1000)
		for ; now < 10_000; now++ { // warmup: drain fully, grow all buffers
			ms.Tick(now)
		}
		enqueue(0x100000) // refill outside the measured closure
		if allocs := testing.AllocsPerRun(10_000, func() {
			ms.Tick(now)
			ms.DataPhase(0x100040, 8, now)
			now++
		}); allocs != 0 {
			t.Fatalf("wrap=%v: Mesh.Tick allocated %.3f times per cycle", wrap, allocs)
		}
	}
}
