package bus

import (
	"testing"
	"testing/quick"
)

// drain steps the bus from cycle 0 until every queued message is
// delivered, returning them in delivery order.
func drain(b *Bus) []Message {
	var out []Message
	for now := uint64(0); b.Pending() > 0; now++ {
		if m, ok := b.step(now); ok {
			out = append(out, m)
		}
	}
	return out
}

func TestTransferCycles(t *testing.T) {
	c := Config{WidthBytes: 8, ClockDivisor: 10}
	cases := []struct {
		bytes int
		want  uint64
	}{
		{0, 10},  // minimum one beat
		{1, 10},  // partial beat rounds up
		{8, 10},  // exactly one beat
		{9, 20},  // spills into second beat
		{40, 50}, // header + 32B line = 5 beats
		{64, 80}, //
	}
	for _, cse := range cases {
		if got := c.TransferCycles(cse.bytes); got != cse.want {
			t.Errorf("TransferCycles(%d) = %d, want %d", cse.bytes, got, cse.want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{WidthBytes: 0, ClockDivisor: 1}).Validate(); err == nil {
		t.Error("zero width accepted")
	}
	if err := (Config{WidthBytes: 8, ClockDivisor: 0}).Validate(); err == nil {
		t.Error("zero divisor accepted")
	}
}

func TestKindString(t *testing.T) {
	if Broadcast.String() != "broadcast" || Request.String() != "request" || Response.String() != "response" {
		t.Error("kind names")
	}
}

func TestSingleTransfer(t *testing.T) {
	b := New(Config{WidthBytes: 8, ClockDivisor: 2}, 2)
	m := Message{Kind: Broadcast, Src: 0, Addr: 0x100, PayloadBytes: 32, ReadyAt: 5}
	b.Enqueue(m)

	// Before ReadyAt nothing happens.
	for now := uint64(0); now < 5; now++ {
		if _, ok := b.step(now); ok {
			t.Fatalf("delivery before ReadyAt at cycle %d", now)
		}
	}
	// Granted at 5; 40 wire bytes = 5 beats * 2 = 10 cycles; done at 15.
	var got Message
	var ok bool
	var when uint64
	for now := uint64(5); now <= 20 && !ok; now++ {
		got, ok = b.step(now)
		when = now
	}
	if !ok {
		t.Fatal("message never delivered")
	}
	if when != 15 {
		t.Fatalf("delivered at %d, want 15", when)
	}
	if got.Addr != 0x100 {
		t.Fatalf("delivered %+v", got)
	}
	if b.Pending() != 0 {
		t.Fatal("pending after delivery")
	}
}

func TestRoundRobinFairness(t *testing.T) {
	b := New(Config{WidthBytes: 8, ClockDivisor: 1}, 3)
	// Each node enqueues two header-only messages, all ready at 0.
	for src := 0; src < 3; src++ {
		for k := 0; k < 2; k++ {
			b.Enqueue(Message{Kind: Request, Src: src, Seq: uint64(src*10 + k)})
		}
	}
	var order []int
	now := uint64(0)
	for b.Pending() > 0 {
		if m, ok := b.step(now); ok {
			order = append(order, m.Src)
		}
		now++
	}
	want := []int{0, 1, 2, 0, 1, 2}
	if len(order) != len(want) {
		t.Fatalf("delivered %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("delivery order %v, want %v", order, want)
		}
	}
}

func TestPerSourceFIFO(t *testing.T) {
	b := New(DefaultConfig(), 2)
	for i := 0; i < 5; i++ {
		b.Enqueue(Message{Kind: Broadcast, Src: 0, Seq: uint64(i), PayloadBytes: 32})
	}
	msgs := drain(b)
	for i, m := range msgs {
		if m.Seq != uint64(i) {
			t.Fatalf("per-source order violated: %v", msgs)
		}
	}
}

func TestStats(t *testing.T) {
	b := New(Config{WidthBytes: 8, ClockDivisor: 1}, 2)
	b.Enqueue(Message{Kind: Broadcast, Src: 0, PayloadBytes: 32})
	b.Enqueue(Message{Kind: Request, Src: 1})
	drain(b)
	s := b.NetStats()
	if s.Messages.Value() != 2 {
		t.Fatalf("messages = %d", s.Messages.Value())
	}
	if s.Bytes.Value() != 40+8 {
		t.Fatalf("bytes = %d", s.Bytes.Value())
	}
	if s.ByKindMsgs[Broadcast].Value() != 1 || s.ByKindMsgs[Request].Value() != 1 {
		t.Fatal("per-kind counts")
	}
	if s.BusyCycles.Value() != 5+1 {
		t.Fatalf("busy = %d", s.BusyCycles.Value())
	}
	if s.MaxQueueLen != 1 {
		t.Fatalf("max queue = %d", s.MaxQueueLen)
	}
}

func TestArbWaitAccounting(t *testing.T) {
	b := New(Config{WidthBytes: 8, ClockDivisor: 10}, 2)
	b.Enqueue(Message{Kind: Broadcast, Src: 0, PayloadBytes: 32})
	b.Enqueue(Message{Kind: Broadcast, Src: 1, PayloadBytes: 32})
	drain(b)
	if b.NetStats().ArbWaits.Value() != 1 {
		t.Fatalf("arb waits = %d, want 1 (second message waited)", b.NetStats().ArbWaits.Value())
	}
}

func TestEnqueuePanicsOnBadSource(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad source accepted")
		}
	}()
	New(DefaultConfig(), 2).Enqueue(Message{Src: 7})
}

func TestWireBytes(t *testing.T) {
	if (Message{PayloadBytes: 32}).WireBytes() != 40 {
		t.Fatal("WireBytes wrong")
	}
	if (Message{}).WireBytes() != HeaderBytes {
		t.Fatal("bare message WireBytes wrong")
	}
}

// Property: all enqueued messages are eventually delivered exactly once,
// and the bus is never occupied by two messages at the same time.
func TestBusConservationQuick(t *testing.T) {
	f := func(specs []struct {
		Src     uint8
		Payload uint8
		Ready   uint8
	}) bool {
		if len(specs) > 40 {
			specs = specs[:40]
		}
		b := New(Config{WidthBytes: 4, ClockDivisor: 3}, 4)
		for i, s := range specs {
			b.Enqueue(Message{
				Kind:         Broadcast,
				Src:          int(s.Src % 4),
				PayloadBytes: int(s.Payload % 64),
				ReadyAt:      uint64(s.Ready),
				Seq:          uint64(i),
			})
		}
		msgs := drain(b)
		if len(msgs) != len(specs) {
			return false
		}
		seen := make(map[uint64]bool)
		for _, m := range msgs {
			if seen[m.Seq] {
				return false
			}
			seen[m.Seq] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: delivery time is never before ReadyAt + transfer time.
func TestDeliveryLowerBoundQuick(t *testing.T) {
	cfg := Config{WidthBytes: 8, ClockDivisor: 5}
	f := func(payload uint8, ready uint8) bool {
		b := New(cfg, 2)
		m := Message{Kind: Broadcast, Src: 0, PayloadBytes: int(payload), ReadyAt: uint64(ready)}
		b.Enqueue(m)
		now := uint64(0)
		for {
			if got, ok := b.step(now); ok {
				return now >= m.ReadyAt+cfg.TransferCycles(got.WireBytes())
			}
			now++
			if now > 10000 {
				return false
			}
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
