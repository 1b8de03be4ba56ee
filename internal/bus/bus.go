// Package bus models the global interconnect connecting the IRAM chips:
// a single split-transaction bus with configurable width and clock
// divisor, round-robin arbitration among chips, and free broadcast (every
// transaction is observed by all chips, as on a physical bus — the
// property that makes buses the natural DataScalar interconnect).
//
// The same bus carries three message kinds:
//
//   - Broadcast: a DataScalar owner pushing a loaded line (with its
//     address tag) to every other node. No request ever precedes it.
//   - Request:  a traditional CPU chip asking an off-chip memory for a
//     line (header-sized message).
//   - Response: the off-chip memory returning the line.
//
// Writebacks in the traditional machine are modeled as Request-kind
// messages carrying a full line (address + data, no response needed).
package bus

import (
	"fmt"
	"math"

	"github.com/wisc-arch/datascalar/internal/obs"
	"github.com/wisc-arch/datascalar/internal/stats"
)

// NoEvent is returned by NextDeliveryCycle when the interconnect holds no
// messages: nothing will ever happen without a new Enqueue.
const NoEvent = math.MaxUint64

// HeaderBytes is the address/tag overhead carried by every message.
// Asynchronous ESP requires tags on broadcasts (unlike the synchronous
// MMM, where total order made them inferable).
const HeaderBytes = 8

// Kind classifies messages.
type Kind uint8

const (
	// Broadcast is an ESP data push, delivered to every node but the
	// sender.
	Broadcast Kind = iota
	// Request is a point-to-point message that expects a response (or a
	// writeback, which expects none).
	Request
	// Response is a point-to-point data return.
	Response
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Broadcast:
		return "broadcast"
	case Request:
		return "request"
	case Response:
		return "response"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Ctl sub-classifies control messages the resilience layer puts on the
// interconnect. Ordinary data traffic carries CtlNone (the zero value),
// so existing senders are unaffected.
type Ctl uint8

const (
	// CtlNone marks ordinary data traffic.
	CtlNone Ctl = iota
	// CtlRetryReq is a directed re-request: a node whose BSHR wait timed
	// out asks the line's owner to resend (header-only message).
	CtlRetryReq
	// CtlRetryResp is the owner's directed resend of the requested line.
	CtlRetryResp
	// CtlFingerprint is a commit-fingerprint broadcast: Addr carries the
	// fingerprint interval index and Seq the fingerprint value.
	CtlFingerprint
	// CtlWarmFill is a re-replication push: after an owner death, the
	// page's new owner sends a warm copy of an inherited page to a
	// standby node (Addr = page base address, Dst = standby).
	CtlWarmFill
)

// Message is one bus transaction.
type Message struct {
	Kind Kind
	Src  int
	Dst  int // ignored for Broadcast
	Addr uint64
	// PayloadBytes is the data size excluding the header (0 for bare
	// requests, line size for data-bearing messages).
	PayloadBytes int
	// ReadyAt is the first cycle the message may arbitrate for the bus
	// (senders fold their network-interface/broadcast-queue penalty in
	// here).
	ReadyAt uint64
	// Seq tags the message for correlation by receivers (e.g. reparative
	// broadcasts versus the original commit order).
	Seq uint64
	// Reparative marks a late (commit-time) broadcast issued to repair a
	// false hit, for Table 3 accounting.
	Reparative bool
	// Ctl sub-classifies resilience-layer control traffic (retry
	// requests/responses, fingerprint broadcasts); CtlNone for data.
	Ctl Ctl
}

// WireBytes is the total size on the wire.
func (m Message) WireBytes() int { return HeaderBytes + m.PayloadBytes }

// Config parameterizes every link of the interconnect: the shared bus
// itself, or each point-to-point link of the ring, mesh and torus.
type Config struct {
	// WidthBytes is the datapath width (the paper's global bus is 8
	// bytes wide).
	WidthBytes int
	// ClockDivisor is CPU cycles per bus or link cycle (a 100 MHz bus
	// under a 1 GHz core has divisor 10).
	ClockDivisor uint64
	// HopCycles is the per-hop router latency the ring, mesh and torus
	// add to every link transfer. A bus transfer crosses no router, so
	// the bus ignores it.
	HopCycles uint64
}

// Validate checks structural soundness.
func (c Config) Validate() error {
	if c.WidthBytes <= 0 {
		return fmt.Errorf("bus: width must be positive")
	}
	if c.ClockDivisor == 0 {
		return fmt.Errorf("bus: clock divisor must be positive")
	}
	return nil
}

// DefaultConfig returns the paper's global-bus parameters: 8 bytes wide at
// half the core clock (the paper's target is a high-integration module
// where the global bus runs near core speed; the sensitivity analysis
// sweeps the divisor), with a one-cycle hop latency on multi-hop links.
func DefaultConfig() Config { return Config{WidthBytes: 8, ClockDivisor: 2, HopCycles: 1} }

// TransferCycles returns the bus occupancy in CPU cycles for a message of
// the given wire size (a multi-hop link adds HopCycles).
func (c Config) TransferCycles(wireBytes int) uint64 {
	beats := (wireBytes + c.WidthBytes - 1) / c.WidthBytes
	if beats == 0 {
		beats = 1
	}
	return uint64(beats) * c.ClockDivisor
}

// Stats counts bus activity.
type Stats struct {
	Messages    stats.Counter
	Bytes       stats.Counter
	BusyCycles  stats.Counter
	ByKindMsgs  [3]stats.Counter
	ByKindBytes [3]stats.Counter
	ArbWaits    stats.Counter // messages that waited for a busy bus
	MaxQueueLen int           // high-water mark across all source queues
	TotalQueued stats.Counter // messages ever enqueued
}

// Bus is the shared-bus Network. Drive it cycle by cycle: enqueue
// messages at any time, then call Tick once per CPU cycle; arrivals
// come back from Tick at transfer completion.
type Bus struct {
	cfg     Config
	queues  [][]Message // per-source FIFOs
	rrNext  int
	busy    bool
	doneAt  uint64
	current Message
	stats   Stats
	obs     obs.Observer
	// arrivals is the scratch buffer Tick returns; reused so the
	// per-cycle delivery path is allocation-free in steady state.
	arrivals []Arrival
}

// SetObserver attaches an observer emitting a bus.grant event each time
// arbitration starts a transfer (nil detaches).
func (b *Bus) SetObserver(o obs.Observer) { b.obs = o }

// New builds a bus connecting numNodes chips. It panics on invalid
// configuration (experiment-setup error).
func New(cfg Config, numNodes int) *Bus {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if numNodes <= 0 {
		panic("bus: need at least one node")
	}
	return &Bus{cfg: cfg, queues: make([][]Message, numNodes)}
}

// Enqueue submits a message from its source chip's network interface.
func (b *Bus) Enqueue(m Message) {
	if m.Src < 0 || m.Src >= len(b.queues) {
		panic(fmt.Sprintf("bus: bad source %d", m.Src))
	}
	b.queues[m.Src] = append(b.queues[m.Src], m)
	b.stats.TotalQueued.Inc()
	if n := len(b.queues[m.Src]); n > b.stats.MaxQueueLen {
		b.stats.MaxQueueLen = n
	}
}

// Pending returns the number of queued (not yet delivered) messages,
// including the one in flight.
func (b *Bus) Pending() int {
	n := 0
	for _, q := range b.queues {
		n += len(q)
	}
	if b.busy {
		n++
	}
	return n
}

// SourcePending returns the number of undelivered messages node src has
// on the interconnect (its queue plus any transfer of its in flight) —
// watchdog and fault diagnostics.
func (b *Bus) SourcePending(src int) int {
	if src < 0 || src >= len(b.queues) {
		return 0
	}
	n := len(b.queues[src])
	if b.busy && b.current.Src == src {
		n++
	}
	return n
}

// PurgeSource removes every message node src has enqueued but not yet
// arbitrated onto the bus, returning the count. The fault layer calls it
// when src dies permanently: a dead chip's network-interface queue dies
// with it, while a transfer already granted the bus completes (the wire
// was already driven). Purged messages stay counted in TotalQueued —
// they were genuinely offered to the interconnect.
func (b *Bus) PurgeSource(src int) int {
	if src < 0 || src >= len(b.queues) {
		return 0
	}
	n := len(b.queues[src])
	b.queues[src] = b.queues[src][:0]
	return n
}

// Tick implements Network: it advances the bus to CPU cycle now
// (strictly increasing) and returns the arrivals of the transfer that
// completed this cycle, if any. A broadcast arrives at every node but
// the sender in the same cycle (every bus transaction is an implicit
// broadcast); a point-to-point message arrives at its destination. The
// returned slice is only valid until the next call.
//
// Tick runs once per machine cycle; the steady-state machine loop is
// allocation-free (TestMachineRunSteadyStateAllocs, TestBusTickZeroAllocs).
//
//dsvet:hotpath
func (b *Bus) Tick(now uint64) []Arrival {
	msg, ok := b.step(now)
	if !ok {
		return nil
	}
	out := b.arrivals[:0]
	if msg.Kind == Broadcast {
		for n := range b.queues {
			if n != msg.Src {
				out = append(out, Arrival{Node: n, Msg: msg})
			}
		}
	} else {
		out = append(out, Arrival{Node: msg.Dst, Msg: msg})
	}
	b.arrivals = out
	return out
}

// step advances the bus to cycle now and returns the message whose
// transfer completed this cycle, if any.
//
//dsvet:hotpath
func (b *Bus) step(now uint64) (Message, bool) {
	var delivered Message
	var ok bool
	if b.busy && now >= b.doneAt {
		delivered, ok = b.current, true
		b.busy = false
	}
	if !b.busy {
		b.arbitrate(now)
	}
	return delivered, ok
}

// NextDeliveryCycle reports the earliest cycle > nothing-happens-before
// which Tick could change bus state: the in-flight transfer's completion,
// or — when idle — the earliest cycle a queued head becomes eligible to
// arbitrate. Ticks at any cycle before the returned value are no-ops, so
// a scheduler may skip them. Call it only after Tick(now) has run for the
// current cycle. NoEvent means the bus is empty.
func (b *Bus) NextDeliveryCycle(now uint64) uint64 {
	if b.busy {
		if b.doneAt <= now {
			return now + 1 // delivery already due; next Tick acts immediately
		}
		return b.doneAt
	}
	next := uint64(NoEvent)
	for _, q := range b.queues {
		if len(q) == 0 {
			continue
		}
		at := q[0].ReadyAt
		if at <= now {
			at = now + 1
		}
		if at < next {
			next = at
		}
	}
	return next
}

// arbitrate grants the bus to the next ready message in round-robin
// order, starting after the last grantee's source.
func (b *Bus) arbitrate(now uint64) {
	n := len(b.queues)
	for i := 0; i < n; i++ {
		src := (b.rrNext + i) % n
		q := b.queues[src]
		if len(q) == 0 || q[0].ReadyAt > now {
			continue
		}
		m := q[0]
		// Shift rather than re-slice so the queue's backing array keeps
		// its full capacity; q[1:] would bleed capacity off the front and
		// force Enqueue to reallocate steadily. Queues stay short (see
		// MaxQueueLen), so the copy is cheap.
		b.queues[src] = q[:copy(q, q[1:])]
		b.rrNext = (src + 1) % n
		b.busy = true
		cycles := b.cfg.TransferCycles(m.WireBytes())
		b.doneAt = now + cycles
		b.current = m
		b.stats.Messages.Inc()
		b.stats.Bytes.Add(uint64(m.WireBytes()))
		b.stats.BusyCycles.Add(cycles)
		b.stats.ByKindMsgs[m.Kind].Inc()
		b.stats.ByKindBytes[m.Kind].Add(uint64(m.WireBytes()))
		if m.ReadyAt < now {
			b.stats.ArbWaits.Inc()
		}
		if b.obs != nil {
			b.obs.Event(obs.Event{
				Cycle: now, Node: m.Src, Kind: obs.EvBusGrant,
				Addr: m.Addr, Arg: uint64(m.WireBytes()),
			})
		}
		return
	}
}
