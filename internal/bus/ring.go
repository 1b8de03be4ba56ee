package bus

import (
	"fmt"

	"github.com/wisc-arch/datascalar/internal/obs"
)

// LinkConfig describes one point-to-point link of a multi-hop
// interconnect — the unidirectional ring the paper envisions for
// high-performance DataScalar systems ("on a ring, operations are
// observed by all nodes if the sender is responsible for removing its
// own message" — the IEEE/ANSI SCI style), and the 2D mesh and torus
// that extend the same link model to hundreds of nodes.
type LinkConfig struct {
	// WidthBytes is each link's datapath width.
	WidthBytes int
	// ClockDivisor is CPU cycles per link cycle.
	ClockDivisor uint64
	// HopCycles is the per-node forwarding latency added at each hop.
	HopCycles uint64
}

// DefaultLinkConfig returns links matching the default bus width at the
// same clock with a one-cycle hop latency.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{WidthBytes: 8, ClockDivisor: 2, HopCycles: 1}
}

// Validate checks structural soundness.
func (c LinkConfig) Validate() error {
	if c.WidthBytes <= 0 {
		return fmt.Errorf("link: width must be positive")
	}
	if c.ClockDivisor == 0 {
		return fmt.Errorf("link: clock divisor must be positive")
	}
	return nil
}

// transferCycles is the link occupancy for one message.
func (c LinkConfig) transferCycles(wireBytes int) uint64 {
	beats := (wireBytes + c.WidthBytes - 1) / c.WidthBytes
	if beats == 0 {
		beats = 1
	}
	return uint64(beats)*c.ClockDivisor + c.HopCycles
}

// ringMsg is one message in flight on the ring.
type ringMsg struct {
	msg Message
	// at is the node the message sits at (or is travelling toward when
	// inFlight); next hop uses link `at`.
	at int
	// readyAt is the cycle the current hop completes (when inFlight) or
	// the earliest departure cycle (when sitting).
	readyAt uint64
	// inFlight marks a hop in progress whose arrival at `at` has not yet
	// been processed.
	inFlight bool
	// injected marks that the message has started its first hop (for the
	// one-shot bus.grant observation; never read by the timing model).
	injected bool
	// remaining counts hops left before removal: a broadcast circles
	// back to its sender; a point-to-point message stops at its
	// destination.
	remaining int
}

// Ring is a unidirectional ring Network. Each link carries at most one
// message at a time; messages advance hop by hop, broadcasts delivering
// at every intermediate node and being removed by their sender, exactly
// the behaviour the paper describes for SCI-style rings. Unlike the bus,
// separate links carry different messages concurrently, so aggregate
// bandwidth scales with node count — the reason the paper prefers rings
// for larger systems — at the cost of multi-hop broadcast latency.
type Ring struct {
	cfg LinkConfig
	n   int
	// linkFree[i] is the first cycle link i->i+1 is idle.
	linkFree []uint64
	flight   []*ringMsg
	stats    Stats
	obs      obs.Observer
	// arrivals is the scratch buffer Tick returns; reused so the per-cycle
	// delivery path is allocation-free in steady state.
	arrivals []Arrival
	// pool backs the ringMsg values CopyStateFrom materialises, reused
	// across copies so prediction scratchpads stay allocation-free in
	// steady state. Unused outside CopyStateFrom targets.
	pool []ringMsg
}

// SetObserver attaches an observer emitting a bus.grant event when a
// message starts its first hop (nil detaches).
func (r *Ring) SetObserver(o obs.Observer) { r.obs = o }

// NewRing builds a ring of numNodes nodes. It panics on invalid
// configuration (experiment-setup error).
func NewRing(cfg LinkConfig, numNodes int) *Ring {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if numNodes <= 0 {
		panic("ring: need at least one node")
	}
	return &Ring{cfg: cfg, n: numNodes, linkFree: make([]uint64, numNodes)}
}

// Config returns the ring configuration.
func (r *Ring) Config() LinkConfig { return r.cfg }

// NetStats implements Network.
func (r *Ring) NetStats() *Stats { return &r.stats }

// Enqueue implements Network.
func (r *Ring) Enqueue(m Message) {
	if m.Src < 0 || m.Src >= r.n {
		panic(fmt.Sprintf("ring: bad source %d", m.Src))
	}
	hops := r.n // broadcast: full circle back to the sender
	if m.Kind != Broadcast {
		hops = (m.Dst - m.Src + r.n) % r.n
		if hops == 0 {
			hops = r.n // self-send degenerates to a full loop; callers avoid it
		}
	}
	r.flight = append(r.flight, &ringMsg{msg: m, at: m.Src, readyAt: m.ReadyAt, remaining: hops})
	r.stats.TotalQueued.Inc()
	r.stats.Messages.Inc()
	r.stats.Bytes.Add(uint64(m.WireBytes()))
	r.stats.ByKindMsgs[m.Kind].Inc()
	r.stats.ByKindBytes[m.Kind].Add(uint64(m.WireBytes()))
}

// Pending implements Network.
func (r *Ring) Pending() int { return len(r.flight) }

// SourcePending implements Network: in-flight messages originated by
// src, wherever they currently sit on the ring.
func (r *Ring) SourcePending(src int) int {
	n := 0
	for _, f := range r.flight {
		if f.msg.Src == src {
			n++
		}
	}
	return n
}

// PurgeSource implements Network: messages src submitted that have not
// yet started their first hop die with the node; messages already
// travelling the ring keep circulating (downstream nodes forward them —
// the sender-strip removal still works because removal counts hops, not
// sender liveness).
func (r *Ring) PurgeSource(src int) int {
	n := 0
	kept := r.flight[:0]
	for _, f := range r.flight {
		if f.msg.Src == src && !f.injected {
			n++
			continue
		}
		kept = append(kept, f)
	}
	// Clear the tail so dropped *ringMsg pointers do not linger in the
	// backing array.
	for i := len(kept); i < len(r.flight); i++ {
		r.flight[i] = nil
	}
	r.flight = kept
	return n
}

// NextDeliveryCycle implements Network for the ring: the minimum over all
// in-flight hops' completion cycles and all sitting messages' earliest
// possible departures (ready and link free). The value is a safe lower
// bound — link contention may push an actual departure later, but a Tick
// at the returned cycle then simply does nothing and the scheduler
// recomputes.
func (r *Ring) NextDeliveryCycle(now uint64) uint64 {
	next := uint64(NoEvent)
	for _, f := range r.flight {
		at := f.readyAt
		if !f.inFlight && r.linkFree[f.at] > at {
			at = r.linkFree[f.at]
		}
		if at <= now {
			at = now + 1
		}
		if at < next {
			next = at
		}
	}
	return next
}

// Lookahead implements Network. One header-only hop is the cheapest move
// any ring message can make, and a message's first delivery (or any link
// occupancy it imposes on older traffic) is at least that far past its
// ReadyAt.
func (r *Ring) Lookahead() uint64 {
	la := r.cfg.transferCycles(HeaderBytes)
	if la < 1 {
		la = 1
	}
	return la
}

// NewScratch implements Network.
func (r *Ring) NewScratch() Network { return NewRing(r.cfg, r.n) }

// CopyStateFrom implements Network for the ring: replicate link
// occupancy and every in-flight message. Message values land in a
// reused pool whose capacity is ensured up front, so the pointers taken
// during the copy stay stable.
func (r *Ring) CopyStateFrom(src Network) {
	s := src.(*Ring)
	copy(r.linkFree, s.linkFree)
	if cap(r.pool) < len(s.flight) {
		r.pool = make([]ringMsg, 0, len(s.flight))
	}
	r.pool = r.pool[:0]
	// Clear any stale pointers beyond the new length before truncating.
	for i := len(s.flight); i < len(r.flight); i++ {
		r.flight[i] = nil
	}
	r.flight = r.flight[:0]
	for _, f := range s.flight {
		r.pool = append(r.pool, *f)
		r.flight = append(r.flight, &r.pool[len(r.pool)-1])
	}
}

// DataPhase implements Network for the ring. The queued-versus-blocked
// split compares each sitting message's own readiness against its
// outgoing link's availability — both frozen during any stretch
// NextDeliveryCycle certifies as no-ops — rather than the current cycle,
// so attribution cannot flip inside a skipped stretch.
//
//dsvet:hotpath
func (r *Ring) DataPhase(addr uint64, dst int, now uint64) MsgPhase {
	best := PhaseAbsent
	for _, f := range r.flight {
		if !dataMatch(f.msg, addr, dst) {
			continue
		}
		var p MsgPhase
		switch {
		case f.inFlight:
			p = PhaseTransfer
		case !f.injected && r.linkFree[f.at] <= f.readyAt:
			// Not yet on the ring and its own injection penalty is the
			// binding constraint.
			p = PhaseQueued
		default:
			// Waiting for a busy link (mid-journey or at injection).
			p = PhaseBlocked
		}
		if p > best {
			best = p
		}
	}
	return best
}

// Tick implements Network. Each message alternates between completing a
// hop (delivering at the node it reaches, when appropriate) and starting
// the next one as soon as its outgoing link is free; distinct links
// carry distinct messages concurrently. The returned slice is only valid
// until the next call.
//
//dsvet:hotpath
func (r *Ring) Tick(now uint64) []Arrival {
	out := r.arrivals[:0]
	kept := r.flight[:0]
	for _, f := range r.flight {
		// Complete an in-progress hop whose transfer has finished.
		if f.inFlight && f.readyAt <= now {
			f.inFlight = false
			f.remaining--
			deliver := false
			if f.msg.Kind == Broadcast {
				deliver = f.at != f.msg.Src
			} else {
				deliver = f.at == f.msg.Dst
			}
			if deliver {
				out = append(out, Arrival{Node: f.at, Msg: f.msg})
			}
			if f.remaining == 0 {
				continue // removed from the ring (sender strip / dst sink)
			}
		}
		// Start the next hop if sitting, ready, and the link is free.
		if !f.inFlight && f.readyAt <= now && r.linkFree[f.at] <= now {
			occ := r.cfg.transferCycles(f.msg.WireBytes())
			r.linkFree[f.at] = now + occ
			r.stats.BusyCycles.Add(occ)
			if !f.injected {
				f.injected = true
				if r.obs != nil {
					r.obs.Event(obs.Event{
						Cycle: now, Node: f.msg.Src, Kind: obs.EvBusGrant,
						Addr: f.msg.Addr, Arg: uint64(f.msg.WireBytes()),
					})
				}
			}
			f.at = (f.at + 1) % r.n
			f.readyAt = now + occ
			f.inFlight = true
		}
		kept = append(kept, f)
	}
	r.flight = kept
	r.arrivals = out
	return out
}
