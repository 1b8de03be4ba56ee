// Package obs is the structured observability layer threaded through the
// simulator: typed protocol events, interval metric samples, and the
// sinks that turn them into machine-readable run artifacts (a
// Chrome-trace-event JSON loadable in Perfetto, and a JSON metrics time
// series).
//
// Observation is strictly read-only and provably non-perturbing: every
// hook site guards on a nil Observer and emits value-typed events, so a
// run with observation enabled produces bit-identical cycle counts and
// protocol counters to a run without it (enforced by test in
// internal/core), and a nil observer adds no allocation to any hot path.
package obs

import (
	"fmt"
)

// EventKind enumerates the typed protocol events the simulator emits.
// The set is closed: dsvet requires every switch over EventKind to
// cover all kinds or panic in its default.
//
//dsvet:enum
type EventKind uint8

const (
	// EvBroadcastSent: a node pushed an ESP broadcast of a line
	// (Arg = 1 when reparative, i.e. a late commit-time repair).
	EvBroadcastSent EventKind = iota
	// EvBroadcastArrived: a broadcast landed at a receiving node.
	EvBroadcastArrived
	// EvBSHRAlloc: a load allocated a waiting BSHR entry.
	EvBSHRAlloc
	// EvBSHRJoin: a load merged into an existing waiting BSHR entry.
	EvBSHRJoin
	// EvBSHRFoundBuffered: a load found its data already buffered in the
	// BSHR — the broadcast beat the local processor (datathreading).
	EvBSHRFoundBuffered
	// EvBSHRMatch: an arrival satisfied waiting entries (Arg = tokens
	// released).
	EvBSHRMatch
	// EvBSHRBuffer: an arrival was buffered for a future request
	// (Arg = buffered occupancy after insertion).
	EvBSHRBuffer
	// EvBSHRSquash: an arrival or buffered entry was squashed
	// (false-hit repair / absorption of an unconsumed broadcast).
	EvBSHRSquash
	// EvFalseHit: issue-time hit, commit-time miss.
	EvFalseHit
	// EvFalseMiss: issue-time miss, commit-time hit.
	EvFalseMiss
	// EvMissFold: an issue-time miss folded into an outstanding line
	// (the paper's false-miss folding).
	EvMissFold
	// EvCommitFill: the commit-update drain installed a line in the L1
	// (the DCUB-to-cache move).
	EvCommitFill
	// EvCacheFill: the tag store installed a line (any machine).
	EvCacheFill
	// EvCacheWriteback: a fill evicted a dirty victim (Addr = victim
	// line).
	EvCacheWriteback
	// EvBusGrant: the interconnect granted (bus) or injected (ring) a
	// message (Arg = wire bytes; Node = source).
	EvBusGrant
	// EvBusDeliver: a point-to-point message arrived at its destination
	// (traditional machine request/response traffic; Arg = message kind).
	EvBusDeliver
	// EvFaultDrop: the fault layer dropped a broadcast delivery at this
	// node (Addr = line; Arg = source node).
	EvFaultDrop
	// EvFaultDelay: the fault layer held a broadcast back before it could
	// arbitrate (Addr = line; Arg = extra cycles).
	EvFaultDelay
	// EvFaultFlip: the fault layer corrupted a delivery's payload as seen
	// by this node (Addr = line; Arg = source node).
	EvFaultFlip
	// EvFaultDeath: a node failed permanently (Arg = messages purged).
	EvFaultDeath
	// EvFaultTimeout: a BSHR wait exceeded its deadline (Addr = line;
	// Arg = retries already spent).
	EvFaultTimeout
	// EvFaultRetry: a node re-requested a timed-out line from its owner
	// (Addr = line; Arg = owner node).
	EvFaultRetry
	// EvFaultRetryServed: an owner answered a re-request with a directed
	// resend (Addr = line; Arg = requesting node).
	EvFaultRetryServed
	// EvFaultFingerprint: a node broadcast its commit fingerprint
	// (Addr = interval index; Arg = fingerprint value).
	EvFaultFingerprint
	// EvFaultDivergence: the fingerprint exchange detected a cross-node
	// divergence (Addr = interval index; Node = attributed culprit or -1).
	EvFaultDivergence
	// EvFaultRemap: a dead owner's pages were remapped to a successor
	// (Node = successor; Arg = pages moved).
	EvFaultRemap
	// EvFaultWarmFill: a page's new owner pushed a warm copy to a
	// standby replica, or the standby absorbed it (Addr = page base;
	// Arg = peer node).
	EvFaultWarmFill
	// EvFaultQuorumLoss: a death drove the live-node count below the
	// configured minimum quorum (Arg = live nodes remaining).
	EvFaultQuorumLoss

	// numEventKinds stays untyped (explicit iota) so it never reads as
	// an extra enumerator to dsvet's exhaustive-switch check.
	numEventKinds = iota
)

var eventNames = [numEventKinds]string{
	EvBroadcastSent:     "broadcast.sent",
	EvBroadcastArrived:  "broadcast.arrived",
	EvBSHRAlloc:         "bshr.alloc",
	EvBSHRJoin:          "bshr.join",
	EvBSHRFoundBuffered: "bshr.found-buffered",
	EvBSHRMatch:         "bshr.match",
	EvBSHRBuffer:        "bshr.buffer",
	EvBSHRSquash:        "bshr.squash",
	EvFalseHit:          "correspondence.false-hit",
	EvFalseMiss:         "correspondence.false-miss",
	EvMissFold:          "correspondence.miss-fold",
	EvCommitFill:        "commit.fill",
	EvCacheFill:         "cache.fill",
	EvCacheWriteback:    "cache.writeback",
	EvBusGrant:          "bus.grant",
	EvBusDeliver:        "bus.deliver",
	EvFaultDrop:         "fault.drop",
	EvFaultDelay:        "fault.delay",
	EvFaultFlip:         "fault.flip",
	EvFaultDeath:        "fault.death",
	EvFaultTimeout:      "fault.timeout",
	EvFaultRetry:        "fault.retry",
	EvFaultRetryServed:  "fault.retry-served",
	EvFaultFingerprint:  "fault.fingerprint",
	EvFaultDivergence:   "fault.divergence",
	EvFaultRemap:        "fault.remap",
	EvFaultWarmFill:     "fault.warm-fill",
	EvFaultQuorumLoss:   "fault.quorum-loss",
}

// String names the event kind (the dotted taxonomy used in traces).
func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// MarshalJSON renders the kind as its taxonomy name.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// Event is one typed protocol event. It is passed by value everywhere so
// that emission never allocates.
type Event struct {
	Cycle uint64    `json:"cycle"`
	Node  int       `json:"node"`
	Kind  EventKind `json:"kind"`
	// Addr is the line (or message) address the event concerns.
	Addr uint64 `json:"addr"`
	// Arg is a kind-specific detail (reparative flag, wire bytes,
	// released-token count, ...). See the kind's documentation.
	Arg uint64 `json:"arg"`
}

// Sample is one interval snapshot of one node's rates and occupancies,
// emitted by the machine's sampler every SampleInterval cycles (plus a
// final partial interval at end of run).
type Sample struct {
	// Cycle is the cycle at the end of the sampled interval.
	Cycle uint64 `json:"cycle"`
	// IntervalCycles is the interval's length (the final sample may be
	// shorter than the configured interval).
	IntervalCycles uint64 `json:"intervalCycles"`
	Node           int    `json:"node"`
	// Committed is the node's cumulative committed instruction count.
	Committed uint64 `json:"committed"`
	// IPC is the interval IPC (committed this interval / interval
	// cycles).
	IPC float64 `json:"ipc"`
	// BusBusyPct is the interconnect's busy percentage over the interval
	// (global, so identical across nodes in one interval).
	BusBusyPct float64 `json:"busBusyPct"`
	// Broadcasts is the number of ESP broadcasts this node pushed during
	// the interval.
	Broadcasts uint64 `json:"broadcasts"`
	// BroadcastRate is Broadcasts per thousand cycles.
	BroadcastRate float64 `json:"broadcastRatePerKCycle"`
	// BSHRWaiting and BSHRBuffered are the node's instantaneous BSHR
	// occupancies at the sample point.
	BSHRWaiting  int `json:"bshrWaiting"`
	BSHRBuffered int `json:"bshrBuffered"`
	// L1MissRate is the interval issue-time miss rate (issue misses /
	// issue accesses during the interval).
	L1MissRate float64 `json:"l1MissRate"`
	// Stack is the node's cycle attribution over this interval (bucket
	// deltas, not cumulative): by the exhaustiveness invariant its total
	// equals IntervalCycles.
	Stack CPIStack `json:"cpiStack"`
}

// Observer receives protocol events and interval samples. A nil Observer
// disables all observation at zero cost; hook sites must guard on nil
// before constructing an Event. Implementations must treat events as
// read-only telemetry: they see simulator state mid-cycle and must never
// mutate it.
type Observer interface {
	// Event delivers one protocol event.
	Event(e Event)
	// Sample delivers one interval metric sample.
	Sample(s Sample)
}

// multi fans events and samples out to several sinks.
type multi []Observer

func (m multi) Event(e Event) {
	for _, o := range m {
		o.Event(e)
	}
}

func (m multi) Sample(s Sample) {
	for _, o := range m {
		o.Sample(s)
	}
}

// Multi combines observers into one, dropping nils. It returns nil when
// none remain (preserving the nil fast path) and the observer itself
// when exactly one remains.
func Multi(obs ...Observer) Observer {
	var out multi
	for _, o := range obs {
		if o != nil {
			out = append(out, o)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

// Counts is a minimal Observer that tallies events by kind and counts
// samples; tests and quick diagnostics use it.
type Counts struct {
	ByKind  [numEventKinds]uint64
	Samples int
}

// Event implements Observer.
func (c *Counts) Event(e Event) {
	if int(e.Kind) < len(c.ByKind) {
		c.ByKind[e.Kind]++
	}
}

// Sample implements Observer.
func (c *Counts) Sample(Sample) { c.Samples++ }

// Total returns the total event count across kinds.
func (c *Counts) Total() uint64 {
	var n uint64
	for _, v := range c.ByKind {
		n += v
	}
	return n
}
