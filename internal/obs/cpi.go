package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// StallKind is one leaf cause in the cycle-attribution taxonomy: every
// simulated cycle of every node is attributed to exactly one kind, so
// per-node stacks always sum to the machine's total cycle count (the
// exhaustiveness invariant, enforced by test in internal/sim).
//
// Attribution is head-of-window (oldest-instruction) based, the standard
// CPI-stack methodology: a cycle in which the node commits at least one
// instruction counts as useful work; otherwise the cycle is charged to
// whatever is blocking the oldest instruction (or, with an empty window,
// to the front end). See docs/OBSERVABILITY.md for the full taxonomy.
//
// The taxonomy is closed: dsvet requires every switch over StallKind to
// cover all kinds or panic in its default, so adding a bucket fails
// lint until every consumer is updated.
//
//dsvet:enum
type StallKind uint8

const (
	// StallCommit: the node committed at least one instruction this
	// cycle — useful work, the "base" segment of the CPI stack.
	StallCommit StallKind = iota
	// StallExec: the oldest instruction is executing (ALU latency, a
	// cache-hit load in flight, or a completed result waiting its turn) —
	// pipeline-fill cycles that are not attributable to any machine
	// resource shortage.
	StallExec
	// StallFetch: the front end is stalled on an instruction-cache miss
	// and the window has drained empty.
	StallFetch
	// StallEmptyWindow: the window is empty with no I-fetch outstanding
	// (dispatch just flushed, or start-of-run warmup).
	StallEmptyWindow
	// StallRUUFull: dispatch is blocked because the register update unit
	// (reorder window) is full while the oldest instruction makes no
	// progress.
	StallRUUFull
	// StallLSQFull: dispatch is blocked on a full load/store queue.
	StallLSQFull
	// StallMemLocal: the oldest instruction is a load waiting on this
	// node's own memory hierarchy (local L1 miss to the on-chip bank).
	StallMemLocal
	// StallMemRemote: the oldest instruction is a load waiting in the
	// BSHR for a remote owner that has not yet pushed the line (the
	// owner-side access + broadcast-queue latency of asynchronous ESP).
	StallMemRemote
	// StallMemRetry: the oldest instruction is a load whose BSHR wait
	// timed out and is now in the fault layer's retry/backoff protocol.
	StallMemRetry
	// StallNetContention: the data the oldest load needs is ready at its
	// producer but queued behind other traffic (bus arbitration loss, or
	// a busy ring link).
	StallNetContention
	// StallESPSerial: the data the oldest load needs is on the wire right
	// now — the unavoidable serialization of the broadcast interconnect.
	// The traditional machine never charges it: its request/response
	// wire occupancy is part of the remote round trip.
	StallESPSerial
	// StallDead: the node has been killed by the fault layer; every
	// subsequent machine cycle is charged here.
	StallDead
	// StallHalted: the node finished its program and idles while the
	// rest of the machine drains.
	StallHalted

	// NumStallKinds is the number of leaf causes.
	NumStallKinds = iota
)

var stallNames = [NumStallKinds]string{
	StallCommit:        "commit",
	StallExec:          "exec",
	StallFetch:         "fetch.icache",
	StallEmptyWindow:   "frontend.empty",
	StallRUUFull:       "window.ruu-full",
	StallLSQFull:       "window.lsq-full",
	StallMemLocal:      "bshr.local-miss",
	StallMemRemote:     "bshr.remote-owner",
	StallMemRetry:      "bshr.retry-backoff",
	StallNetContention: "net.contention",
	StallESPSerial:     "esp.serialization",
	StallDead:          "node.dead",
	StallHalted:        "node.halted",
}

// String names the stall kind (the dotted taxonomy used in artifacts).
func (k StallKind) String() string {
	if int(k) < len(stallNames) {
		return stallNames[k]
	}
	return fmt.Sprintf("stall(%d)", uint8(k))
}

// MarshalJSON renders the kind as its taxonomy name.
func (k StallKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// StallKindByName resolves a taxonomy name back to its kind (for reading
// serialized CPI stacks).
func StallKindByName(name string) (StallKind, bool) {
	for k, n := range stallNames {
		if n == name {
			return StallKind(k), true
		}
	}
	return 0, false
}

// StallKindNames returns the taxonomy names in canonical (stack) order.
func StallKindNames() []string {
	out := make([]string, NumStallKinds)
	copy(out, stallNames[:])
	return out
}

// CPIStack is one node's exhaustive cycle attribution: Stack[k] cycles
// were charged to cause k, and the buckets sum exactly to the cycles the
// node was simulated for. It is a fixed array so per-cycle accumulation
// never allocates.
type CPIStack [NumStallKinds]uint64

// Add charges n cycles to cause k.
func (s *CPIStack) Add(k StallKind, n uint64) { s[k] += n }

// Total returns the sum over all buckets — by the exhaustiveness
// invariant, the node's total simulated cycles.
func (s CPIStack) Total() uint64 {
	var t uint64
	for _, v := range s {
		t += v
	}
	return t
}

// Share returns bucket k's fraction of the total (0 when empty).
func (s CPIStack) Share(k StallKind) float64 {
	t := s.Total()
	if t == 0 {
		return 0
	}
	return float64(s[k]) / float64(t)
}

// MarshalJSON renders the stack as an object keyed by taxonomy name, in
// canonical stack order (Go maps would sort keys; the fixed order keeps
// artifacts byte-stable and human-scannable top-down).
func (s CPIStack) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	for k := 0; k < NumStallKinds; k++ {
		if k > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `"%s":%d`, stallNames[k], s[k])
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// UnmarshalJSON reads the object form back; unknown bucket names are an
// error so artifact version skew fails loudly rather than silently
// dropping cycles.
func (s *CPIStack) UnmarshalJSON(data []byte) error {
	var raw map[string]uint64
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	*s = CPIStack{}
	// Walk the keys in sorted order so the error for version skew names
	// the same bucket on every run regardless of map iteration order.
	names := make([]string, 0, len(raw))
	for name := range raw {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		k, ok := StallKindByName(name)
		if !ok {
			return fmt.Errorf("obs: unknown CPI bucket %q", name)
		}
		s[k] = raw[name]
	}
	return nil
}

// SumStacks adds per-node stacks into one machine-wide stack.
func SumStacks(stacks []CPIStack) CPIStack {
	var out CPIStack
	for _, s := range stacks {
		for k, v := range s {
			out[k] += v
		}
	}
	return out
}

// CPISection is the cpiStack section of the metrics artifact: the run's
// committed instruction count and the per-node cycle-attribution stacks.
type CPISection struct {
	Instructions uint64     `json:"instructions"`
	Nodes        []CPIStack `json:"nodes"`
}
