package bus

import "fmt"

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

// NewRing builds the paper's unidirectional ring of numNodes nodes: the
// one-way 1×N torus (see Mesh). Each link carries one message at a
// time, so unlike the bus separate links carry different messages
// concurrently and aggregate bandwidth scales with node count — the
// reason the paper prefers rings for larger systems — at the cost of
// multi-hop broadcast latency. It panics on invalid configuration
// (experiment-setup error).
func NewRing(cfg LinkConfig, numNodes int) *Mesh {
	ms := newMesh(cfg, numNodes, true)
	ms.w, ms.h, ms.oneWay = numNodes, 1, true
	return ms
}
