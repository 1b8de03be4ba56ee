package bus

import "fmt"

// TopologyKind selects the interconnect family a machine is built on.
// The paper evaluates a shared bus and sketches SCI-style rings for
// larger systems; the mesh and torus kinds extend that reasoning to the
// hundreds-of-nodes regime where a single serialization point (bus) or
// O(N) broadcast latency (ring) stops scaling. The set is closed: dsvet
// requires every switch over TopologyKind to cover all kinds or panic in
// its default.
//
//dsvet:enum
type TopologyKind uint8

const (
	// TopoBus: one global shared bus; every transaction is an implicit
	// broadcast observed by all nodes in the same cycle.
	TopoBus TopologyKind = iota
	// TopoRing: a unidirectional point-to-point ring; broadcasts are
	// delivered hop by hop and stripped by their sender.
	TopoRing
	// TopoMesh: a 2D mesh with dimension-order routing; broadcasts fan
	// out on a dimension-order tree (row first, columns branching off).
	TopoMesh
	// TopoTorus: the mesh with wraparound links, halving worst-case hop
	// distance on both axes.
	TopoTorus
)

// String names the kind the way the -topology CLI flag spells it.
func (k TopologyKind) String() string {
	switch k {
	case TopoBus:
		return "bus"
	case TopoRing:
		return "ring"
	case TopoMesh:
		return "mesh"
	case TopoTorus:
		return "torus"
	default:
		panic(fmt.Sprintf("bus: unknown TopologyKind %d", uint8(k)))
	}
}

// ParseTopologyKind parses a -topology flag value.
func ParseTopologyKind(s string) (TopologyKind, error) {
	switch s {
	case "bus":
		return TopoBus, nil
	case "ring":
		return TopoRing, nil
	case "mesh":
		return TopoMesh, nil
	case "torus":
		return TopoTorus, nil
	}
	return 0, fmt.Errorf("unknown topology %q (want bus, ring, mesh, or torus)", s)
}

// Topology is the interconnect configuration of a machine: which family
// to build plus the one link parameter set every family reads, so
// switching Kind is a one-field change and a sweep of Bus reaches
// whatever family the machine is built on.
type Topology struct {
	// Kind selects the interconnect family.
	Kind TopologyKind
	// Bus parameterizes the shared bus, or each link of the ring, mesh
	// and torus: width, clock, and the per-hop router latency only the
	// multi-hop kinds add.
	Bus Config
}

// DefaultTopology returns the paper's baseline: the shared bus at its
// default parameters.
func DefaultTopology() Topology {
	return Topology{Kind: TopoBus, Bus: DefaultConfig()}
}

// Validate checks the kind and the link parameters.
func (t Topology) Validate() error {
	switch t.Kind {
	case TopoBus, TopoRing, TopoMesh, TopoTorus:
		return t.Bus.Validate()
	default:
		return fmt.Errorf("bus: unknown topology kind %d", uint8(t.Kind))
	}
}

// Links returns the number of independent transfer resources a
// numNodes-node instance of this kind has: the utilization denominator
// for aggregate busy-cycle stats (one shared bus, one link per ring
// node, four directed links per mesh/torus node).
func (k TopologyKind) Links(numNodes int) int {
	switch k {
	case TopoBus:
		return 1
	case TopoRing:
		return numNodes
	case TopoMesh, TopoTorus:
		return 4 * numNodes
	default:
		panic(fmt.Sprintf("bus: unknown TopologyKind %d", uint8(k)))
	}
}

// Build constructs the Network for numNodes nodes. It panics on invalid
// configuration (experiment-setup error), matching New and NewMesh.
func (t Topology) Build(numNodes int) Network {
	switch t.Kind {
	case TopoBus:
		return New(t.Bus, numNodes)
	case TopoRing:
		return NewRing(t.Bus, numNodes)
	case TopoMesh:
		return NewMesh(t.Bus, numNodes)
	case TopoTorus:
		return NewTorus(t.Bus, numNodes)
	default:
		panic(fmt.Sprintf("bus: unknown topology kind %d", uint8(t.Kind)))
	}
}
