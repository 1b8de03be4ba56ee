package core

import (
	"strings"
	"testing"

	"github.com/wisc-arch/datascalar/internal/asm"
	"github.com/wisc-arch/datascalar/internal/bus"
	"github.com/wisc-arch/datascalar/internal/mem"
)

// streamSum walks a multi-page array summing 64-bit words: sequential
// access with the data set spread across all nodes.
const streamSum = `
        .data
arr:    .space 32768          # 4 pages: touches every node in a 4-node run
        .text
        la   r1, arr
        li   r2, 4096         # words
        li   r3, 0
        li   r4, 7
loop:   sd   r4, 0(r1)        # init on the fly: write then read back later
        addi r1, r1, 8
        addi r2, r2, -1
        bne  r2, zero, loop
        la   r1, arr
        li   r2, 4096
sum:    ld   r5, 0(r1)
        add  r3, r3, r5
        addi r1, r1, 8
        addi r2, r2, -1
        bne  r2, zero, sum
        halt
`

// pointerChase builds a linked list spanning pages, then walks it:
// dependent accesses whose locality DataScalar turns into datathreads.
const pointerChase = `
        .data
nodes:  .space 32768
        .text
        # Build list: node i at nodes + i*264 points to node i+1 (stride
        # chosen to conflict in a direct-mapped cache occasionally).
        la   r1, nodes
        li   r2, 123          # count
build:  addi r3, r1, 264
        sd   r3, 0(r1)
        mov  r1, r3
        addi r2, r2, -1
        bne  r2, zero, build
        sd   zero, 0(r1)      # terminate
        # Walk it 3 times.
        li   r6, 3
outer:  la   r1, nodes
walk:   ld   r1, 0(r1)
        bne  r1, zero, walk
        addi r6, r6, -1
        bne  r6, zero, outer
        halt
`

// storeHeavy issues almost as many stores as loads, the compress-like
// pattern that gave the paper its biggest win.
const storeHeavy = `
        .data
buf:    .space 32768
        .text
        li   r6, 2            # passes
pass:   la   r1, buf
        li   r2, 4096
st:     sd   r2, 0(r1)
        addi r1, r1, 8
        addi r2, r2, -1
        bne  r2, zero, st
        addi r6, r6, -1
        bne  r6, zero, pass
        halt
`

func buildMachine(t testing.TB, src string, nodes int, mut func(*Config)) *Machine {
	t.Helper()
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	pt, err := mem.Partition{NumNodes: nodes, BlockPages: 1, ReplicateText: true}.Build(p)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	cfg := DefaultConfig(nodes)
	cfg.WatchdogCycles = 200_000
	if mut != nil {
		mut(&cfg)
	}
	m, err := NewMachine(cfg, p, pt)
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	return m
}

// checkStreamConsumed asserts that every live node's reader reached the
// end of the machine's instruction stream and that the node accounted
// for every instruction it read: committed it, or skipped it inside a
// remote private region. With one emulator per machine, comparing one
// node's registers with another's would be a tautology; this is what
// such a comparison used to show.
func checkStreamConsumed(t testing.TB, m *Machine) {
	t.Helper()
	s := m.stream
	if !s.ended {
		t.Fatalf("instruction stream did not reach its end (head %d)", s.head)
	}
	for _, nd := range m.nodes {
		if m.nodeDead(nd.id) {
			continue
		}
		if nd.reader.pos != s.head {
			t.Fatalf("node %d stopped at stream position %d, stream ends at %d", nd.id, nd.reader.pos, s.head)
		}
		if got := nd.core.Committed() + nd.stats.SkippedInstr.Value(); got != nd.reader.pos {
			t.Fatalf("node %d committed+skipped %d instructions, read %d", nd.id, got, nd.reader.pos)
		}
	}
}

func mustRunMachine(t *testing.T, m *Machine) Result {
	t.Helper()
	r, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !r.CorrespondenceOK {
		t.Fatal("cache correspondence violated")
	}
	return r
}

func TestSingleNodeRuns(t *testing.T) {
	m := buildMachine(t, streamSum, 1, nil)
	r := mustRunMachine(t, m)
	if r.Instructions == 0 || r.IPC <= 0 {
		t.Fatalf("result = %+v", r)
	}
	if r.BusStats.Messages.Value() != 0 {
		t.Fatalf("single node used the bus: %d messages", r.BusStats.Messages.Value())
	}
	if got := m.Emu().Reg(3); got != 7*4096 {
		t.Fatalf("functional sum = %d, want %d", got, 7*4096)
	}
	checkStreamConsumed(t, m)
}

func TestTwoNodeStreamSum(t *testing.T) {
	m := buildMachine(t, streamSum, 2, nil)
	r := mustRunMachine(t, m)

	// Functional: the correct sum, and both nodes read the whole stream.
	if got := m.Emu().Reg(3); got != 7*4096 {
		t.Fatalf("sum = %d", got)
	}
	checkStreamConsumed(t, m)
	// Both nodes committed the same instruction count.
	if r.Core[0].Committed != r.Core[1].Committed {
		t.Fatalf("commit counts differ: %d vs %d", r.Core[0].Committed, r.Core[1].Committed)
	}
	// ESP: only broadcasts on the bus, never requests or responses.
	if r.BusStats.ByKindMsgs[bus.Request].Value() != 0 ||
		r.BusStats.ByKindMsgs[bus.Response].Value() != 0 {
		t.Fatal("ESP machine sent request/response traffic")
	}
	if r.BusStats.ByKindMsgs[bus.Broadcast].Value() == 0 {
		t.Fatal("no broadcasts on a distributed data set")
	}
	// Each node broadcast something (data is round-robin across both).
	for i := 0; i < 2; i++ {
		if r.Nodes[i].Broadcasts.Value() == 0 {
			t.Fatalf("node %d never broadcast", i)
		}
	}
}

func TestFourNodePointerChase(t *testing.T) {
	m := buildMachine(t, pointerChase, 4, nil)
	r := mustRunMachine(t, m)
	if r.BusStats.ByKindMsgs[bus.Broadcast].Value() == 0 {
		t.Fatal("no broadcasts")
	}
	// Remote misses must have occurred (the chain crosses pages owned by
	// different nodes).
	var remote uint64
	for _, ns := range r.Nodes {
		remote += ns.RemoteMisses.Value()
	}
	if remote == 0 {
		t.Fatal("no remote misses on a cross-node pointer chase")
	}
}

func TestStoreTrafficEliminated(t *testing.T) {
	m := buildMachine(t, storeHeavy, 2, nil)
	r := mustRunMachine(t, m)
	// Stores complete locally at owners and drop elsewhere: the bus must
	// carry only load broadcasts. The second pass reloads nothing, so
	// broadcast count must be far below the store count.
	var stores uint64
	for _, cs := range r.Core {
		stores += cs.Stores
	}
	if stores == 0 {
		t.Fatal("no stores committed")
	}
	var dropped, local uint64
	for _, ns := range r.Nodes {
		dropped += ns.StoresDropped.Value()
		local += ns.StoresLocal.Value()
	}
	if dropped == 0 {
		t.Fatal("non-owners did not drop stores")
	}
	if local == 0 {
		t.Fatal("owners did not complete stores")
	}
}

func TestDataScalarFasterThanSerializedMemory(t *testing.T) {
	// Sanity: a 2-node DataScalar run of the pointer chase should beat a
	// configuration with a pathologically slow bus (which serializes on
	// every remote operand).
	fast := mustRunMachine(t, buildMachine(t, pointerChase, 2, nil))
	slow := mustRunMachine(t, buildMachine(t, pointerChase, 2, func(c *Config) {
		c.Topology.Bus.ClockDivisor = 100
	}))
	if fast.Cycles >= slow.Cycles {
		t.Fatalf("fast bus %d cycles !< slow bus %d cycles", fast.Cycles, slow.Cycles)
	}
}

func TestReplicationEliminatesBroadcasts(t *testing.T) {
	// Replicating every data page makes all accesses local: zero bus
	// traffic even on two nodes.
	p, err := asm.Assemble("t", streamSum)
	if err != nil {
		t.Fatal(err)
	}
	repl := make(map[uint64]bool)
	for _, pg := range p.Pages() {
		repl[pg] = true
	}
	pt, err := mem.Partition{NumNodes: 2, ReplicateText: true, ReplicatedPages: repl}.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(2)
	cfg.WatchdogCycles = 200_000
	m, err := NewMachine(cfg, p, pt)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.BusStats.Messages.Value() != 0 {
		t.Fatalf("fully replicated run sent %d messages", r.BusStats.Messages.Value())
	}
	if !r.CorrespondenceOK {
		t.Fatal("correspondence violated")
	}
}

func TestMaxInstrLimit(t *testing.T) {
	m := buildMachine(t, streamSum, 2, func(c *Config) { c.MaxInstr = 500 })
	r := mustRunMachine(t, m)
	if r.Instructions != 500 {
		t.Fatalf("instructions = %d, want 500", r.Instructions)
	}
}

func TestConfigValidation(t *testing.T) {
	p, err := asm.Assemble("t", streamSum)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := mem.Partition{NumNodes: 2, ReplicateText: true}.Build(p)
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig(2)
	cfg.Nodes = 0
	if _, err := NewMachine(cfg, p, pt); err == nil {
		t.Error("zero nodes accepted")
	}

	cfg = DefaultConfig(4) // mismatched with 2-node page table
	if _, err := NewMachine(cfg, p, pt); err == nil {
		t.Error("node-count mismatch accepted")
	}

	cfg = DefaultConfig(2)
	cfg.L1.Alloc = 0 // write-allocate
	if _, err := NewMachine(cfg, p, pt); err == nil {
		t.Error("write-allocate L1 accepted by timing model")
	}
}

func TestNodeCountScaling(t *testing.T) {
	// The machine must run correctly (not necessarily faster) at 1, 2,
	// and 4 nodes, with correspondence holding at each size.
	for _, n := range []int{1, 2, 4} {
		m := buildMachine(t, streamSum, n, nil)
		r := mustRunMachine(t, m)
		if r.Instructions == 0 {
			t.Fatalf("%d nodes: nothing committed", n)
		}
	}
}

func TestDatathreadingEvidence(t *testing.T) {
	// On the pointer chase, some broadcasts should arrive before the
	// local processor asks (buffered hits) — the "data found in BSHR"
	// phenomenon of Table 3. This is statistical but deterministic for a
	// fixed seed/program.
	m := buildMachine(t, pointerChase, 2, nil)
	r := mustRunMachine(t, m)
	var buffered uint64
	for _, b := range r.BSHR {
		buffered += b.BufferedHits.Value()
	}
	if buffered == 0 {
		t.Log("no buffered BSHR hits on this kernel (acceptable but unexpected)")
	}
}

func TestSegmentedFootprintIsMapped(t *testing.T) {
	// Programs touching stack and globals must have every access mapped
	// (MustLookup would panic otherwise and fail the run).
	src := `
        .data
g:      .space 64
        .text
        addi sp, sp, -32
        li   r1, 5
        sd   r1, 0(sp)
        la   r2, g
        sd   r1, 8(r2)
        ld   r3, 0(sp)
        ld   r4, 8(r2)
        add  r5, r3, r4
        addi sp, sp, 32
        halt
`
	m := buildMachine(t, src, 2, nil)
	r := mustRunMachine(t, m)
	if r.Instructions == 0 {
		t.Fatal("nothing ran")
	}
	if got := m.Emu().Reg(5); got != 10 {
		t.Fatalf("r5 = %d", got)
	}
}

func TestNonBusInterconnects(t *testing.T) {
	// The DataScalar machine must run correctly over every multi-hop
	// topology (the paper's envisioned high-performance interconnects):
	// same results, same correspondence guarantee, broadcasts observed
	// by every node as they propagate.
	for _, topo := range []bus.TopologyKind{bus.TopoRing, bus.TopoMesh, bus.TopoTorus} {
		topo := topo
		t.Run(topo.String(), func(t *testing.T) {
			onTopo := func(c *Config) { c.Topology.Kind = topo }
			m := buildMachine(t, streamSum, 4, onTopo)
			r := mustRunMachine(t, m)
			if got := m.Emu().Reg(3); got != 7*4096 {
				t.Fatalf("sum = %d", got)
			}
			checkStreamConsumed(t, m)
			if r.BusStats.ByKindMsgs[bus.Broadcast].Value() == 0 {
				t.Fatalf("no broadcasts on the %s", topo)
			}
			// And the pointer chase, which stresses ordering.
			m2 := buildMachine(t, pointerChase, 4, onTopo)
			mustRunMachine(t, m2)
		})
	}
}

func TestTopologiesAllComplete(t *testing.T) {
	// Interconnect choice changes timing, never results: every topology
	// must retire the identical instruction stream.
	onBus := mustRunMachine(t, buildMachine(t, storeHeavy, 2, nil))
	for _, topo := range []bus.TopologyKind{bus.TopoRing, bus.TopoMesh, bus.TopoTorus} {
		onTopo := mustRunMachine(t, buildMachine(t, storeHeavy, 2, func(c *Config) { c.Topology.Kind = topo }))
		if onBus.Instructions != onTopo.Instructions {
			t.Fatalf("%s: instruction counts differ: %d vs %d", topo, onBus.Instructions, onTopo.Instructions)
		}
	}
}

func TestResultReport(t *testing.T) {
	m := buildMachine(t, streamSum, 2, nil)
	r := mustRunMachine(t, m)
	tables := r.Report()
	if len(tables) != 3 {
		t.Fatalf("report tables = %d", len(tables))
	}
	out := ""
	for _, tb := range tables {
		out += tb.String()
	}
	for _, want := range []string{"DataScalar run", "Per-node ESP", "BSHR", "broadcasts", "ok"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}
