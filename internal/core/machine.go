package core

import (
	"errors"
	"fmt"
	"strings"

	"github.com/wisc-arch/datascalar/internal/bus"
	"github.com/wisc-arch/datascalar/internal/cache"
	"github.com/wisc-arch/datascalar/internal/emu"
	"github.com/wisc-arch/datascalar/internal/fault"
	"github.com/wisc-arch/datascalar/internal/mem"
	"github.com/wisc-arch/datascalar/internal/obs"
	"github.com/wisc-arch/datascalar/internal/ooo"
	"github.com/wisc-arch/datascalar/internal/prog"
)

// Config parameterizes a DataScalar machine. DefaultConfig matches the
// paper's simulated implementation (Section 4.2): 8-way 1 GHz out-of-order
// cores with 256 RUU entries, 16 KB direct-mapped single-cycle write-back
// write-no-allocate L1 data caches, 8 ns on-chip memory banks behind a
// 256-bit on-chip bus, and an 8-byte global bus at half the core
// clock, with two-cycle broadcast-queue and BSHR penalties.
type Config struct {
	Nodes int
	Core  ooo.Config
	L1    cache.Config
	DRAM  mem.DRAMConfig
	// Topology selects and parameterizes the interconnect: the paper's
	// global bus (the default), the unidirectional ring of Section 4.4,
	// or the 2D mesh/torus that take the same ESP protocol to hundreds
	// of nodes. Switching families is a one-field change
	// (Topology.Kind); each family's parameters ride along.
	Topology bus.Topology

	// L1HitCycles is the load-to-use latency of an L1 hit.
	L1HitCycles uint64
	// BSHRCycles is the BSHR access latency applied when a load's data is
	// found in (or arrives at) the BSHR.
	BSHRCycles uint64
	// BcastQueueCycles is the penalty between a broadcast being generated
	// and it arbitrating for the global bus.
	BcastQueueCycles uint64
	// BSHRBufferCap bounds buffered (early-arriving) broadcast entries.
	BSHRBufferCap int

	// MaxInstr bounds each node's dynamic instruction count (0 = run to
	// completion).
	MaxInstr uint64
	// FastForwardPC functionally executes the machine's emulator up to
	// this PC before timing begins (0 = none), skipping initialization
	// phases — the experiment harness points it at the kernels'
	// bench_main label. Every node's stream starts there.
	FastForwardPC uint64
	// WatchdogCycles aborts the run when no node commits for this many
	// cycles (0 = default). A firing watchdog indicates a protocol
	// deadlock — exactly what the cache-correspondence machinery exists
	// to prevent.
	WatchdogCycles uint64
	// DigestInterval samples each node's tag-state digest every that many
	// committed memory operations for the correspondence check (0
	// disables sampling; the final state is always checked).
	DigestInterval uint64
	// Observer receives typed protocol events (broadcasts, BSHR
	// activity, false hits/misses, commit fills, bus grants) and — when
	// SampleInterval is set — interval metric samples. nil disables all
	// observation; every hook guards on nil, so the disabled path does no
	// work and allocates nothing. Observation is read-only: enabling it
	// never changes a cycle count or counter (enforced by test).
	Observer obs.Observer
	// SampleInterval emits one obs.Sample per node to Observer every
	// that many cycles, plus one final partial interval at end of run
	// (0 disables sampling; ignored without an Observer).
	SampleInterval uint64
	// Fault configures the deterministic fault-injection and resilience
	// layer (broadcast drops/delays/bit-flips, permanent node death with
	// optional degraded-mode recovery, BSHR timeout/retry detection, and
	// the commit-fingerprint divergence exchange). The zero value is
	// treated exactly like no fault layer at all: the machine builds no
	// fault state and every hot path stays untouched, which the zero-rate
	// differential suite in internal/sim enforces byte-for-byte.
	Fault fault.Config
	// ParallelNodes splits one run's node loop across that many worker
	// goroutines (conservative parallel discrete-event simulation): each
	// worker advances its span of nodes independently up to a
	// synchronization horizon derived from the interconnect's minimum
	// delivery latency (bus.Network.Lookahead), and cross-node messages
	// are exchanged at horizon barriers in a fixed deterministic order.
	// Results, observer event streams, and samples are byte-identical to
	// the serial loop (enforced by the differential suite in
	// internal/sim); see docs/PERFORMANCE.md. 0 or 1 forces the serial
	// loop; values above Nodes are clamped. A machine with an active
	// fault plan always runs the serial loop, whatever this is set to.
	ParallelNodes int
	// ResultComm enables result communication (paper Section 5.1):
	// PRIVB/PRIVE regions execute only at the node owning their data,
	// with uncached local accesses and no operand broadcasts; other
	// nodes skip the region and receive its results through ordinary ESP
	// when post-region code loads them. With the flag off, the markers
	// are inert and region accesses take the normal broadcast path.
	ResultComm bool
}

// DefaultConfig returns the paper's parameters for an n-node machine.
func DefaultConfig(n int) Config {
	return Config{
		Nodes: n,
		Core:  ooo.DefaultConfig(),
		L1: cache.Config{
			Name:      "dl1",
			SizeBytes: 16 * 1024,
			LineBytes: 32,
			Assoc:     1, // direct-mapped for speed, as in the paper
			Write:     cache.WriteBack,
			Alloc:     cache.WriteNoAllocate,
		},
		DRAM:             mem.DefaultDRAM(),
		Topology:         bus.DefaultTopology(),
		L1HitCycles:      1,
		BSHRCycles:       2,
		BcastQueueCycles: 2,
		BSHRBufferCap:    64,
		DigestInterval:   512,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("core: need at least one node")
	}
	if err := c.Core.Validate(); err != nil {
		return err
	}
	if err := c.L1.Validate(); err != nil {
		return err
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	if c.L1HitCycles == 0 {
		return fmt.Errorf("core: L1 hit latency must be positive")
	}
	if err := c.Fault.ValidateFor(c.Nodes); err != nil {
		return err
	}
	if len(c.Fault.Deaths) > 0 && c.Nodes < 2 {
		return fmt.Errorf("core: node death needs at least two nodes")
	}
	if c.L1.Alloc != cache.WriteNoAllocate {
		// The correspondence protocol implemented here commits stores
		// without a fill path; write-allocate would need store-miss
		// broadcasts (the paper argues no-allocate is superior under ESP
		// anyway).
		return fmt.Errorf("core: the DataScalar timing model requires a write-no-allocate L1")
	}
	return nil
}

// Result summarizes one DataScalar run.
type Result struct {
	Cycles       uint64
	Instructions uint64 // per node (identical across nodes)
	IPC          float64
	Nodes        []NodeStats
	BSHR         []BSHRStats
	Core         []ooo.Stats
	// CPIStacks is the per-node exhaustive cycle attribution: every one
	// of the machine's Cycles is charged to exactly one leaf cause, so
	// each node's stack sums to Cycles (see docs/OBSERVABILITY.md for the
	// taxonomy). Attribution is always on — it is a pure function of
	// timing state, so it cannot perturb a run.
	CPIStacks []obs.CPIStack
	BusStats  bus.Stats
	// CorrespondenceOK reports whether every sampled tag-state digest
	// matched across nodes (and the final states matched). A permanently
	// dead node is excluded: its state froze mid-run.
	CorrespondenceOK bool
	// Fault carries the fault layer's injection/detection/recovery
	// counters; nil when the layer is disabled, so fault-free results
	// marshal byte-identically to builds that predate the layer.
	Fault *fault.Stats `json:",omitempty"`
}

// Machine is an N-node DataScalar system.
type Machine struct {
	cfg   Config
	pt    *mem.PageTable
	net   bus.Network
	nodes []*node
	now   uint64

	// obs mirrors cfg.Observer for nil-guarded hot-path checks; sampler
	// holds the interval-delta state when sampling is enabled.
	obs     obs.Observer
	sampler *samplerState

	// fault is the resilience layer's state; nil when Config.Fault is
	// disabled, and every hook guards on that nil.
	fault *faultState

	// stream is the machine's one functional emulator and the ring of
	// dynamic instructions every node reads.
	stream *stream
}

// samplerState tracks previous-interval counter values so samples report
// interval rates rather than cumulative totals. It is observation-only
// state: the timing model never reads it.
type samplerState struct {
	lastCycle uint64
	busBusy   uint64
	nodes     []nodeSampleState
}

type nodeSampleState struct {
	committed   uint64
	broadcasts  uint64
	issueHits   uint64
	issueMisses uint64
	stack       obs.CPIStack
}

// NewMachine builds a DataScalar machine executing program p under the
// given page-table partition. The page table's node count must match the
// configuration.
func NewMachine(cfg Config, p *prog.Program, pt *mem.PageTable) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if pt.NumNodes() != cfg.Nodes {
		return nil, fmt.Errorf("core: page table built for %d nodes, machine has %d", pt.NumNodes(), cfg.Nodes)
	}
	var fs *faultState
	if cfg.Fault.Enabled() {
		fs = newFaultState(cfg.Fault.WithDefaults(), cfg.Nodes)
		if len(fs.schedule) > 0 {
			// Recovery remaps ownership; page tables are shared read-only
			// across jobs, so this run works on a private clone.
			pt = pt.Clone()
		}
	}
	net := cfg.Topology.Build(cfg.Nodes)
	m := &Machine{
		cfg:   cfg,
		pt:    pt,
		net:   net,
		obs:   cfg.Observer,
		fault: fs,
	}
	if m.obs != nil {
		net.SetObserver(m.obs)
		if cfg.SampleInterval != 0 {
			m.sampler = &samplerState{nodes: make([]nodeSampleState, cfg.Nodes)}
		}
	}
	// Every node executes the identical instruction stream and no node's
	// timing feeds a value back to the emulator, so the machine runs one
	// fast-forwarded emulator and each node reads its output through a
	// private cursor (stream.go).
	master, err := emu.NewAt(p, cfg.FastForwardPC)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	m.stream = newStream(master, cfg.MaxInstr)
	for id := 0; id < cfg.Nodes; id++ {
		nd := &node{
			id:          id,
			cfg:         &m.cfg,
			reader:      m.stream.reader(id),
			l1:          cache.New(cfg.L1),
			dram:        mem.NewDRAM(cfg.DRAM),
			bshr:        NewBSHR(cfg.BSHRBufferCap),
			pt:          pt,
			net:         m.net,
			outstanding: make(map[uint64]*missEntry),
			loads:       make([]loadSlot, cfg.Core.RUUSize),
			digests:     make(map[uint64]uint64),
		}
		nd.m = m
		nd.clock = &m.now
		if fs != nil {
			nd.bshr.SetRetry(fs.cfg.RetryTimeoutCycles, fs.cfg.RetryBackoffCapCycles)
		}
		if m.obs != nil {
			nd.obs = m.obs
			nd.bshr.SetObserver(m.obs, id, &m.now)
			nd.l1.SetObserver(m.obs, id, &m.now)
		}
		var source ooo.Source = nd.reader
		if cfg.ResultComm {
			source = &regionSource{
				inner:   source,
				pt:      pt,
				nodeID:  id,
				skipped: &nd.stats.SkippedInstr,
			}
		}
		nd.core = ooo.New(cfg.Core, source, nd)
		m.nodes = append(m.nodes, nd)
	}
	return m, nil
}

// Network returns the machine's interconnect (for stats inspection).
func (m *Machine) Network() bus.Network { return m.net }

// Run executes the program to completion on all nodes, interleaving all
// contexts cycle by cycle (the paper's simulator "switches contexts after
// executing each cycle"). ooo.Drive runs Step and, when the
// configuration allows (the default), jumps over the provably idle
// stretches NextEvent certifies; see docs/PERFORMANCE.md for the
// invariants that make the skipped and polled runs bit-identical.
func (m *Machine) Run() (Result, error) {
	var err error
	if m.cfg.ParallelNodes > 1 && m.cfg.Nodes > 1 && m.fault == nil {
		// Conservative parallel intra-run simulation: byte-identical to
		// the serial loop (see internal/core/parallel.go and the
		// differential suite in internal/sim). Fault plans take the serial
		// loop: the parallel engine holds no copy of the fault layer
		// (docs/PERFORMANCE.md §6 records why).
		err = m.runParallel()
	} else {
		_, err = ooo.Drive(m, m.now, m.cfg.Core.NoCycleSkip, m.cfg.WatchdogCycles)
	}
	if errors.Is(err, ooo.ErrNoProgress) {
		return Result{}, m.deadlockError()
	}
	if err != nil {
		return Result{}, err
	}
	if m.sampler != nil {
		m.emitSamples() // final partial interval
	}
	return m.collect(), nil
}

var _ ooo.Clocked = (*Machine)(nil)

// beginCycle opens cycle m.now for the serial Step and the parallel
// window loop alike: the sample due at a boundary (taken with the state
// every earlier cycle left), the scheduled deaths, then the done check.
func (m *Machine) beginCycle() (done bool) {
	if m.sampler != nil && m.now%m.cfg.SampleInterval == 0 {
		m.emitSamples()
	}
	if m.fault != nil {
		m.maybeKill()
	}
	for _, nd := range m.nodes {
		if !nd.core.Done() && !m.nodeDead(nd.id) {
			return false
		}
	}
	return true
}

// Step implements ooo.Clocked: after beginCycle, the interconnect
// delivers (deliveries at cycle now are visible to the cores at now),
// every node takes its cycle in id order, and the fault layer runs its
// timeout pass.
func (m *Machine) Step(now uint64) (committed uint64, done bool, err error) {
	m.now = now
	if m.beginCycle() {
		return 0, true, nil
	}
	for _, arr := range m.net.Tick(now) {
		m.nodes[arr.Node].deliver(arr.Msg, now)
	}
	noSkip := m.cfg.Core.NoCycleSkip
	for _, nd := range m.nodes {
		if m.nodeDead(nd.id) || nd.core.Done() {
			m.idle(nd, now, 1)
		} else if err := nd.cycle(now, noSkip); err != nil {
			return 0, false, fmt.Errorf("core: node %d: %w", nd.id, err)
		}
		committed += nd.core.Committed()
	}
	if m.fault != nil {
		m.checkTimeouts()
		if r := m.fault.report; r != nil {
			return 0, false, r
		}
	}
	return committed, false, nil
}

// NextEvent implements ooo.Clocked: the earliest of the interconnect's
// next delivery (its Ticks before it are no-ops), the fault layer's next
// death or BSHR deadline, and every live node's wake certificate — read
// from the cache node.cycle keeps, so a skip attempt costs no O(nodes)
// re-certification. A node due now, or a finished run (where a jump
// would inflate the final cycle count), pins the answer to now.
func (m *Machine) NextEvent(now uint64) uint64 {
	next := m.net.NextDeliveryCycle(now - 1)
	if m.fault != nil {
		next = min(next, m.faultNextEvent())
	}
	if next <= now {
		return now
	}
	live := false
	for _, nd := range m.nodes {
		if nd.core.Done() || m.nodeDead(nd.id) {
			continue
		}
		if nd.wake <= now {
			return now
		}
		live = true
		next = min(next, nd.wake)
	}
	if !live {
		return now
	}
	return next
}

// Skip implements ooo.Clocked in sample-boundary segments: attribution
// (the CPI stacks) moves across skipped cycles while every other counter
// a sample reads is frozen, so each boundary's sample must see exactly
// the cycles before it, as in the polled loop. A boundary at to is left
// to the top of Step.
func (m *Machine) Skip(now, to uint64) {
	m.now = now
	if m.sampler != nil {
		si := m.cfg.SampleInterval
		for b := (now + si - 1) / si * si; b < to; b += si {
			m.skipAdvance(b - m.now)
			m.now = b
			m.emitSamples()
		}
	}
	m.skipAdvance(to - m.now)
	m.now = to
}

// skipAdvance charges delta skipped cycles from m.now to every node.
func (m *Machine) skipAdvance(delta uint64) {
	if delta == 0 {
		return
	}
	for _, nd := range m.nodes {
		m.idle(nd, m.now, delta)
	}
}

// idle charges delta cycles from now to a node that does not run them:
// dead and halted nodes to their machine-charged buckets (keeping stacks
// exhaustive), a sleeping live core through SkipCycles.
func (m *Machine) idle(nd *node, now, delta uint64) {
	switch {
	case m.nodeDead(nd.id):
		nd.core.CPIStack().Add(obs.StallDead, delta)
	case nd.core.Done():
		nd.core.CPIStack().Add(obs.StallHalted, delta)
	default:
		nd.core.SkipCycles(now, delta)
	}
}

// emitSamples snapshots every node's interval rates and occupancies at
// the current cycle and delivers them to the observer. It reads counters
// only; the timing model is untouched.
func (m *Machine) emitSamples() {
	s := m.sampler
	interval := m.now - s.lastCycle
	if interval == 0 {
		return
	}
	busBusy := m.net.NetStats().BusyCycles.Value()
	busPct := 100 * float64(busBusy-s.busBusy) / float64(interval)
	for i, nd := range m.nodes {
		prev := &s.nodes[i]
		committed := nd.core.Committed()
		bcast := nd.stats.Broadcasts.Value()
		hits := nd.stats.IssueHits.Value()
		misses := nd.stats.IssueMisses.Value()
		sample := obs.Sample{
			Cycle:          m.now,
			IntervalCycles: interval,
			Node:           nd.id,
			Committed:      committed,
			IPC:            float64(committed-prev.committed) / float64(interval),
			BusBusyPct:     busPct,
			Broadcasts:     bcast - prev.broadcasts,
			BroadcastRate:  1000 * float64(bcast-prev.broadcasts) / float64(interval),
			BSHRWaiting:    nd.bshr.Waiting(),
			BSHRBuffered:   nd.bshr.Buffered(),
		}
		if da, dm := hits-prev.issueHits, misses-prev.issueMisses; da+dm > 0 {
			sample.L1MissRate = float64(dm) / float64(da+dm)
		}
		stack := *nd.core.CPIStack()
		for k := range sample.Stack {
			sample.Stack[k] = stack[k] - prev.stack[k]
		}
		*prev = nodeSampleState{committed: committed, broadcasts: bcast, issueHits: hits, issueMisses: misses, stack: stack}
		m.obs.Sample(sample)
	}
	s.lastCycle = m.now
	s.busBusy = busBusy
}

func boolArg(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// DeadlockError is the typed watchdog abort: full per-node protocol
// state at the moment progress stopped — what each node was waiting on
// (with retry counts when the fault layer is armed), how many messages
// each still had on the interconnect, and when each last committed. The
// CLI maps it to its own exit code, distinct from fault halts.
type DeadlockError struct {
	// Cycle is the cycle the watchdog fired.
	Cycle uint64
	// NetPending is the total undelivered message count.
	NetPending int
	// Nodes is the per-node snapshot, in node order.
	Nodes []DeadlockNode
}

// DeadlockNode is one node's state inside a DeadlockError.
type DeadlockNode struct {
	ID          int
	Committed   uint64
	MemCommits  uint64
	LastCommit  uint64 // cycle of the node's most recent commit
	Outstanding int    // open miss episodes (DCUB entries)
	SrcPending  int    // messages this node still has on the interconnect
	Buffered    int    // early-data BSHR entries
	Waiting     []DeadlockWait
}

// DeadlockWait is one pending BSHR tag inside a DeadlockNode.
type DeadlockWait struct {
	Line       uint64
	Owner      int
	Replicated bool
	Waiters    int
	Retries    int
}

// Error implements error.
func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core: deadlock: no commit progress at cycle %d: netPending=%d", e.Cycle, e.NetPending)
	for _, n := range e.Nodes {
		fmt.Fprintf(&b, "\n node%d{committed=%d memCommits=%d lastCommit=%d outstanding=%d srcPending=%d",
			n.ID, n.Committed, n.MemCommits, n.LastCommit, n.Outstanding, n.SrcPending)
		for _, w := range n.Waiting {
			fmt.Fprintf(&b, " wait[0x%x owner=%d repl=%v waiters=%d retries=%d]",
				w.Line, w.Owner, w.Replicated, w.Waiters, w.Retries)
		}
		fmt.Fprintf(&b, " buffered=%d}", n.Buffered)
	}
	return b.String()
}

func (m *Machine) deadlockError() error {
	e := &DeadlockError{Cycle: m.now, NetPending: m.net.Pending()}
	for _, nd := range m.nodes {
		dn := DeadlockNode{
			ID:          nd.id,
			Committed:   nd.core.Committed(),
			MemCommits:  nd.memCommits,
			LastCommit:  nd.core.LastCommitCycle(),
			Outstanding: len(nd.outstanding),
			SrcPending:  m.net.SourcePending(nd.id),
			Buffered:    nd.bshr.Buffered(),
		}
		for _, w := range nd.bshr.WaitingDetail() {
			dn.Waiting = append(dn.Waiting, DeadlockWait{
				Line:       w.Line,
				Owner:      m.pt.OwnerOf(w.Line),
				Replicated: m.pt.IsReplicated(w.Line),
				Waiters:    w.Waiters,
				Retries:    w.Retries,
			})
		}
		e.Nodes = append(e.Nodes, dn)
	}
	return e
}

func (m *Machine) collect() Result {
	r := Result{
		Cycles:           m.now,
		Instructions:     m.nodes[m.firstLive()].core.Committed(),
		BusStats:         *m.net.NetStats(),
		CorrespondenceOK: m.checkCorrespondence(),
	}
	for _, nd := range m.nodes {
		r.Nodes = append(r.Nodes, nd.stats)
		r.BSHR = append(r.BSHR, *nd.bshr.Stats())
		r.Core = append(r.Core, *nd.core.Stats())
		r.CPIStacks = append(r.CPIStacks, *nd.core.CPIStack())
	}
	if r.Cycles > 0 {
		r.IPC = float64(r.Instructions) / float64(r.Cycles)
	}
	if m.fault != nil {
		// Derive each death's post-death throughput in the canonical
		// stats (FaultStats readers see it too), then deep-copy the
		// per-death slice so the Result snapshot cannot alias live fault
		// state.
		for i := range m.fault.stats.Deaths {
			if d := &m.fault.stats.Deaths[i]; m.now > d.Cycle {
				d.PostDeathIPC = float64(r.Instructions-d.CommitsAtDeath) / float64(m.now-d.Cycle)
			}
		}
		snap := m.fault.stats
		snap.Deaths = append([]fault.DeathStats(nil), snap.Deaths...)
		r.Fault = &snap
	}
	return r
}

// firstLive returns the lowest-numbered node that has not died (node 0
// on every fault-free machine).
func (m *Machine) firstLive() int {
	for i := range m.nodes {
		if !m.nodeDead(i) {
			return i
		}
	}
	return 0
}

// CorrespondenceReport explains a correspondence failure: per-node
// committed-memory-op counts, and the first sampled milestone whose tag
// digests disagree. Empty when the invariant holds.
func (m *Machine) CorrespondenceReport() string {
	if m.checkCorrespondence() {
		return ""
	}
	out := ""
	ref := m.nodes[0]
	for _, nd := range m.nodes {
		out += fmt.Sprintf("node%d{memCommits=%d finalDigest=%x} ", nd.id, nd.memCommits, nd.l1.StateDigest())
	}
	// Find the smallest mismatching sampled milestone.
	var worst uint64
	found := false
	for k, v := range ref.digests {
		for _, nd := range m.nodes[1:] {
			if ov, ok := nd.digests[k]; ok && ov != v {
				if !found || k < worst {
					worst, found = k, true
				}
			}
		}
	}
	if found {
		out += fmt.Sprintf("first digest mismatch at memCommits=%d", worst)
	}
	return out
}

// checkCorrespondence verifies the protocol invariant: every node's tag
// state is identical at equal committed-memory-op counts. A permanently
// dead node is excluded — its state froze mid-run, but the sampled
// digests it produced while alive must still match.
func (m *Machine) checkCorrespondence() bool {
	ref := m.nodes[m.firstLive()]
	for _, nd := range m.nodes {
		if nd == ref {
			continue
		}
		if !m.nodeDead(nd.id) {
			if nd.memCommits != ref.memCommits {
				return false
			}
			if nd.l1.StateDigest() != ref.l1.StateDigest() {
				return false
			}
		}
		for k, v := range ref.digests {
			if ov, ok := nd.digests[k]; ok && ov != v {
				return false
			}
		}
	}
	return true
}

// Emu returns the machine's functional emulator, the one every node's
// instruction stream comes from (tests use it to verify architectural
// results).
func (m *Machine) Emu() *emu.Machine { return m.stream.em }
