// Package ooo implements the out-of-order core timing model shared by
// every machine: a Register Update Unit (RUU) instruction window, a
// load/store queue with store-to-load forwarding, configurable issue and
// commit widths, per-class operation latencies, and perfect branch
// prediction — the paper's processor model (8-way issue, 256-entry RUU,
// LSQ of half the RUU size, loads access the cache at issue time, stores
// at commit time).
//
// The core is memory-system agnostic: loads and committed memory
// operations are delegated to a MemPort, which the DataScalar node
// (internal/core), the traditional machine (internal/traditional), and
// the perfect-cache baseline implement differently. The MemPort contract
// is the key to the paper's cache-correspondence protocol: the core calls
// CommitLoad/CommitStore in architectural program order, which is
// identical at every node, so commit-time cache updates stay correspondent
// however differently the nodes issued.
package ooo

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/wisc-arch/datascalar/internal/cache"

	"github.com/wisc-arch/datascalar/internal/emu"
	"github.com/wisc-arch/datascalar/internal/isa"
	"github.com/wisc-arch/datascalar/internal/obs"
	"github.com/wisc-arch/datascalar/internal/stats"
)

// NoEvent is the NextEventCycle sentinel for "no self-scheduled event":
// the core cannot act again until an external completion arrives.
const NoEvent = math.MaxUint64

// Source supplies the committed-path dynamic instruction stream (perfect
// branch prediction makes the fetched path equal the committed path).
type Source interface {
	// Next returns the next dynamic instruction, or ok=false at program
	// end.
	Next() (d emu.Dyn, ok bool, err error)
}

// LoadToken identifies an in-flight load for completion callbacks; it is
// the load's dynamic sequence number.
type LoadToken uint64

// MemPort is the memory system seen by one core.
type MemPort interface {
	// IssueLoad is called when a (non-forwarded) load issues. It returns
	// the cycle the data will be ready, or pending=true if the latency is
	// unknown (e.g. the operand must arrive by broadcast); a pending load
	// is finished later via Core.CompleteLoad.
	IssueLoad(now uint64, tok LoadToken, addr uint64, size int) (doneAt uint64, pending bool)
	// CommitLoad is called, in program order, when a non-forwarded load
	// commits. Implementations update commit-time cache state here. tok
	// is the same token passed to IssueLoad, so implementations can match
	// commit-time against issue-time events (false hit/miss detection).
	CommitLoad(now uint64, tok LoadToken, addr uint64, size int)
	// CommitStore is called, in program order, when a store commits.
	CommitStore(now uint64, addr uint64, size int)
}

// LoadClassifier is the optional MemPort extension cycle attribution
// consults when the oldest instruction in the window is a load inside
// the memory system: it names the leaf cause currently blocking that
// load (local-miss service, a remote owner that has not pushed yet, the
// retry/backoff protocol, interconnect contention, or wire
// serialization; StallExec for a plain cache hit in flight). The answer
// must be a pure function of simulator state that stays constant across
// any stretch of cycles the machine's next-event scheduler certifies as
// no-ops — that is what keeps CPI stacks bit-identical with cycle
// skipping on and off. Ports that do not implement it charge in-flight
// loads to StallExec.
type LoadClassifier interface {
	ClassifyLoad(now uint64, tok LoadToken, addr uint64) obs.StallKind
}

// PrivatePort is the optional MemPort extension for result-communication
// regions (paper Section 5.1). When the port implements it and
// UsePrivate reports true, memory operations flagged Private bypass the
// ordinary cache path: private loads complete via IssuePrivateLoad with
// no commit-time bookkeeping, and private stores commit via
// CommitPrivateStore. Ports that leave UsePrivate false (or do not
// implement the interface) see private operations as ordinary ones.
type PrivatePort interface {
	// UsePrivate reports whether private handling is enabled.
	UsePrivate() bool
	// IssuePrivateLoad returns the completion cycle of an uncached
	// private load.
	IssuePrivateLoad(now uint64, addr uint64, size int) uint64
	// CommitPrivateStore completes an uncached private store.
	CommitPrivateStore(now uint64, addr uint64, size int)
}

// Config holds the core parameters.
type Config struct {
	FetchWidth  int
	IssueWidth  int
	CommitWidth int
	RUUSize     int
	LSQSize     int
	// FwdDist is the maximum program-order distance (in dynamic
	// instructions) across which a store forwards to a load. The decision
	// is made purely from program order so that every DataScalar node
	// makes the same one; see the package comment.
	FwdDist uint64
	// ICache, when non-nil, models a fetch-side instruction cache: a
	// fetch miss stalls dispatch for IFetchMissCycles while the line is
	// filled from local memory. Program text is replicated at every
	// DataScalar node (and held on-chip by the baseline), so instruction
	// fills are always local and never generate interconnect traffic —
	// which is why the default configuration (nil) models fetch as
	// perfect, like the paper's evaluation effectively does once text is
	// replicated.
	ICache *cache.Config
	// IFetchMissCycles is the dispatch stall charged per I-cache miss.
	IFetchMissCycles uint64
	// Latency is the execution latency per functional-unit class; the
	// ClassLoad entry is unused (the MemPort decides load latency) and
	// ClassStore is the commit-readiness latency.
	Latency [isa.NumClasses]uint64
	// NoCycleSkip forces strict cycle-by-cycle polling, disabling
	// next-event cycle skipping, in every loop that drives this core: the
	// standalone Run driver and the DataScalar and traditional machines,
	// which carry this config as their Config.Core. Results are
	// bit-identical either way (the differential suites prove it); the
	// flag exists for that differential testing and for debugging.
	NoCycleSkip bool
}

// DefaultConfig returns the paper's core: 8-way fetch/issue/commit, 256
// RUU entries, a 128-entry LSQ, and conventional latencies.
func DefaultConfig() Config {
	var lat [isa.NumClasses]uint64
	lat[isa.ClassIntALU] = 1
	lat[isa.ClassIntMul] = 3
	lat[isa.ClassIntDiv] = 12
	lat[isa.ClassFPAdd] = 2
	lat[isa.ClassFPMul] = 4
	lat[isa.ClassFPDiv] = 12
	lat[isa.ClassLoad] = 1
	lat[isa.ClassStore] = 1
	lat[isa.ClassBranch] = 1
	lat[isa.ClassMisc] = 1
	return Config{
		FetchWidth:  8,
		IssueWidth:  8,
		CommitWidth: 8,
		RUUSize:     256,
		LSQSize:     128,
		FwdDist:     128,
		Latency:     lat,
	}
}

// Validate checks structural soundness.
func (c Config) Validate() error {
	if c.FetchWidth <= 0 || c.IssueWidth <= 0 || c.CommitWidth <= 0 {
		return fmt.Errorf("ooo: widths must be positive")
	}
	if c.RUUSize <= 0 || c.LSQSize <= 0 {
		return fmt.Errorf("ooo: RUU and LSQ sizes must be positive")
	}
	return nil
}

// Stats counts core events.
type Stats struct {
	Cycles      uint64
	Committed   uint64
	Loads       uint64
	Stores      uint64
	FwdLoads    uint64 // loads satisfied by store forwarding
	PendingLds  uint64 // loads that issued with unknown latency
	WindowFullC uint64 // cycles dispatch stalled on a full RUU
	LSQFullC    uint64 // cycles dispatch stalled on a full LSQ
	IFetchMiss  uint64 // instruction-cache misses (when an I-cache is configured)
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	return stats.Ratio{Part: s.Committed, Whole: s.Cycles}.Value()
}

type uopState uint8

const (
	stDispatched uopState = iota
	stIssued
	stCompleted
)

type uop struct {
	seq    uint64
	dyn    emu.Dyn
	state  uopState
	doneAt uint64
	// waiting counts distinct unresolved producers. Consumers to notify
	// at completion live in the producer's wakeup bitmap row (Core.wake),
	// one bit per RUU slot, so a consumer with several dependences on the
	// same producer costs one bit and one waiting count.
	waiting int
	// fwdFrom is the store this load forwards from (by seq), or 0 with
	// fwd=false.
	fwdFrom uint64
	fwd     bool
	inLSQ   bool
}

// completion-event heap ordered by (doneAt, seq). The heap is hand-rolled
// rather than container/heap so pushes never box the event into an
// interface — Cycle runs once per simulated cycle per core, and the two
// heap pushes per instruction were the core's dominant allocation source.
// The (at, seq) order is total, so the pop sequence is identical to the
// container/heap implementation it replaces.
type compEvent struct {
	at  uint64
	seq uint64
}
type compHeap []compEvent

func compLess(a, b compEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *compHeap) push(e compEvent) {
	s := append(*h, e)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !compLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

func (h *compHeap) pop() compEvent {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && compLess(s[l], s[min]) {
			min = l
		}
		if r < n && compLess(s[r], s[min]) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	*h = s
	return top
}

// The ready set is a bitmap over RUU slots rather than a heap of seqs:
// one bit per slot, scanned with math/bits.TrailingZeros64. The window
// always holds the contiguous seq range [head, nextSeq), so slot order
// starting from head%RUUSize and wrapping IS seq order — a circular
// first-set-bit scan pops the oldest ready instruction without any heap
// discipline, and set/clear are single OR/AND-NOT word ops. (The heap
// this replaced survives in readyselect_bench_test.go as the
// BenchmarkReadySelect baseline.)

// Core is one out-of-order processor.
type Core struct {
	cfg  Config
	src  Source
	mem  MemPort
	priv PrivatePort    // non-nil when mem implements PrivatePort
	cls  LoadClassifier // non-nil when mem implements LoadClassifier

	// ruu is the RUU as a ring buffer: the window always holds the
	// contiguous seq range [head, nextSeq), so uop seq lives at slot
	// seq % RUUSize and slot reuse preallocates every uop (and its wakeup
	// slice) exactly once — the map of pointers this replaces allocated
	// per dispatched instruction.
	ruu     []uop
	head    uint64 // oldest seq in window (commit pointer)
	nextSeq uint64 // next seq to dispatch
	lsqUsed int

	lastWriter [isa.NumIntRegs + isa.NumFPRegs]struct {
		seq   uint64
		valid bool
	}
	// lastStore maps 8-byte-aligned chunk -> last store touching it.
	lastStore map[uint64]storeRef

	comp compHeap
	// readyBits has one bit per RUU slot: set iff that slot holds a
	// dispatched uop with waiting == 0 that has not yet issued. readyCount
	// mirrors the population count so emptiness checks are O(1).
	readyBits  []uint64
	readyCount int
	// wake is the wakeup matrix: row p (wakeWords words starting at
	// p*wakeWords) is producer slot p's consumer set, one bit per consumer
	// slot. complete() drains and zeroes a row; admit() zeroes the
	// recycled slot's row defensively.
	wake      []uint64
	wakeWords int

	srcDone bool
	err     error
	// skid holds one instruction fetched past a full LSQ or a fetch
	// miss, redelivered before the next stream pull.
	skid    emu.Dyn
	hasSkid bool
	// icache models the fetch path when configured.
	icache          *cache.Cache
	fetchStallUntil uint64

	stats          Stats
	lastCommitAt   uint64
	regRefsScratch []isa.RegRef

	// stack is the core's exhaustive cycle attribution: Cycle and
	// SkipCycles charge every counted cycle to exactly one bucket, so
	// stack.Total() == stats.Cycles at all times (machines top the stack
	// up for cycles they never hand the core — dead or halted nodes).
	// Always on: attribution is a pure function of timing state, so it
	// cannot perturb a run, and the fixed array never allocates.
	stack obs.CPIStack
}

// lookup returns the in-window uop with the given seq, or nil when seq
// has already committed (or was never dispatched). The window is the
// contiguous range [head, nextSeq), so a range check replaces the map
// probe.
func (c *Core) lookup(seq uint64) *uop {
	if seq < c.head || seq >= c.nextSeq {
		return nil
	}
	return &c.ruu[seq%uint64(len(c.ruu))]
}

// windowLen returns the current RUU occupancy.
func (c *Core) windowLen() int { return int(c.nextSeq - c.head) }

// setReady marks the uop in slot as ready to issue. The caller guarantees
// the bit is currently clear: a dispatched uop reaches waiting == 0
// exactly once, and admit only calls this for a freshly claimed slot.
//
//dsvet:hotpath
func (c *Core) setReady(slot uint64) {
	c.readyBits[slot>>6] |= 1 << (slot & 63)
	c.readyCount++
}

// popReadySlot removes and returns the oldest ready slot. Oldest means
// smallest seq: the window is the contiguous range [head, nextSeq), so a
// circular scan of slots starting at head%RUUSize visits uops in seq
// order, and the first set bit is the oldest ready instruction. The
// caller guarantees readyCount > 0.
//
//dsvet:hotpath
func (c *Core) popReadySlot() uint64 {
	start := c.head % uint64(len(c.ruu))
	wi := int(start >> 6)
	off := start & 63
	// Bits at or above the head position in the head word come first...
	if w := c.readyBits[wi] &^ (1<<off - 1); w != 0 {
		b := uint64(bits.TrailingZeros64(w))
		slot := uint64(wi)<<6 | b
		c.readyBits[wi] &^= 1 << b
		c.readyCount--
		return slot
	}
	// ...then the remaining words circularly, with the head word's low
	// bits (slots that wrapped past the end of the ring) checked last.
	nw := len(c.readyBits)
	for i := 1; i <= nw; i++ {
		j := wi + i
		if j >= nw {
			j -= nw
		}
		w := c.readyBits[j]
		if j == wi {
			w &= 1<<off - 1
		}
		if w != 0 {
			b := uint64(bits.TrailingZeros64(w))
			slot := uint64(j)<<6 | b
			c.readyBits[j] &^= 1 << b
			c.readyCount--
			return slot
		}
	}
	panic("ooo: popReadySlot with empty ready set")
}

// addDep records that u must wait for producer p to complete, by setting
// u's bit in p's wakeup row. A bit already set means u already depends on
// p through another operand (rs1 == rs2, or a register plus a memory
// dependence on the same store); one completion satisfies every such
// dependence at once, so waiting is counted per distinct producer.
//
//dsvet:hotpath
func (c *Core) addDep(p, u *uop) {
	us := u.seq % uint64(len(c.ruu))
	w := &c.wake[(p.seq%uint64(len(c.ruu)))*uint64(c.wakeWords)+us>>6]
	bit := uint64(1) << (us & 63)
	if *w&bit == 0 {
		*w |= bit
		u.waiting++
	}
}

type storeRef struct {
	seq  uint64
	addr uint64
	size int
	// private marks stores inside a result-communication region. They
	// must never forward to non-private loads: at DataScalar nodes that
	// skip the region, the store is absent from the stream and cannot
	// forward, so the owner forwarding would elide a broadcast the
	// skippers are waiting on.
	private bool
}

// New creates a core pulling instructions from src with memory system
// mem. It panics on invalid configuration.
func New(cfg Config, src Source, mem MemPort) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nw := (cfg.RUUSize + 63) / 64
	c := &Core{
		cfg:       cfg,
		src:       src,
		mem:       mem,
		ruu:       make([]uop, cfg.RUUSize),
		lastStore: make(map[uint64]storeRef),
		readyBits: make([]uint64, nw),
		wake:      make([]uint64, cfg.RUUSize*nw),
		wakeWords: nw,
	}
	if p, ok := mem.(PrivatePort); ok {
		c.priv = p
	}
	if lc, ok := mem.(LoadClassifier); ok {
		c.cls = lc
	}
	if cfg.ICache != nil {
		c.icache = cache.New(*cfg.ICache)
	}
	return c
}

// isPrivate reports whether u takes the result-communication private
// path.
func (c *Core) isPrivate(u *uop) bool {
	return u.dyn.Private && c.priv != nil && c.priv.UsePrivate()
}

// Stats returns the core counters.
func (c *Core) Stats() *Stats { return &c.stats }

// Err returns the first stream error encountered, if any.
func (c *Core) Err() error { return c.err }

// Done reports whether the program has fully committed.
func (c *Core) Done() bool {
	return c.srcDone && c.head == c.nextSeq
}

// Committed returns the number of committed instructions.
func (c *Core) Committed() uint64 { return c.stats.Committed }

// LastCommitCycle returns the cycle of the most recent commit, for
// deadlock watchdogs.
func (c *Core) LastCommitCycle() uint64 { return c.lastCommitAt }

// CompleteLoad finishes a pending load. The machine calls this when the
// operand arrives (e.g. by broadcast); at must be >= the current cycle.
func (c *Core) CompleteLoad(tok LoadToken, at uint64) {
	u := c.lookup(uint64(tok))
	if u == nil || u.state != stIssued {
		// The load may have been satisfied already (e.g. duplicate
		// completion); ignore.
		return
	}
	u.doneAt = at
	c.comp.push(compEvent{at: at, seq: u.seq})
}

// Cycle advances the core one clock. Stage order within a cycle:
// completions, commit, issue, dispatch — so a value produced this cycle
// wakes consumers next cycle, and commit frees window slots for this
// cycle's dispatch. Every cycle is charged to exactly one CPI bucket:
// commit when at least one instruction retired, otherwise whatever
// StallClass names as blocking the oldest instruction.
//
// Cycle is allocation-free in steady state (TestCycleZeroAllocs);
// dsvet:hotpath keeps it that way statically.
//
//dsvet:hotpath
func (c *Core) Cycle(now uint64) {
	c.stats.Cycles++
	committed0 := c.stats.Committed
	c.complete(now)
	c.commit(now)
	c.issue(now)
	c.dispatch(now)
	if c.stats.Committed > committed0 {
		c.stack[obs.StallCommit]++
	} else {
		c.stack[c.StallClass(now)]++
	}
}

// CPIStack returns the core's cycle-attribution stack. Machines use the
// pointer both to read the stack into results and to top it up for
// machine cycles the core never ran (dead or halted nodes), keeping the
// exhaustiveness invariant stack.Total() == machine cycles.
func (c *Core) CPIStack() *obs.CPIStack { return &c.stack }

// StallClass names the leaf cause blocking the core this cycle, for
// cycles that committed nothing. It is a pure function of core (and,
// through LoadClassifier, memory-system) state: inside any stretch of
// cycles NextEventCycle certifies as no-ops the answer is constant,
// which is what lets SkipCycles attribute a whole stretch in one call
// and keeps CPI stacks bit-identical with cycle skipping on and off.
//
// Precedence when several conditions hold: a halted core is just done;
// an empty window is the front end's fault (I-cache miss in flight, or
// fill transient); a memory-bound oldest instruction charges the memory
// system even when the window has backed up full behind it (the
// backpressure is a symptom, the miss is the cause); only then do the
// window-resource stalls (RUU, LSQ) and the fetch stall claim the
// cycle; everything left is pipeline execution latency.
func (c *Core) StallClass(now uint64) obs.StallKind {
	if c.Done() {
		return obs.StallHalted
	}
	if c.windowLen() == 0 {
		if c.hasSkid && c.icache != nil && now < c.fetchStallUntil {
			return obs.StallFetch
		}
		return obs.StallEmptyWindow
	}
	u := c.lookup(c.head)
	if u.state == stIssued {
		op := u.dyn.Instr.Op
		if op.IsLoad() && !u.fwd && !c.isPrivate(u) && c.cls != nil {
			return c.cls.ClassifyLoad(now, LoadToken(u.seq), u.dyn.EA)
		}
	}
	if !c.srcDone {
		switch {
		case c.windowLen() >= c.cfg.RUUSize:
			return obs.StallRUUFull
		case c.hasSkid && c.skid.Instr.Op.IsMem() && c.lsqUsed >= c.cfg.LSQSize:
			return obs.StallLSQFull
		case c.hasSkid && c.icache != nil && now < c.fetchStallUntil:
			return obs.StallFetch
		}
	}
	return obs.StallExec
}

// NextEventCycle reports when the core can next change state. It returns
// (next, true) when Cycle(t) is provably a no-op for every t in
// [now, next) — apart from the deterministic per-cycle stall counters,
// which SkipCycles replays in bulk — so a scheduler may jump straight to
// next. It returns (_, false) when the core might act at now itself, in
// which case the caller must run the cycle normally. next == NoEvent
// means the core has no self-scheduled event and can only be woken
// externally (CompleteLoad from a broadcast or bus response).
//
// The stage-by-stage argument, mirroring Cycle's order:
//
//   - complete: acts only when the completion heap's head is due
//     (comp[0].at <= t); the earliest such t is comp[0].at.
//   - commit: acts only when the window head is completed — a state that
//     can only be produced by an earlier complete, which is an event.
//   - issue: acts only when the ready heap is non-empty; entries are only
//     added by admit (dispatch) or complete, both events.
//   - dispatch: with the source drained it is a pure no-op. With a full
//     RUU it increments WindowFullC and returns; with the skid buffer
//     holding a memory op against a full LSQ it increments LSQFullC and
//     returns — both replayed exactly by SkipCycles. A fetch-stalled skid
//     (I-cache miss in flight) is a pure no-op until fetchStallUntil.
//     In every other state dispatch would pull the source or admit the
//     skid, which is progress, so the core is not skippable.
func (c *Core) NextEventCycle(now uint64) (uint64, bool) {
	// Commit possible this cycle?
	if u := c.lookup(c.head); u != nil && u.state == stCompleted {
		return now, false
	}
	if c.readyCount > 0 {
		return now, false
	}
	next := uint64(NoEvent)
	if len(c.comp) > 0 {
		if c.comp[0].at <= now {
			return now, false
		}
		next = c.comp[0].at
	}
	if !c.srcDone {
		switch {
		case c.windowLen() >= c.cfg.RUUSize:
			// Window-full stall: counted by SkipCycles, freed only by a
			// completion or external wakeup (already folded into next).
		case c.hasSkid && c.skid.Instr.Op.IsMem() && c.lsqUsed >= c.cfg.LSQSize:
			// LSQ-full stall: likewise.
		case c.hasSkid && c.icache != nil && now < c.fetchStallUntil:
			if c.fetchStallUntil < next {
				next = c.fetchStallUntil
			}
		default:
			// Dispatch would fetch or admit: the core can act now.
			return now, false
		}
	}
	return next, true
}

// SkipCycles advances the core's per-cycle accounting over delta cycles
// starting at now that a scheduler proved (via NextEventCycle) to be
// no-ops: the active cycle count, whichever dispatch stall counter the
// frozen state would have incremented each cycle, and the CPI bucket
// StallClass names — constant across the stretch precisely because the
// state is frozen. Calling it with the core in any other state breaks
// bit-identity with the polled loop.
//
//dsvet:hotpath
func (c *Core) SkipCycles(now, delta uint64) {
	c.stats.Cycles += delta
	c.stack[c.StallClass(now)] += delta
	if c.srcDone {
		return
	}
	if c.windowLen() >= c.cfg.RUUSize {
		c.stats.WindowFullC += delta
	} else if c.hasSkid && c.skid.Instr.Op.IsMem() && c.lsqUsed >= c.cfg.LSQSize {
		c.stats.LSQFullC += delta
	}
}

func (c *Core) complete(now uint64) {
	for len(c.comp) > 0 && c.comp[0].at <= now {
		ev := c.comp.pop()
		u := c.lookup(ev.seq)
		if u == nil || u.state == stCompleted || u.doneAt != ev.at {
			continue // stale event
		}
		u.state = stCompleted
		// Drain the producer's wakeup row: each set bit is a distinct
		// consumer slot. Slot-scan order differs from seq order, but the
		// effects (waiting decrements, ready-bit sets) commute, and the
		// ready bitmap pops in seq order regardless of set order.
		row := c.wake[(ev.seq%uint64(len(c.ruu)))*uint64(c.wakeWords):]
		for wi := 0; wi < c.wakeWords; wi++ {
			w := row[wi]
			if w == 0 {
				continue
			}
			row[wi] = 0
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &= w - 1
				d := &c.ruu[wi<<6|b]
				d.waiting--
				if d.waiting == 0 && d.state == stDispatched {
					c.setReady(uint64(wi<<6 | b))
				}
			}
		}
	}
}

func (c *Core) commit(now uint64) {
	for n := 0; n < c.cfg.CommitWidth; n++ {
		u := c.lookup(c.head)
		if u == nil || u.state != stCompleted {
			return
		}
		op := u.dyn.Instr.Op
		if op.IsMem() && !u.fwd {
			switch {
			case c.isPrivate(u):
				// Private accesses bypass the caches entirely; only
				// stores need a commit action (the write to local
				// memory), and no correspondence bookkeeping happens.
				if op.IsStore() {
					c.priv.CommitPrivateStore(now, u.dyn.EA, op.MemBytes())
				}
			case op.IsStore():
				c.mem.CommitStore(now, u.dyn.EA, op.MemBytes())
			default:
				c.mem.CommitLoad(now, LoadToken(u.seq), u.dyn.EA, op.MemBytes())
			}
		}
		if u.inLSQ {
			c.lsqUsed--
		}
		c.head++
		c.stats.Committed++
		c.lastCommitAt = now
	}
}

func (c *Core) issue(now uint64) {
	for n := 0; n < c.cfg.IssueWidth && c.readyCount > 0; n++ {
		u := &c.ruu[c.popReadySlot()]
		seq := u.seq
		u.state = stIssued
		op := u.dyn.Instr.Op
		switch {
		case op.IsLoad() && !u.fwd && c.isPrivate(u):
			c.stats.Loads++
			u.doneAt = c.priv.IssuePrivateLoad(now, u.dyn.EA, op.MemBytes())
		case op.IsLoad() && !u.fwd:
			c.stats.Loads++
			done, pending := c.mem.IssueLoad(now, LoadToken(seq), u.dyn.EA, op.MemBytes())
			if pending {
				c.stats.PendingLds++
				continue // completion arrives via CompleteLoad
			}
			u.doneAt = done
		case op.IsLoad() && u.fwd:
			c.stats.Loads++
			c.stats.FwdLoads++
			u.doneAt = now + 1
		case op.IsStore():
			c.stats.Stores++
			u.doneAt = now + c.cfg.Latency[isa.ClassStore]
		default:
			u.doneAt = now + c.cfg.Latency[op.Class()]
		}
		c.comp.push(compEvent{at: u.doneAt, seq: seq})
	}
}

func (c *Core) dispatch(now uint64) {
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.srcDone {
			return
		}
		if c.windowLen() >= c.cfg.RUUSize {
			c.stats.WindowFullC++
			return
		}
		// Peek memory-op LSQ capacity: we must know the instruction to
		// check, so fetch then possibly stall next cycle instead; to keep
		// the model simple we check after fetch and absorb one overshoot
		// by holding the instruction in a one-entry skid buffer.
		d, ok, err := c.nextDyn()
		if err != nil {
			c.err = err
			c.srcDone = true
			return
		}
		if !ok {
			c.srcDone = true
			return
		}
		if d.Instr.Op.IsMem() && c.lsqUsed >= c.cfg.LSQSize {
			c.stats.LSQFullC++
			c.pushback(d)
			return
		}
		if c.icache != nil {
			if now < c.fetchStallUntil {
				c.pushback(d)
				return
			}
			if !c.icache.Access(d.PC, false).Hit {
				// Fill from local memory; dispatch resumes when the line
				// arrives. The instruction itself dispatches then.
				c.stats.IFetchMiss++
				c.fetchStallUntil = now + c.cfg.IFetchMissCycles
				c.pushback(d)
				return
			}
		}
		c.admit(now, d)
	}
}

func (c *Core) pushback(d emu.Dyn) {
	c.skid = d
	c.hasSkid = true
}

func (c *Core) nextDyn() (emu.Dyn, bool, error) {
	if c.hasSkid {
		c.hasSkid = false
		return c.skid, true, nil
	}
	return c.src.Next()
}

func (c *Core) admit(now uint64, d emu.Dyn) {
	// Claim the next ring slot and zero its wakeup row. complete()
	// already zeroed it when the slot's previous occupant finished, so
	// this is defensive — but a stale bit would silently corrupt a
	// waiting count, and wakeWords stores per admit are noise next to the
	// map work below.
	slot := c.nextSeq % uint64(len(c.ruu))
	u := &c.ruu[slot]
	*u = uop{seq: c.nextSeq, dyn: d}
	row := c.wake[slot*uint64(c.wakeWords):]
	for wi := 0; wi < c.wakeWords; wi++ {
		row[wi] = 0
	}
	c.nextSeq++

	// Register dependences.
	c.regRefsScratch = d.Instr.SrcRegs(c.regRefsScratch[:0])
	for _, ref := range c.regRefsScratch {
		lw := c.lastWriter[ref.Index()]
		if !lw.valid {
			continue
		}
		if p := c.lookup(lw.seq); p != nil && p.state != stCompleted {
			c.addDep(p, u)
		}
	}

	op := d.Instr.Op
	if op.IsMem() {
		u.inLSQ = true
		c.lsqUsed++
		c.memDeps(u)
	}
	if op == isa.OpPRIVB || op == isa.OpPRIVE {
		// Region markers are store-forwarding barriers: no load may
		// forward across one. DataScalar nodes that skip a region body
		// still dispatch its markers, so the barrier falls at the same
		// program position everywhere and forwarding decisions stay
		// identical across nodes (see internal/core/resultcomm.go).
		clear(c.lastStore)
	}

	// Record destination writer after reading sources (handles rd==rs).
	if dst, ok := d.Instr.DstReg(); ok {
		c.lastWriter[dst.Index()] = struct {
			seq   uint64
			valid bool
		}{u.seq, true}
	}

	if u.waiting == 0 {
		c.setReady(slot)
	}
}

// pruneStores bounds lastStore. A ref more than FwdDist seqs old can
// never influence a forwarding decision (memDeps requires
// u.seq-ref.seq <= FwdDist and every future load has u.seq >= nextSeq),
// so stale entries are dead weight; on streaming stores they would grow
// the map — and its allocations — without bound. Sweeping only when the
// map is well past its live-entry bound (each store covers at most two
// chunks) keeps the amortized cost O(1) per store.
func (c *Core) pruneStores() {
	if uint64(len(c.lastStore)) < 4*c.cfg.FwdDist+64 {
		return
	}
	for chunk, ref := range c.lastStore {
		if ref.seq+c.cfg.FwdDist < c.nextSeq {
			delete(c.lastStore, chunk)
		}
	}
}

// memDeps establishes load/store ordering. Stores record their footprint;
// loads forward from a containing recent store (adding a dependence on
// it) or, on partial overlap, depend on the store conservatively.
// The forwarding decision uses only program-order information (seq
// distance), never node-local timing, so all DataScalar nodes decide
// identically.
func (c *Core) memDeps(u *uop) {
	op := u.dyn.Instr.Op
	lo := u.dyn.EA &^ 7
	hi := (u.dyn.EA + uint64(op.MemBytes()) - 1) &^ 7
	if op.IsStore() {
		ref := storeRef{seq: u.seq, addr: u.dyn.EA, size: op.MemBytes(), private: u.dyn.Private}
		for chunk := lo; ; chunk += 8 {
			c.lastStore[chunk] = ref
			if chunk == hi {
				break
			}
		}
		c.pruneStores()
		return
	}
	// Load: find the youngest older store overlapping any chunk.
	var best storeRef
	found := false
	for chunk := lo; ; chunk += 8 {
		if ref, ok := c.lastStore[chunk]; ok && ref.seq < u.seq {
			if overlaps(ref.addr, ref.size, u.dyn.EA, op.MemBytes()) {
				if !found || ref.seq > best.seq {
					best, found = ref, true
				}
			}
		}
		if chunk == hi {
			break
		}
	}
	if !found || u.seq-best.seq > c.cfg.FwdDist {
		return
	}
	contains := best.addr <= u.dyn.EA &&
		best.addr+uint64(best.size) >= u.dyn.EA+uint64(op.MemBytes())
	if p := c.lookup(best.seq); p != nil && p.state != stCompleted {
		c.addDep(p, u)
	}
	if contains && !(best.private && !u.dyn.Private) {
		u.fwd = true
		u.fwdFrom = best.seq
	}
	// Partial overlap: the dependence alone orders the load after the
	// store's completion; the load then accesses memory normally.
}

func overlaps(aAddr uint64, aSize int, bAddr uint64, bSize int) bool {
	return aAddr < bAddr+uint64(bSize) && bAddr < aAddr+uint64(aSize)
}
