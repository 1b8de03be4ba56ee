package core

import (
	"fmt"

	"github.com/wisc-arch/datascalar/internal/bus"
	"github.com/wisc-arch/datascalar/internal/cache"
	"github.com/wisc-arch/datascalar/internal/emu"
	"github.com/wisc-arch/datascalar/internal/fault"
	"github.com/wisc-arch/datascalar/internal/mem"
	"github.com/wisc-arch/datascalar/internal/obs"
	"github.com/wisc-arch/datascalar/internal/ooo"
	"github.com/wisc-arch/datascalar/internal/stats"
)

// NodeStats counts per-node DataScalar events.
type NodeStats struct {
	// Issue-time load classification.
	IssueHits    stats.Counter
	IssueMisses  stats.Counter
	MergedMisses stats.Counter // misses folded into an outstanding line (false-miss folding)
	LocalMisses  stats.Counter // misses served by local memory (replicated or owned)
	RemoteMisses stats.Counter // misses that waited on (or found) a broadcast

	// ESP broadcast activity (owner side).
	Broadcasts     stats.Counter
	LateBroadcasts stats.Counter // reparative broadcasts issued at commit (false hits)

	// Commit-time correspondence events.
	FalseHits   stats.Counter // issue-time hit, commit-time miss
	FalseMisses stats.Counter // issue-time miss, commit-time hit
	Fills       stats.Counter

	// Writeback disposition: ESP never sends write traffic off-chip.
	WritebacksLocal   stats.Counter // dirty victim written to local memory (owner)
	WritebacksDropped stats.Counter // dirty victim dropped (non-owner of a dynamically replicated line)

	StoresLocal   stats.Counter // committed store misses completed in local memory
	StoresDropped stats.Counter // committed store misses dropped (not the owner)

	// Result communication (paper Section 5.1).
	PrivateLoads  stats.Counter // uncached in-region loads executed (owner side)
	PrivateStores stats.Counter // uncached in-region stores executed (owner side)
	SkippedInstr  stats.Counter // instructions skipped as remote private regions
}

// missEntry is a Commit Update Buffer (DCUB) entry: it tracks an
// in-flight cache line. Every issue-time miss to the line merges into it
// instead of generating new traffic (the paper's false-miss folding: "any
// sequence of accesses to the same line will generate only one miss").
// Following the paper — "a DCUB entry is deallocated when the last entry
// in the load/store queue that uses that line is committed" — the entry
// is reference-counted by the attached in-flight loads and freed only
// when the last one commits. Deleting it earlier re-opens a window where
// a later issue to the same line misses and waits on a broadcast the
// owner (whose copy merged into the old episode) never sends: a deadlock.
type missEntry struct {
	line uint64
	// refs counts attached in-flight (issued, uncommitted) loads.
	refs int
	// dataAt is the cycle the line's data is available locally; valid
	// when pending is false.
	dataAt  uint64
	pending bool // waiting for a broadcast (non-owner)
	// local marks an episode served by this node's own memory (replicated
	// or owned page); stall attribution uses it to split known-latency
	// miss service between the local bank and the BSHR tail of a
	// broadcast that already arrived.
	local bool
	// broadcasted records that this node (as owner) has pushed a
	// broadcast that the *next* commit-time fill of this line will
	// consume. The flag is cleared at that fill; if a further fill of the
	// same line commits while the entry lives (the line bounced out and
	// back), the owner must push another broadcast.
	broadcasted bool
	// claimed is the non-owner mirror of broadcasted: this node has
	// consumed (or holds a BSHR waiter that will consume) one arrival,
	// which the next commit-time fill of this line pairs with. A fill
	// that commits unclaimed must absorb its paired arrival instead.
	claimed bool
}

// issueInfo remembers the issue-time event of an in-flight load so the
// commit-time handler can detect false hits and false misses.
type issueInfo struct {
	hit      bool
	attached bool // holds a reference on the line's missEntry
}

// node is one DataScalar chip: core + emulator + L1 tags + local memory +
// BSHR + broadcast queue, sharing the global bus and page table with its
// peers.
type node struct {
	id  int
	cfg *Config
	m   *Machine // for the fault layer
	// obs mirrors cfg.Observer (nil = observation disabled). Event
	// emission sits on the issue/commit hot path, so the nil check must
	// be one load — and with a nil observer obsEvent does no work and
	// allocates nothing (verified by benchmark).
	obs obs.Observer
	// clock is the cycle counter events are stamped with: &m.now under
	// the serial loop, the node's private window clock while a parallel
	// run has this node leased to a worker (workers advance nodes past
	// m.now, so a shared stamp would be both wrong and racy).
	clock *uint64

	emu  *emu.Machine
	core *ooo.Core
	l1   *cache.Cache
	dram *mem.DRAM
	bshr *BSHR
	pt   *mem.PageTable
	net  nodeNet

	outstanding map[uint64]*missEntry
	// missFree recycles missEntry records: steady state opens and closes
	// miss episodes constantly, and reuse keeps that off the allocator.
	missFree []*missEntry
	inflight map[ooo.LoadToken]issueInfo

	// bcastSeq numbers this node's broadcasts; the fault plan keys its
	// injection decisions on (src, dst, line, seq), a stable identity
	// independent of delivery cycles or scheduling.
	bcastSeq uint64
	// fpAccum is the running commit fingerprint (a mix over the committed
	// memory-operation address stream), maintained only when the
	// fingerprint exchange is enabled.
	fpAccum uint64

	stats NodeStats

	// wake is the sparse-execution certificate: the next cycle this
	// node's core can do anything beyond its deterministic stall
	// accounting (NextEventCycle's result, cached by Machine.Run after
	// the node's last Cycle). While m.now < wake the machine charges the
	// node via SkipCycles instead of running it, and any event that
	// could invalidate the certificate — a network arrival, a fault
	// self-serve — rewinds wake to the current cycle. Unused (always
	// zero) under Core.NoCycleSkip, which is how the differential suite pins
	// the sparse loop's bit-identity.
	wake uint64

	// Correspondence-invariant sampling: tag state is a pure function of
	// the committed memory-op prefix, which is identical at every node,
	// so digests at equal memCommits counts must be equal.
	memCommits uint64
	digests    map[uint64]uint64 // memCommits -> tag-state digest
}

var _ ooo.MemPort = (*node)(nil)
var _ ooo.LoadClassifier = (*node)(nil)

// nodeNet is the part of the interconnect a node uses: it sends messages
// and asks where an awaited broadcast is. Everything else (Tick, purges,
// stats, lookahead) is machine-level and goes to Machine.net, so a
// parallel run can lease each node a two-method shim.
type nodeNet interface {
	Enqueue(m bus.Message)
	DataPhase(addr uint64, dst int, now uint64) bus.MsgPhase
}

// ClassifyLoad implements ooo.LoadClassifier: it names the leaf cause
// blocking an in-flight load that heads the window. The answer is a pure
// function of frozen protocol state (the miss episode, the BSHR's retry
// counters, and the interconnect's message positions), so it is constant
// across any stretch the next-event scheduler skips — the property the
// skip/noskip CPI differential relies on.
func (n *node) ClassifyLoad(now uint64, tok ooo.LoadToken, addr uint64) obs.StallKind {
	info, ok := n.inflight[tok]
	if !ok || info.hit {
		// An issue-time hit completing its load-to-use latency.
		return obs.StallExec
	}
	e, ok := n.outstanding[n.l1.LineAddr(addr)]
	if !ok {
		return obs.StallExec
	}
	if !e.pending {
		// Known completion cycle: either the local bank is serving the
		// miss, or a broadcast already landed and the load is paying the
		// BSHR access tail.
		if e.local {
			return obs.StallMemLocal
		}
		return obs.StallMemRemote
	}
	// Still waiting on a remote owner's broadcast.
	if n.bshr.WaitRetries(e.line) > 0 {
		return obs.StallMemRetry
	}
	return phaseStall(n.net.DataPhase(e.line, n.id, now))
}

// phaseStall maps where a waited-on broadcast is on the interconnect to
// the stall it causes. ClassifyLoad charges it live; a parallel run's
// replay re-resolves the queries its workers answered provisionally.
func phaseStall(ph bus.MsgPhase) obs.StallKind {
	switch ph {
	case bus.PhaseTransfer:
		return obs.StallESPSerial
	case bus.PhaseBlocked:
		return obs.StallNetContention
	case bus.PhaseQueued, bus.PhaseAbsent:
		// Queued behind the owner's broadcast-queue penalty, or the owner
		// has not even reached the access yet: the remote node is the
		// bottleneck.
		return obs.StallMemRemote
	}
	return obs.StallMemRemote // unreachable: the switch is exhaustive
}

// obsEvent emits one typed protocol event when an observer is attached.
func (n *node) obsEvent(kind obs.EventKind, addr, arg uint64) {
	if n.obs == nil {
		return
	}
	n.obs.Event(obs.Event{Cycle: *n.clock, Node: n.id, Kind: kind, Addr: addr, Arg: arg})
}

// IssueLoad implements ooo.MemPort: the issue-time load path of Figure 5.
func (n *node) IssueLoad(now uint64, tok ooo.LoadToken, addr uint64, size int) (uint64, bool) {
	line := n.l1.LineAddr(addr)
	// Merge into an outstanding miss episode if one exists.
	if e, ok := n.outstanding[line]; ok {
		n.stats.IssueMisses.Inc()
		n.stats.MergedMisses.Inc()
		n.obsEvent(obs.EvMissFold, line, uint64(e.refs))
		n.inflight[tok] = issueInfo{hit: false, attached: true}
		e.refs++
		if e.pending {
			// Join the BSHR wait for the episode's broadcast.
			if ready, at := n.bshr.Request(line, tok, now); ready {
				e.pending = false
				e.dataAt = at + n.cfg.BSHRCycles
				return maxU64(now+1, e.dataAt), false
			}
			return 0, true
		}
		return maxU64(now+1, e.dataAt), false
	}

	// Issue-time tag probe against committed state.
	if n.l1.Probe(addr) {
		n.stats.IssueHits.Inc()
		n.inflight[tok] = issueInfo{hit: true}
		return now + n.cfg.L1HitCycles, false
	}
	n.stats.IssueMisses.Inc()
	n.inflight[tok] = issueInfo{hit: false, attached: true}

	var e *missEntry
	if k := len(n.missFree); k > 0 {
		e = n.missFree[k-1]
		n.missFree = n.missFree[:k-1]
		*e = missEntry{line: line, refs: 1}
	} else {
		e = &missEntry{line: line, refs: 1}
	}
	n.outstanding[line] = e

	if n.pt.Owns(addr, n.id) {
		// Local memory has the line (replicated page, or this node owns
		// the communicated page).
		n.stats.LocalMisses.Inc()
		dataAt := n.dram.Access(now+n.cfg.L1HitCycles, line)
		e.dataAt = dataAt
		e.local = true
		if !n.pt.IsReplicated(addr) && n.cfg.Nodes > 1 {
			// ESP: push the line to every other node. The broadcast
			// leaves after the broadcast-queue penalty; this node's own
			// load does not wait for the bus.
			n.broadcast(line, dataAt, false)
			e.broadcasted = true
		}
		return dataAt, false
	}

	// Remote operand: it will arrive by broadcast; no request is ever
	// sent (the ESP data-pushing model).
	n.stats.RemoteMisses.Inc()
	e.pending = true
	e.claimed = true
	if ready, at := n.bshr.Request(line, tok, now); ready {
		// Another node ran ahead and its broadcast is already here: an
		// on-chip hit in the BSHR.
		e.pending = false
		e.dataAt = at + n.cfg.BSHRCycles
		return maxU64(now+1, e.dataAt), false
	}
	return 0, true
}

// CommitLoad implements ooo.MemPort: the commit-time tag update (DCUB
// drain) plus false hit/miss detection.
func (n *node) CommitLoad(now uint64, tok ooo.LoadToken, addr uint64, size int) {
	info, ok := n.inflight[tok]
	if !ok {
		panic(fmt.Sprintf("core: node %d: commit of unknown load token %d", n.id, tok))
	}
	delete(n.inflight, tok)
	line := n.l1.LineAddr(addr)

	e := n.outstanding[line]

	if n.l1.Probe(addr) {
		// Commit-time hit: refresh recency only.
		n.l1.Touch(addr, false)
		if !info.hit {
			// False miss: the issue-time miss was folded into (or
			// created) an episode whose fill already committed.
			n.stats.FalseMisses.Inc()
			n.obsEvent(obs.EvFalseMiss, line, 0)
		}
		n.release(e, line, info)
		n.afterMemCommit(now, addr)
		return
	}

	// Commit-time miss: this access canonically owns a fill. Every node
	// reaches the same conclusion here (the committed prefix is
	// identical), so every node fills, the owner must have one broadcast
	// in flight for this fill, and non-owners must consume one.
	if info.hit {
		n.stats.FalseHits.Inc()
		n.obsEvent(obs.EvFalseHit, line, 0)
	}
	if n.pt.MustLookup(addr).Kind == mem.Communicated && n.cfg.Nodes > 1 {
		if n.pt.Owns(addr, n.id) {
			if e == nil || !e.broadcasted {
				// No broadcast in flight for this fill (this node saw the
				// access as a hit, or its issue-time episode was already
				// consumed by an earlier fill): push one now, late.
				dataAt := n.dram.Access(now, line)
				n.broadcast(line, dataAt, true)
			} else {
				// The issue-time broadcast covers this fill; a further
				// fill of this line needs a fresh one.
				e.broadcasted = false
			}
		} else if e != nil && e.claimed {
			// A load of ours consumed (or is waiting on) this fill's
			// broadcast; a further fill of this line will need its own.
			e.claimed = false
		} else {
			// No local consumer for this fill's broadcast: absorb it.
			n.bshr.Absorb(line)
		}
	}

	// Install the line (the DCUB-to-cache move). Dirty-victim handling
	// follows ESP: writebacks complete locally at the owner and are
	// dropped elsewhere; nothing crosses the chip boundary.
	n.obsEvent(obs.EvCommitFill, line, 0)
	res := n.l1.Fill(addr, false)
	n.stats.Fills.Inc()
	if res.Writeback {
		n.disposeWriteback(now, res.WritebackAddr)
	}
	n.release(e, line, info)
	n.afterMemCommit(now, addr)
}

// release drops the committing load's reference on its DCUB entry,
// freeing the entry when the last attached load commits (the paper's
// deallocation rule).
func (n *node) release(e *missEntry, line uint64, info issueInfo) {
	if !info.attached || e == nil {
		return
	}
	e.refs--
	if e.refs <= 0 {
		delete(n.outstanding, line)
		n.missFree = append(n.missFree, e)
	}
}

// afterMemCommit samples the correspondence digest at fixed memory-commit
// milestones and, when the fingerprint exchange is enabled, folds the
// committed access into the node's commit fingerprint (the address
// stream is identical at every node, so the fingerprints must agree).
func (n *node) afterMemCommit(now, addr uint64) {
	n.memCommits++
	if iv := n.cfg.DigestInterval; iv != 0 && n.memCommits%iv == 0 {
		n.digests[n.memCommits] = n.l1.StateDigest()
	}
	if fs := n.m.fault; fs != nil && fs.cfg.FingerprintInterval != 0 {
		n.fpAccum = fault.Mix64(n.fpAccum ^ addr)
		if n.memCommits%fs.cfg.FingerprintInterval == 0 {
			fs.emitFingerprint(n, now)
		}
	}
}

// CommitStore implements ooo.MemPort. Stores reach the cache at commit
// (the paper sends stores to the cache at commit time); under the ESP
// write-no-allocate policy a store miss completes in the owner's local
// memory and is dropped everywhere else, generating no traffic.
func (n *node) CommitStore(now uint64, addr uint64, size int) {
	if !n.l1.Touch(addr, true) { // store hit dirties the line in every node's cache
		if n.pt.Owns(addr, n.id) {
			n.stats.StoresLocal.Inc()
			n.dram.Access(now, n.l1.LineAddr(addr)) // bank occupancy; fire and forget
		} else {
			n.stats.StoresDropped.Inc()
		}
	}
	n.afterMemCommit(now, addr)
}

// UsePrivate implements ooo.PrivatePort: the private path is active only
// when result communication is enabled.
func (n *node) UsePrivate() bool { return n.cfg.ResultComm }

// IssuePrivateLoad implements ooo.PrivatePort: an uncached access to
// local memory. Regions execute only at nodes owning their data (others
// skip them entirely), so local memory always has the operand, no
// broadcast is sent, and no tag state changes — keeping the caches
// correspondent across nodes that did and did not execute the region.
func (n *node) IssuePrivateLoad(now uint64, addr uint64, size int) uint64 {
	n.stats.PrivateLoads.Inc()
	return n.dram.Access(now, n.l1.LineAddr(addr))
}

// CommitPrivateStore implements ooo.PrivatePort: an uncached write to
// local memory; the region's results reach other nodes through ordinary
// ESP broadcasts when next loaded outside the region.
func (n *node) CommitPrivateStore(now uint64, addr uint64, size int) {
	n.stats.PrivateStores.Inc()
	n.dram.Access(now, n.l1.LineAddr(addr))
}

func (n *node) disposeWriteback(now uint64, lineAddr uint64) {
	if n.pt.Owns(lineAddr, n.id) {
		n.stats.WritebacksLocal.Inc()
		n.dram.Access(now, lineAddr)
	} else {
		n.stats.WritebacksDropped.Inc()
	}
}

// broadcast enqueues an ESP push of line onto the global bus, leaving the
// chip after the broadcast-queue penalty.
func (n *node) broadcast(line uint64, readyAt uint64, reparative bool) {
	n.stats.Broadcasts.Inc()
	if reparative {
		n.stats.LateBroadcasts.Inc()
	}
	n.obsEvent(obs.EvBroadcastSent, line, boolArg(reparative))
	seq := n.bcastSeq
	n.bcastSeq++
	ready := readyAt + n.cfg.BcastQueueCycles
	if fs := n.m.fault; fs != nil {
		if extra := fs.plan.DelayExtra(n.id, line, seq); extra != 0 {
			if !fs.deferGlobal {
				// Under a parallel run the stat side is re-derived by the
				// replay drain (onDrainEnqueue) at the buffered enqueue's
				// serial position; the timing effect applies here either way.
				fs.stats.InjectedDelays++
				fs.stats.DelayCycles += extra
			}
			n.obsEvent(obs.EvFaultDelay, line, extra)
			ready += extra
		}
	}
	n.net.Enqueue(bus.Message{
		Kind:         bus.Broadcast,
		Src:          n.id,
		Addr:         line,
		PayloadBytes: n.cfg.L1.LineBytes,
		ReadyAt:      ready,
		Seq:          seq,
		Reparative:   reparative,
	})
}

// onBroadcast handles a line arriving from the bus.
func (n *node) onBroadcast(line uint64, now uint64) {
	toks := n.bshr.Arrive(line, now)
	for _, tok := range toks {
		n.core.CompleteLoad(tok, now+n.cfg.BSHRCycles)
	}
	if e, ok := n.outstanding[line]; ok && e.pending {
		e.pending = false
		e.dataAt = now + n.cfg.BSHRCycles
	}
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
