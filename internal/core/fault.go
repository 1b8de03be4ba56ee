package core

import (
	"fmt"
	"sort"

	"github.com/wisc-arch/datascalar/internal/bus"
	"github.com/wisc-arch/datascalar/internal/fault"
	"github.com/wisc-arch/datascalar/internal/obs"
	"github.com/wisc-arch/datascalar/internal/prog"
)

// faultState is the per-machine instance of the fault-injection and
// resilience layer (package fault holds the configuration, plan, and
// report types; this file threads them through the machine). It exists
// only when Config.Fault.Enabled() — a machine without one pays nothing
// on any hot path beyond a nil check.
type faultState struct {
	cfg   fault.Config // defaults applied
	plan  *fault.Plan
	stats fault.Stats
	// report, once set, halts the run with a structured error at the end
	// of the current cycle's fault pass.
	report *fault.Report
	// deferGlobal is set for the duration of a parallel run: workers
	// apply only node-local fault effects (suppression, fingerprint
	// taint, retry service) and the barrier's replay walk re-derives the
	// global side — stats, drop/flip ground truth, the fingerprint
	// ledger — from the same pure injection decisions, in serial order.
	deferGlobal bool

	// Degradation engine: the ordered death schedule and per-node
	// liveness. schedule is fixed at machine construction (a pure
	// function of the plan), nextDeath indexes the first unexecuted
	// entry, and dead/liveCount track the survivors.
	schedule  []fault.Death
	nextDeath int
	dead      []bool
	liveCount int
	// deathIdx maps a dead node to its entry in stats.Deaths (-1 while
	// alive); detected/remapped make detection and recovery re-entrant —
	// each death is detected once and remapped once, independently.
	deathIdx []int
	detected []bool
	remapped []bool
	// replicas names, per re-replicated page, the standby node holding
	// (or receiving) a warm copy; warm records whether the warm-fill
	// actually arrived. A later death of the page's owner remaps onto
	// the standby, so cascading failures stay survivable.
	replicas map[uint64]int
	warm     map[uint64]bool

	// dropped records, per victim node, the cycle each line's delivery
	// was first dropped — the ground truth that lets a later timeout be
	// credited as a *detected* drop. Bookkeeping only: injection
	// decisions never read it.
	dropped []map[uint64]uint64
	// flippedAt records, per victim node, 1 + the earliest uncredited
	// flip-injection cycle (0 = no flip) and the number of uncredited
	// flips, for detection-latency and coverage attribution.
	flippedAt []uint64
	flipCount []uint64
	// ledger collects commit fingerprints per interval index until every
	// live node has reported, then cross-checks them.
	ledger map[uint64]map[int]uint64
}

func newFaultState(cfg fault.Config, nodes int) *faultState {
	fs := &faultState{
		cfg:       cfg,
		plan:      fault.NewPlan(cfg),
		dead:      make([]bool, nodes),
		liveCount: nodes,
		deathIdx:  make([]int, nodes),
		detected:  make([]bool, nodes),
		remapped:  make([]bool, nodes),
		dropped:   make([]map[uint64]uint64, nodes),
		flippedAt: make([]uint64, nodes),
		flipCount: make([]uint64, nodes),
	}
	fs.schedule = fs.plan.Schedule()
	for i := range fs.deathIdx {
		fs.deathIdx[i] = -1
	}
	for i := range fs.dropped {
		fs.dropped[i] = make(map[uint64]uint64)
	}
	if len(fs.schedule) > 0 {
		fs.replicas = make(map[uint64]int)
		fs.warm = make(map[uint64]bool)
	}
	if cfg.FingerprintInterval != 0 {
		fs.ledger = make(map[uint64]map[int]uint64)
	}
	return fs
}

// minQuorum is the effective minimum live-node count (configured quorum,
// floor 1).
func (fs *faultState) minQuorum() int {
	if fs.cfg.MinQuorum > 1 {
		return fs.cfg.MinQuorum
	}
	return 1
}

// FaultStats exposes the fault layer's counters (nil when the layer is
// disabled). The campaign harness reads it even from runs that halted
// with an error, where no Result is produced.
func (m *Machine) FaultStats() *fault.Stats {
	if m.fault == nil {
		return nil
	}
	return &m.fault.stats
}

// nodeDead reports whether node id has failed permanently.
func (m *Machine) nodeDead(id int) bool { return m.fault != nil && m.fault.dead[id] }

// maybeKill executes every scheduled death the clock has reached: the
// node's core freezes (never cycled again), its unsent interconnect
// traffic is purged, and all future arrivals to it are discarded. A
// kill that drops the live count below the minimum quorum arms a
// ClassQuorumLoss report — graceful degradation ran out of nodes.
func (m *Machine) maybeKill() {
	fs := m.fault
	for fs.nextDeath < len(fs.schedule) && fs.schedule[fs.nextDeath].Cycle <= m.now {
		d := fs.schedule[fs.nextDeath]
		fs.nextDeath++
		if fs.dead[d.Node] {
			continue // defensive: Validate rejects duplicate deaths
		}
		m.killNode(d.Node)
	}
}

// killNode executes one permanent node death at the current cycle.
func (m *Machine) killNode(id int) {
	fs := m.fault
	fs.dead[id] = true
	fs.liveCount--
	purged := m.net.PurgeSource(id)
	if !fs.stats.NodeDied {
		// Legacy scalar view: the first death of the schedule.
		fs.stats.NodeDied = true
		fs.stats.DeadNode = id
		fs.stats.DeathCycle = m.now
		fs.stats.SuccessorNode = -1
	}
	fs.stats.PurgedMessages += purged
	fs.stats.LiveNodes = fs.liveCount
	fs.deathIdx[id] = len(fs.stats.Deaths)
	fs.stats.Deaths = append(fs.stats.Deaths, fault.DeathStats{
		Node:           id,
		Cycle:          m.now,
		PurgedMessages: purged,
		SuccessorNode:  -1,
		CommitsAtDeath: m.nodes[m.firstLive()].core.Committed(),
		LiveAfter:      fs.liveCount,
	})
	if m.obs != nil {
		m.obs.Event(obs.Event{Cycle: m.now, Node: id, Kind: obs.EvFaultDeath, Arg: uint64(purged)})
	}
	// Fingerprint intervals that were only waiting on the dead node can
	// now be cross-checked among the survivors.
	fs.flushFingerprints(m)
	if fs.liveCount < fs.minQuorum() && fs.report == nil {
		if m.obs != nil {
			m.obs.Event(obs.Event{Cycle: m.now, Node: id, Kind: obs.EvFaultQuorumLoss, Arg: uint64(fs.liveCount)})
		}
		fs.report = &fault.Report{
			Class: fault.ClassQuorumLoss, Node: id, Cycle: m.now,
			Detail: fmt.Sprintf("%d live nodes below minimum quorum %d", fs.liveCount, fs.minQuorum()),
		}
	}
}

// handleFaultArrival applies the fault layer to one delivery under the
// serial loop: the global bookkeeping, then the node-local effect. It
// returns true when the arrival was consumed (resilience control
// traffic) or suppressed (dead receiver, injected drop); false hands
// the arrival to the ordinary broadcast path.
func (m *Machine) handleFaultArrival(arr bus.Arrival) bool {
	fs := m.fault
	if fs.dead[arr.Node] {
		return true // a dead chip neither receives nor responds
	}
	m.faultArrivalGlobal(arr.Node, arr.Msg, m.now)
	return m.faultArrivalLocal(m.nodes[arr.Node], arr.Msg, m.now)
}

// faultArrivalGlobal applies the machine-global side of one delivery at
// a live receiver: injection stats, drop/flip ground truth, retry
// service accounting, the fingerprint ledger, and warm-replica state.
// Under the serial loop it runs with the node-local side in one pass;
// under a parallel run it is the replay walk's half, re-deriving the
// worker's decisions from the same pure function of message identity.
func (m *Machine) faultArrivalGlobal(node int, msg bus.Message, now uint64) {
	fs := m.fault
	if fs.dead[node] {
		return
	}
	switch msg.Ctl {
	case bus.CtlRetryReq:
		fs.stats.RetriesServed++
		return
	case bus.CtlRetryResp:
		return
	case bus.CtlFingerprint:
		fs.recordFingerprint(m, msg.Src, msg.Addr, msg.Seq)
		return
	case bus.CtlWarmFill:
		// The standby's copy of the page is warm from here on: a later
		// death of the owner remaps onto it with the data already local.
		if fs.replicas[prog.PageOf(msg.Addr)] == node {
			fs.warm[prog.PageOf(msg.Addr)] = true
		}
		return
	}
	if msg.Kind != bus.Broadcast {
		return
	}
	if fs.plan.DropArrival(msg.Src, node, msg.Addr, msg.Seq) {
		fs.stats.InjectedDrops++
		if _, seen := fs.dropped[node][msg.Addr]; !seen {
			fs.dropped[node][msg.Addr] = now
		}
		return
	}
	if _, ok := fs.plan.FlipArrival(msg.Src, node, msg.Addr, msg.Seq); ok {
		fs.stats.InjectedFlips++
		if fs.flippedAt[node] == 0 {
			fs.flippedAt[node] = now + 1
		}
		fs.flipCount[node]++
	}
}

// faultArrivalLocal applies the node-local side of one delivery at a
// live receiver: retry service, resend absorption, delivery suppression
// for injected drops, and the fingerprint taint of an injected flip.
// Every effect touches only the receiving node's own state (plus its
// leased network/observer shims), so workers run it inside parallel
// windows. It returns true when the arrival was consumed.
func (m *Machine) faultArrivalLocal(nd *node, msg bus.Message, now uint64) bool {
	fs := m.fault
	switch msg.Ctl {
	case bus.CtlRetryReq:
		m.serveRetry(nd, msg, now)
		return true
	case bus.CtlRetryResp:
		// A directed resend satisfies the waiting BSHR entry exactly like
		// the lost broadcast would have.
		nd.onBroadcast(msg.Addr, now)
		return true
	case bus.CtlFingerprint:
		return true // ledger-only: handled on the global side
	case bus.CtlWarmFill:
		nd.obsEvent(obs.EvFaultWarmFill, msg.Addr, uint64(msg.Src))
		return true
	}
	if msg.Kind != bus.Broadcast {
		return false
	}
	// Injection on ordinary data broadcasts. Control traffic above is
	// assumed reliable (docs/ROBUSTNESS.md): with a capped retry budget,
	// reliable control is what bounds detection time.
	if fs.plan.DropArrival(msg.Src, nd.id, msg.Addr, msg.Seq) {
		nd.obsEvent(obs.EvFaultDrop, msg.Addr, uint64(msg.Src))
		return true
	}
	if taint, ok := fs.plan.FlipArrival(msg.Src, nd.id, msg.Addr, msg.Seq); ok {
		// The timing model carries no payload (each node's emulator
		// computes every value), so the corruption is modeled as a taint
		// on the victim's commit fingerprint: visible to the fingerprint
		// exchange, invisible otherwise — exactly a silent data error.
		nd.fpAccum ^= taint
		nd.obsEvent(obs.EvFaultFlip, msg.Addr, uint64(msg.Src))
		// Delivery itself proceeds: a flip corrupts data, not arrival.
	}
	return false
}

// serveRetry answers a directed re-request: the addressed node reads the
// line from its local memory (in this timing model every node's local
// memory can source any line — the machine assumes a backing copy, which
// the redundant-execution substrate guarantees functionally) and sends a
// point-to-point resend to the requester. Node-local by construction:
// the enqueue rides the node's own (possibly leased) network.
func (m *Machine) serveRetry(nd *node, msg bus.Message, now uint64) {
	dataAt := nd.dram.Access(now, msg.Addr)
	nd.obsEvent(obs.EvFaultRetryServed, msg.Addr, uint64(msg.Src))
	nd.net.Enqueue(bus.Message{
		Kind:         bus.Response,
		Ctl:          bus.CtlRetryResp,
		Src:          nd.id,
		Dst:          msg.Src,
		Addr:         msg.Addr,
		PayloadBytes: m.cfg.L1.LineBytes,
		ReadyAt:      dataAt + m.cfg.BcastQueueCycles,
	})
}

// checkTimeouts runs the BSHR deadline pass for every live node: expired
// waits become re-requests, and exhausted ones escalate to death
// detection (dead owner) or a lost-line report (live owner).
func (m *Machine) checkTimeouts() {
	fs := m.fault
	for _, nd := range m.nodes {
		if fs.dead[nd.id] {
			continue
		}
		for _, ex := range nd.bshr.Expired(m.now) {
			m.onTimeout(nd, ex)
			if fs.report != nil {
				return
			}
		}
	}
}

// onTimeout handles one expired BSHR wait at node nd.
func (m *Machine) onTimeout(nd *node, ex ExpiredWait) {
	fs := m.fault
	fs.stats.Timeouts++
	nd.obsEvent(obs.EvFaultTimeout, ex.Line, uint64(ex.Retries))
	// Ground truth: credit the timeout as a detected drop when this very
	// line's delivery to this node was injected away.
	if at, seen := fs.dropped[nd.id][ex.Line]; seen {
		delete(fs.dropped[nd.id], ex.Line)
		fs.stats.DetectedDrops++
		fs.stats.Detections++
		fs.stats.DetectLatencySum += m.now - at
	}
	owner := m.pt.OwnerOf(ex.Line)
	if owner == nd.id {
		// This node became the line's owner (post-remap successor): the
		// stalled loads complete from local memory.
		m.selfServe(nd, ex.Line)
		return
	}
	if ex.Retries >= fs.cfg.MaxRetries {
		if owner >= 0 && fs.dead[owner] {
			m.onDeathDetected(nd, ex.Line, owner)
			return
		}
		fs.report = &fault.Report{
			Class: fault.ClassLost, Node: owner, Cycle: m.now, Line: ex.Line,
			Detail: fmt.Sprintf("node %d exhausted %d retries against a live owner", nd.id, ex.Retries),
		}
		return
	}
	// Directed re-request. To a dead owner it simply vanishes with the
	// other arrivals — the requester learns of the death only through
	// retry exhaustion, modelling timeout-based failure detection.
	m.sendRetry(nd, ex.Line, owner)
}

// sendRetry enqueues a directed re-request for line to owner.
func (m *Machine) sendRetry(nd *node, line uint64, owner int) {
	m.fault.stats.Retries++
	nd.obsEvent(obs.EvFaultRetry, line, uint64(owner))
	m.net.Enqueue(bus.Message{
		Kind:    bus.Request,
		Ctl:     bus.CtlRetryReq,
		Src:     nd.id,
		Dst:     owner,
		Addr:    line,
		ReadyAt: m.now + m.cfg.BcastQueueCycles,
	})
}

// onDeathDetected escalates a retry-exhausted wait against dead owner
// `dead`: record the per-death detection, then either remap the dead
// node's pages (re-replicating the inherited set so the *next* death is
// survivable too) and continue degraded, or halt with a structured
// report — never a silent wrong answer, never an unexplained watchdog.
// Re-entrant: each death of a multi-death schedule is detected and
// remapped independently, guarded per node.
func (m *Machine) onDeathDetected(nd *node, line uint64, dead int) {
	fs := m.fault
	if !fs.detected[dead] {
		fs.detected[dead] = true
		ds := &fs.stats.Deaths[fs.deathIdx[dead]]
		ds.Detected = true
		ds.DetectedAt = m.now
		ds.DetectLatency = m.now - ds.Cycle
		fs.stats.Detections++
		fs.stats.DetectLatencySum += m.now - ds.Cycle
		if !fs.stats.DeathDetected {
			fs.stats.DeathDetected = true
			fs.stats.DeathDetectedAt = m.now
		}
	}
	if !fs.cfg.Recover {
		fs.report = &fault.Report{
			Class: fault.ClassDeath, Node: dead, Cycle: m.now, Line: line,
			Detail: fmt.Sprintf("owner unresponsive after %d retries", fs.cfg.MaxRetries),
		}
		return
	}
	if !fs.remapped[dead] {
		fs.remapped[dead] = true
		m.remapDead(dead)
	}
	// Serve this wait immediately under the new mapping.
	if owner := m.pt.OwnerOf(line); owner == nd.id {
		m.selfServe(nd, line)
	} else {
		m.sendRetry(nd, line, owner)
	}
}

// remapDead moves every page the dead node owned onto survivors and
// re-replicates the inherited set. Per page: a live standby already
// holding a (warm or in-flight) replica inherits directly; otherwise
// ownership falls to the next live node in ring order. The new owners
// then push warm copies of up to WarmFillMaxPages inherited pages to
// fresh standbys over the interconnect — bounded re-replication traffic
// that makes a subsequent death of the successor survivable with the
// data already in place. Every live node's stalled waits are re-armed so
// they re-request the new owners promptly instead of sitting out long
// backoffs — the act of disseminating the failure verdict.
func (m *Machine) remapDead(dead int) {
	fs := m.fault
	ds := &fs.stats.Deaths[fs.deathIdx[dead]]
	ringSucc := m.successorOf(dead)
	type inherited struct {
		pg    uint64
		owner int
	}
	var moved []inherited
	for _, pg := range m.pt.OwnedPages(dead) {
		succ := ringSucc
		if r, ok := fs.replicas[pg]; ok && !fs.dead[r] {
			succ = r
			if fs.warm[pg] {
				ds.WarmRemaps++
				fs.stats.WarmRemaps++
			}
		}
		delete(fs.replicas, pg)
		delete(fs.warm, pg)
		m.pt.SetOwner(pg, succ)
		moved = append(moved, inherited{pg: pg, owner: succ})
	}
	ds.SuccessorNode = ringSucc
	ds.RemappedPages = len(moved)
	fs.stats.RemappedPages += len(moved)
	if !fs.stats.Degraded {
		fs.stats.Degraded = true
		fs.stats.SuccessorNode = ringSucc
	}
	if m.obs != nil {
		m.obs.Event(obs.Event{Cycle: m.now, Node: ringSucc, Kind: obs.EvFaultRemap, Arg: uint64(len(moved))})
	}
	// Warm-fill: bounded re-replication of the inherited pages. The
	// payload is one line per page — ownership metadata plus the hot
	// line; the backing-copy assumption makes the rest of the page a
	// functional no-op, so the protocol stays cheap by construction.
	if fs.liveCount >= 2 {
		budget := fs.cfg.WarmFillMaxPages
		for _, in := range moved {
			if budget <= 0 {
				break
			}
			standby := m.successorOf(in.owner)
			if standby == in.owner {
				break // one live node: nobody left to replicate onto
			}
			fs.replicas[in.pg] = standby
			fs.warm[in.pg] = false
			addr := in.pg * prog.PageSize
			if m.obs != nil {
				m.obs.Event(obs.Event{Cycle: m.now, Node: in.owner, Kind: obs.EvFaultWarmFill, Addr: addr, Arg: uint64(standby)})
			}
			m.net.Enqueue(bus.Message{
				Kind:         bus.Response,
				Ctl:          bus.CtlWarmFill,
				Src:          in.owner,
				Dst:          standby,
				Addr:         addr,
				PayloadBytes: m.cfg.L1.LineBytes,
				ReadyAt:      m.now + m.cfg.BcastQueueCycles,
			})
			wire := uint64(bus.HeaderBytes + m.cfg.L1.LineBytes)
			ds.WarmFillMsgs++
			ds.WarmFillBytes += wire
			fs.stats.WarmFillMsgs++
			fs.stats.WarmFillBytes += wire
			budget--
		}
	}
	for _, other := range m.nodes {
		if !fs.dead[other.id] {
			other.bshr.RearmAll(m.now)
		}
	}
}

// successorOf picks a dead node's page inheritor: the next live node in
// ring order. With at least one live node it always terminates on one.
func (m *Machine) successorOf(dead int) int {
	for i := 1; i <= m.cfg.Nodes; i++ {
		if n := (dead + i) % m.cfg.Nodes; !m.fault.dead[n] {
			return n
		}
	}
	return dead // unreachable: quorum enforcement keeps >=1 node alive
}

// selfServe completes the stalled loads waiting on line from nd's own
// local memory — nd owns the line now (it is the post-remap successor).
func (m *Machine) selfServe(nd *node, line uint64) {
	toks := nd.bshr.TakeWaiting(line)
	if len(toks) == 0 {
		return
	}
	m.fault.stats.SelfServes++
	dataAt := nd.dram.Access(m.now, line)
	for _, tok := range toks {
		nd.core.CompleteLoad(tok, dataAt)
	}
	// The completions invalidate any sleep certificate the node holds.
	if nd.wake > m.now {
		nd.wake = m.now
	}
	if e, ok := nd.outstanding[line]; ok && e.pending {
		e.pending = false
		e.dataAt = dataAt
	}
}

// emitFingerprint broadcasts node n's commit fingerprint at an interval
// boundary and records n's own value in the machine ledger. Under a
// parallel run the ledger/stat side is deferred: the replay drain
// (onDrainEnqueue) re-applies it when the buffered broadcast reaches the
// real interconnect, at the same serial position.
func (fs *faultState) emitFingerprint(n *node, now uint64) {
	idx := n.memCommits / fs.cfg.FingerprintInterval
	n.obsEvent(obs.EvFaultFingerprint, idx, n.fpAccum)
	// The send charges a local-memory read of the fingerprint register
	// before the broadcast-queue penalty, the same path a data broadcast
	// takes. That also keeps the interconnect's sender-floor invariant —
	// every worker-side enqueue stays past the parallel window — intact.
	ready := now + n.cfg.BcastQueueCycles +
		uint64(n.cfg.DRAM.AccessCycles) + uint64(n.cfg.DRAM.BusCycles)
	n.net.Enqueue(bus.Message{
		Kind:         bus.Broadcast,
		Ctl:          bus.CtlFingerprint,
		Src:          n.id,
		Addr:         idx,
		Seq:          n.fpAccum,
		PayloadBytes: 8,
		ReadyAt:      ready,
	})
	if !fs.deferGlobal {
		fs.stats.FPBroadcasts++
		fs.recordFingerprint(n.m, n.id, idx, n.fpAccum)
	}
}

// onDrainEnqueue applies the deferred global side of a worker-buffered
// outbound message as the replay drains it onto the real interconnect:
// the sender-side delay injection stats of a data broadcast, and the
// self-record of a fingerprint broadcast — each at the exact serial
// position the buffered enqueue occupies.
func (fs *faultState) onDrainEnqueue(m *Machine, msg bus.Message) {
	switch msg.Ctl {
	case bus.CtlFingerprint:
		fs.stats.FPBroadcasts++
		fs.recordFingerprint(m, msg.Src, msg.Addr, msg.Seq)
	case bus.CtlNone:
		if msg.Kind == bus.Broadcast {
			if extra := fs.plan.DelayExtra(msg.Src, msg.Addr, msg.Seq); extra != 0 {
				fs.stats.InjectedDelays++
				fs.stats.DelayCycles += extra
			}
		}
	case bus.CtlRetryReq, bus.CtlRetryResp, bus.CtlWarmFill:
		// Retry service is credited at the request's arrival; retry and
		// warm-fill sends are barrier-side and never worker-buffered.
	}
}

// recordFingerprint stores one node's fingerprint for interval idx and
// cross-checks the interval once every live node has reported. A node's
// own value enters at compute time; other nodes' values enter when their
// broadcast first arrives, so detection latency includes the exchange's
// real interconnect delay.
func (fs *faultState) recordFingerprint(m *Machine, src int, idx, fp uint64) {
	if fs.report != nil {
		return
	}
	vals := fs.ledger[idx]
	if vals == nil {
		vals = make(map[int]uint64, len(m.nodes))
		fs.ledger[idx] = vals
	}
	if _, dup := vals[src]; dup {
		return // a ring delivers the same broadcast at several nodes
	}
	vals[src] = fp
	fs.resolveFingerprint(m, idx, vals)
}

// resolveFingerprint cross-checks interval idx once complete: pairwise
// comparison, majority-vote attribution (impossible with two voters),
// and a divergence report on any mismatch.
func (fs *faultState) resolveFingerprint(m *Machine, idx uint64, vals map[int]uint64) {
	for _, nd := range m.nodes {
		if m.nodeDead(nd.id) {
			continue
		}
		if _, ok := vals[nd.id]; !ok {
			return // incomplete: some live node has not reported yet
		}
	}
	delete(fs.ledger, idx)
	// Deterministic node order (never map order).
	var reported []int
	for _, nd := range m.nodes {
		if _, ok := vals[nd.id]; ok {
			reported = append(reported, nd.id)
		}
	}
	n := len(reported)
	fs.stats.FPChecks += uint64(n*(n-1)) / 2
	allEqual := true
	for _, id := range reported[1:] {
		if vals[id] != vals[reported[0]] {
			allEqual = false
			break
		}
	}
	if allEqual {
		return
	}
	fs.stats.FPMismatches++
	// Majority vote: nodes disagreeing with a strict-majority value are
	// the culprits (report the lowest); with no majority — e.g. two
	// nodes — attribution is impossible.
	culprit := -1
	var majority uint64
	best := 0
	for _, id := range reported {
		count := 0
		for _, other := range reported {
			if vals[other] == vals[id] {
				count++
			}
		}
		if count > best {
			best, majority = count, vals[id]
		}
	}
	if 2*best > n {
		for _, id := range reported {
			if vals[id] != majority {
				culprit = id
				break
			}
		}
	}
	// Ground-truth credit: the divergence was caught regardless of
	// whether a majority could name the culprit, so every uncredited
	// injected flip at a reporting victim counts as detected, with
	// latency measured from its victim's earliest uncredited flip.
	for _, id := range reported {
		if fs.flippedAt[id] != 0 {
			fs.stats.DetectedFlips += fs.flipCount[id]
			fs.stats.Detections += fs.flipCount[id]
			fs.stats.DetectLatencySum += fs.flipCount[id] * (m.now - (fs.flippedAt[id] - 1))
			fs.flippedAt[id], fs.flipCount[id] = 0, 0
		}
	}
	if m.obs != nil {
		m.obs.Event(obs.Event{Cycle: m.now, Node: culprit, Kind: obs.EvFaultDivergence, Addr: idx})
	}
	fs.report = &fault.Report{
		Class: fault.ClassDivergence, Node: culprit, Cycle: m.now,
		Detail: fmt.Sprintf("commit fingerprints disagree at interval %d (%d nodes reporting)", idx, n),
	}
}

// flushFingerprints re-evaluates pending intervals after a death: ones
// that were only waiting on the dead node resolve among the survivors.
func (fs *faultState) flushFingerprints(m *Machine) {
	if len(fs.ledger) == 0 {
		return
	}
	idxs := make([]uint64, 0, len(fs.ledger))
	for k := range fs.ledger {
		idxs = append(idxs, k)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	for _, k := range idxs {
		if vals, ok := fs.ledger[k]; ok {
			fs.resolveFingerprint(m, k, vals)
			if fs.report != nil {
				return
			}
		}
	}
}

// minRetryDeadline returns the earliest BSHR deadline across live nodes
// (NoDeadline when nothing waits).
func (m *Machine) minRetryDeadline() uint64 {
	fs := m.fault
	next := uint64(NoDeadline)
	for _, nd := range m.nodes {
		if fs.dead[nd.id] {
			continue
		}
		if d := nd.bshr.NextDeadline(); d < next {
			next = d
		}
	}
	return next
}

// faultNextEvent returns the earliest future cycle at which the fault
// layer must act — the next scheduled death, or a live node's earliest
// BSHR deadline — so the cycle-skipping scheduler never jumps past a
// timeout or a death event. Clamped to m.now so an already-due event
// blocks skipping rather than producing a bogus jump target.
func (m *Machine) faultNextEvent() uint64 {
	fs := m.fault
	next := m.minRetryDeadline()
	if fs.nextDeath < len(fs.schedule) && fs.schedule[fs.nextDeath].Cycle < next {
		next = fs.schedule[fs.nextDeath].Cycle
	}
	if next < m.now {
		next = m.now
	}
	return next
}
