package core

// Conservative parallel intra-run simulation (Config.ParallelNodes > 1).
//
// The serial loop in machine.go interleaves every node cycle by cycle.
// This file advances spans of nodes on worker goroutines instead, in
// windows of W cycles, where W is the conservative lookahead the
// interconnect guarantees:
//
//	W = senderFloor + net.Lookahead()
//
// senderFloor is the minimum delay between a node acting at cycle c and
// any message it sends becoming eligible to move (broadcast-queue
// penalty plus the DRAM access that produces the data: every Enqueue
// the timing model performs carries ReadyAt >= c + senderFloor), and
// Lookahead() bounds how long after becoming eligible a message needs
// before it can deliver anywhere or perturb any older message's
// delivery. Together: nothing a node does during [t, t+W) can change
// any delivery inside that window, so deliveries in the window are a
// pure function of interconnect state at t — and every worker can know
// them in advance.
//
// Each window therefore runs in three phases:
//
//  1. Predict: copy the real interconnect into an observer-free scratch
//     (Network.NewScratch/CopyStateFrom) and tick it across the window,
//     recording every arrival with its cycle and within-cycle position.
//  2. Execute: workers advance their nodes cycle by cycle to the
//     horizon, consuming predicted arrivals at the exact cycles the
//     serial loop would deliver them. The node's interconnect and
//     observer are leased to a per-node shim (parNode) that buffers
//     outbound messages, records stall-attribution queries, and tags
//     observer events with a deterministic (cycle, position) key.
//  3. Replay: the coordinator re-ticks the *real* interconnect through
//     the window serially, feeding each node's buffered messages in at
//     their recorded cycles in node order — reproducing the exact
//     serial interleaving of queue depths, arbitration state, and
//     bus-grant events — while merging the buffered per-node event
//     streams back into the observer in serial order and resolving the
//     recorded stall queries against true interconnect state.
//
// The result — cycle counts, stats, CPI stacks, event streams, samples,
// and error/deadlock reports — is byte-identical to the serial loop,
// enforced by the differential suite in internal/sim and the
// core-level sweep in parallel_test.go. docs/PERFORMANCE.md discusses
// when the parallel loop wins and loses.
//
// This file is the one place in internal/core allowed to use
// goroutines and channels (dsvet goroutine-confinement allowlist).

import (
	"fmt"
	"math"

	"github.com/wisc-arch/datascalar/internal/bus"
	"github.com/wisc-arch/datascalar/internal/obs"
)

// cycleTag is the within-cycle event position assigned to events emitted
// during a node's own cycle phase: after every arrival of that cycle.
const cycleTag = int32(math.MaxInt32)

// evRec is one buffered observer event with its deterministic merge key.
type evRec struct {
	cyc uint64
	idx int32
	ev  obs.Event
}

// enqRec is one buffered outbound message.
type enqRec struct {
	cyc uint64
	msg bus.Message
}

// qryRec is one recorded stall-attribution interconnect query
// (bus.Network.DataPhase), answered provisionally during the window and
// resolved against true interconnect state at replay.
type qryRec struct {
	cyc  uint64
	line uint64
}

// predRec is one predicted arrival for one node: the delivery cycle, the
// arrival's position among that cycle's deliveries (the serial loop
// processes them in Tick-returned order), and the message.
type predRec struct {
	cyc uint64
	idx int32
	msg bus.Message
}

// parNode is one node's window-execution state plus the shim leased to
// the node while workers own it: it impersonates the node's view of the
// interconnect (buffering Enqueues, recording DataPhase queries) and the
// observer (buffering events under deterministic tags).
type parNode struct {
	nd *node
	// now is the node's private clock while leased: obsEvent and the
	// bshr/cache observation paths stamp events through a pointer to it.
	now uint64
	// idx is the within-cycle tag for events emitted right now: the
	// current arrival's position during the arrival phase, cycleTag
	// during the cycle phase.
	idx int32

	enq      []enqRec
	enqHead  int
	qry      []qryRec
	qryHead  int
	events   []evRec
	evHead   int
	preds    []predRec
	predHead int

	// done/doneCycle record the first cycle at whose top the core was
	// observed Done. From that cycle on the worker no longer touches the
	// node; arrivals are deferred to replay, which knows whether the
	// machine executes the cycle at all.
	done      bool
	doneCycle uint64
	// committed/lastProgress drive the watchdog: the serial loop's
	// total-commit comparison is equivalent to tracking, per node, the
	// last cycle its (monotone) commit counter changed.
	committed    uint64
	lastProgress uint64
	// errCycle/err record the first core error in the node's own stream.
	errCycle uint64
	err      error
}

var _ nodeNet = (*parNode)(nil)
var _ obs.Observer = (*parNode)(nil)

// Event implements obs.Observer: buffer under the current tag.
//
//dsvet:hotpath
func (pn *parNode) Event(ev obs.Event) {
	pn.events = append(pn.events, evRec{cyc: pn.now, idx: pn.idx, ev: ev})
}

// Sample implements obs.Observer. Samples are emitted only by the
// machine at barriers, never through a leased node.
func (pn *parNode) Sample(obs.Sample) { panic("core: parallel: sample through node shim") }

// Enqueue implements nodeNet: buffer for replay.
//
//dsvet:hotpath
func (pn *parNode) Enqueue(m bus.Message) {
	pn.enq = append(pn.enq, enqRec{cyc: pn.now, msg: m})
}

// DataPhase implements nodeNet: record the query and answer
// PhaseAbsent provisionally. ClassifyLoad maps PhaseAbsent to
// StallMemRemote, so the window charges StallMemRemote; replay re-runs
// the query against true interconnect state and moves the charge when
// the real phase differs (each query corresponds to exactly one
// CPI-stack charge).
//
//dsvet:hotpath
func (pn *parNode) DataPhase(addr uint64, dst int, now uint64) bus.MsgPhase {
	pn.qry = append(pn.qry, qryRec{cyc: now, line: addr})
	return bus.PhaseAbsent
}

// parWindow is one window assignment sent to every worker.
type parWindow struct{ t, h uint64 }

// parWorker owns one contiguous span of nodes.
type parWorker struct {
	m      *Machine
	pnodes []*parNode
	start  chan parWindow
	done   chan struct{}
}

// flatPred is the coordinator's window-wide prediction list, used to
// assert at replay that the real interconnect delivered exactly what
// the scratch predicted (the conservative-lookahead invariant).
type flatPred struct {
	cyc  uint64
	node int
	msg  bus.Message
}

// parRunner coordinates one parallel run.
type parRunner struct {
	m *Machine
	// net is m.net as a node sees it, converted once for the many
	// unleases.
	net     nodeNet
	pnodes  []*parNode
	workers []*parWorker
	scratch bus.Network
	window  uint64
	wpreds  []flatPred
	predCur int
}

// newParRunner builds the per-node shims, leases every node's
// interconnect, clock, and observation paths to them, partitions the
// nodes into contiguous spans, and starts one goroutine per span.
func newParRunner(m *Machine) *parRunner {
	p := &parRunner{
		m:       m,
		net:     m.net,
		scratch: m.net.NewScratch(),
	}
	// senderFloor: every message the timing model enqueues at cycle c has
	// ReadyAt >= c + BcastQueueCycles + the DRAM access producing its
	// data (mem.DRAM.Access never returns before now+AccessCycles+BusCycles).
	senderFloor := m.cfg.BcastQueueCycles + uint64(m.cfg.DRAM.AccessCycles) + uint64(m.cfg.DRAM.BusCycles)
	if senderFloor < 1 {
		senderFloor = 1
	}
	p.window = senderFloor + m.net.Lookahead()
	for _, nd := range m.nodes {
		pn := &parNode{nd: nd}
		nd.net = pn
		nd.clock = &pn.now
		if m.obs != nil {
			nd.obs = pn
			nd.bshr.SetObserver(pn, nd.id, &pn.now)
			nd.l1.SetObserver(pn, nd.id, &pn.now)
		}
		p.pnodes = append(p.pnodes, pn)
	}
	nw := m.cfg.ParallelNodes
	if nw > m.cfg.Nodes {
		nw = m.cfg.Nodes
	}
	for k := 0; k < nw; k++ {
		w := &parWorker{
			m:      m,
			pnodes: p.pnodes[k*m.cfg.Nodes/nw : (k+1)*m.cfg.Nodes/nw],
			start:  make(chan parWindow, 1),
			done:   make(chan struct{}, 1),
		}
		p.workers = append(p.workers, w)
		go w.loop()
	}
	return p
}

// leaseNet points every node's interconnect at its shim (lease=true)
// or back at the real network (lease=false). The barrier's idle skip
// runs with the real network: skipped-stretch stall classification
// (SkipCycles → StallClass → ClassifyLoad → DataPhase) must see true
// interconnect state, exactly as the serial loop's skipIdle does —
// the shim would answer PhaseAbsent and misattribute the stall.
func (p *parRunner) leaseNet(lease bool) {
	for _, pn := range p.pnodes {
		if lease {
			pn.nd.net = pn
		} else {
			pn.nd.net = p.net
		}
	}
}

// leaseAll leases (or unleases) every node's interconnect, clock, and
// observation wiring at once. The barrier's fault-timeout pass runs
// fully unleased: its retries, self-serves, and events must hit the real
// network and observer directly at m.now, exactly as the serial loop's
// end-of-cycle checkTimeouts does — buffering them through a shim would
// stamp stale cycles and misplace them in the merged event stream.
func (p *parRunner) leaseAll(lease bool) {
	m := p.m
	for _, pn := range p.pnodes {
		nd := pn.nd
		if lease {
			nd.net = pn
			nd.clock = &pn.now
			if m.obs != nil {
				nd.obs = pn
				nd.bshr.SetObserver(pn, nd.id, &pn.now)
				nd.l1.SetObserver(pn, nd.id, &pn.now)
			}
		} else {
			nd.net = p.net
			nd.clock = &m.now
			if m.obs != nil {
				nd.obs = m.obs
				nd.bshr.SetObserver(m.obs, nd.id, &m.now)
				nd.l1.SetObserver(m.obs, nd.id, &m.now)
			}
		}
	}
}

// shutdown stops the workers and returns every node to the serial
// wiring, so a Machine remains inspectable (and re-runnable serially)
// after a parallel run.
func (p *parRunner) shutdown() {
	for _, w := range p.workers {
		close(w.start)
	}
	m := p.m
	for _, nd := range m.nodes {
		nd.net = p.net
		nd.clock = &m.now
		if m.obs != nil {
			nd.obs = m.obs
			nd.bshr.SetObserver(m.obs, nd.id, &m.now)
			nd.l1.SetObserver(m.obs, nd.id, &m.now)
		}
	}
}

// loop is the worker goroutine body: execute windows until the start
// channel closes.
func (w *parWorker) loop() {
	for win := range w.start {
		w.runWindow(win.t, win.h)
		w.done <- struct{}{}
	}
}

// runWindow advances every node in the worker's span from cycle t up to
// (but excluding) horizon h. Within a window the nodes of a span are
// independent of each other and of every other span — the lookahead
// invariant guarantees nothing sent during the window can be delivered
// inside it — so each node runs to the horizon in turn, which also
// keeps its state hot in cache.
func (w *parWorker) runWindow(t, h uint64) {
	noSkip := w.m.cfg.Core.NoCycleSkip
	obsOn := w.m.obs != nil
	fs := w.m.fault
	for _, pn := range w.pnodes {
		if pn.done {
			continue
		}
		if fs != nil && fs.dead[pn.nd.id] {
			// Dead nodes never run; the barrier charges their StallDead
			// stretch (liveness only changes at window boundaries).
			continue
		}
		nd := pn.nd
		for c := t; c < h; c++ {
			// Done check first, mirroring the serial loop top: a node done
			// at the top of cycle c must not consume cycle-c arrivals here,
			// because whether the machine executes cycle c at all depends
			// on the other spans (replay applies them iff it does).
			if nd.core.Done() {
				pn.done = true
				pn.doneCycle = c
				break
			}
			pn.now = c
			// Arrival phase: consume this cycle's predicted deliveries in
			// their serial order.
			for pn.predHead < len(pn.preds) && pn.preds[pn.predHead].cyc == c {
				pr := &pn.preds[pn.predHead]
				pn.predHead++
				pn.idx = pr.idx
				if nd.wake > c {
					nd.wake = c
				}
				// Node-local fault effects (suppression, retry service,
				// fingerprint taint) are pure functions of message identity,
				// so the worker applies them here; the replay re-derives
				// the global bookkeeping at the same serial position.
				if fs != nil && w.m.faultArrivalLocal(nd, pr.msg, c) {
					continue
				}
				if pr.msg.Kind == bus.Broadcast {
					if obsOn {
						pn.Event(obs.Event{
							Cycle: c, Node: nd.id, Kind: obs.EvBroadcastArrived,
							Addr: pr.msg.Addr, Arg: boolArg(pr.msg.Reparative),
						})
					}
					nd.onBroadcast(pr.msg.Addr, c)
				}
			}
			// Cycle phase.
			pn.idx = cycleTag
			if !noSkip && nd.wake > c {
				nd.core.SkipCycles(c, 1)
			} else {
				nd.core.Cycle(c)
				if err := nd.core.Err(); err != nil {
					pn.errCycle, pn.err = c, err
					break
				}
				if !noSkip {
					if next, ok := nd.core.NextEventCycle(c + 1); ok {
						nd.wake = next
					} else {
						nd.wake = c + 1
					}
				}
			}
			if cm := nd.core.Committed(); cm != pn.committed {
				pn.committed = cm
				pn.lastProgress = c
			}
		}
	}
}

// predict loads the scratch interconnect with the real network's state
// and ticks it across [t, h), distributing predicted arrivals to the
// receiving nodes and recording the full sequence for the replay
// assertion. New messages enqueued during the window cannot deliver or
// perturb deliveries before h (the lookahead invariant), so the scratch
// — which sees none of them — predicts the window's deliveries exactly.
func (p *parRunner) predict(t, h uint64) {
	for _, pn := range p.pnodes {
		pn.enq = pn.enq[:0]
		pn.enqHead = 0
		pn.qry = pn.qry[:0]
		pn.qryHead = 0
		pn.events = pn.events[:0]
		pn.evHead = 0
		pn.preds = pn.preds[:0]
		pn.predHead = 0
	}
	p.wpreds = p.wpreds[:0]
	p.predCur = 0
	p.scratch.CopyStateFrom(p.m.net)
	for c := t; c < h; c++ {
		idx := int32(0)
		for _, arr := range p.scratch.Tick(c) {
			pn := p.pnodes[arr.Node]
			pn.preds = append(pn.preds, predRec{cyc: c, idx: idx, msg: arr.Msg})
			p.wpreds = append(p.wpreds, flatPred{cyc: c, node: arr.Node, msg: arr.Msg})
			idx++
		}
	}
}

// flushEvents merges node events tagged at or before (cyc, idx) into the
// observer, preserving each node's buffer order (tags are monotone per
// node).
func (p *parRunner) flushEvents(pn *parNode, cyc uint64, idx int32) {
	if p.m.obs == nil {
		return
	}
	for pn.evHead < len(pn.events) {
		e := &pn.events[pn.evHead]
		if e.cyc > cyc || (e.cyc == cyc && e.idx > idx) {
			break
		}
		p.m.obs.Event(e.ev)
		pn.evHead++
	}
}

// replayCycle re-runs cycle c against the real interconnect: Tick (live
// bus-grant events), the arrival walk in delivered order (applying
// deferred arrivals to nodes whose workers had already seen them done,
// and merging each node's buffered arrival events at its position),
// then the node phase in id order — buffered Enqueues at their recorded
// cycle, stall-query resolution against true state, and the node's
// cycle-phase events. limitNode cuts the node phase short for the
// partial cycle of a core-error abort (-1: all nodes), mirroring the
// serial loop's immediate return. A real delivery diverging from the
// prediction would mean the lookahead invariant is broken — a simulator
// bug — and panics rather than silently corrupting a deterministic run.
func (p *parRunner) replayCycle(c uint64, limitNode int) {
	m := p.m
	m.now = c
	idx := int32(0)
	for _, arr := range m.net.Tick(c) {
		if p.predCur >= len(p.wpreds) || p.wpreds[p.predCur].cyc != c ||
			p.wpreds[p.predCur].node != arr.Node || p.wpreds[p.predCur].msg != arr.Msg {
			panic(fmt.Sprintf("core: parallel: real delivery diverged from prediction at cycle %d node %d", c, arr.Node))
		}
		p.predCur++
		pn := p.pnodes[arr.Node]
		// Global fault bookkeeping for every delivery, in serial order
		// (the workers applied only the node-local half). A dead
		// receiver's arrivals vanish here, as in the serial loop.
		if m.fault != nil {
			m.faultArrivalGlobal(arr.Node, arr.Msg, c)
		}
		if pn.done && pn.doneCycle <= c {
			// Deferred: the worker left the node at doneCycle; apply the
			// arrival now, through the node's buffer so any observation it
			// emits merges at this exact position.
			pn.now = c
			pn.idx = idx
			if m.fault != nil && m.faultArrivalLocal(pn.nd, arr.Msg, c) {
				// Consumed by the fault layer (a done node still serves
				// retries and absorbs control traffic, like the serial loop).
			} else if arr.Msg.Kind == bus.Broadcast {
				if m.obs != nil {
					pn.Event(obs.Event{
						Cycle: c, Node: arr.Node, Kind: obs.EvBroadcastArrived,
						Addr: arr.Msg.Addr, Arg: boolArg(arr.Msg.Reparative),
					})
				}
				pn.nd.onBroadcast(arr.Msg.Addr, c)
			}
		}
		p.flushEvents(pn, c, idx)
		idx++
	}
	for i, pn := range p.pnodes {
		if limitNode >= 0 && i > limitNode {
			break
		}
		for pn.enqHead < len(pn.enq) && pn.enq[pn.enqHead].cyc == c {
			msg := pn.enq[pn.enqHead].msg
			if m.fault != nil {
				// Deferred global side of the buffered send (delay stats,
				// fingerprint self-record), at its serial position.
				m.fault.onDrainEnqueue(m, msg)
			}
			m.net.Enqueue(msg)
			pn.enqHead++
		}
		for pn.qryHead < len(pn.qry) && pn.qry[pn.qryHead].cyc == c {
			q := &pn.qry[pn.qryHead]
			pn.qryHead++
			if kind := phaseStall(m.net.DataPhase(q.line, i, c)); kind != obs.StallMemRemote {
				st := pn.nd.core.CPIStack()
				st[obs.StallMemRemote]--
				st[kind]++
			}
		}
		p.flushEvents(pn, c, cycleTag)
	}
}

// runParallel is Machine.Run's parallel twin: the same loop structure,
// advanced a window at a time. See the file comment for the protocol.
func (m *Machine) runParallel() (Result, error) {
	watchdog := m.cfg.WatchdogCycles
	if watchdog == 0 {
		watchdog = 2_000_000
	}
	p := newParRunner(m)
	defer p.shutdown()
	if m.fault != nil {
		// Workers apply only node-local fault effects; the global side
		// (stats, ledger, ground truth) is re-derived at replay. Reset on
		// exit so the machine can be inspected or re-run serially.
		m.fault.deferGlobal = true
		defer func() { m.fault.deferGlobal = false }()
	}
	lastProgress := uint64(0)

	for {
		// Scheduled deaths land exactly at window starts (the horizon is
		// clipped to the next death cycle below), so killing here matches
		// the serial loop's cycle-top maybeKill. Workers are idle and the
		// nodes effectively unleased between windows, so the kill acts on
		// real machine state.
		if m.fault != nil {
			m.maybeKill()
		}
		done := true
		for _, nd := range m.nodes {
			if !nd.core.Done() && !m.nodeDead(nd.id) {
				done = false
				break
			}
		}
		if done {
			break
		}

		t := m.now
		h := t + p.window
		// Clip to the first cycle the watchdog could fire, so a deadlock
		// surfaces at the identical cycle, and to the next sample
		// boundary, so samples are emitted exactly at barriers with fully
		// settled state.
		if d := lastProgress + watchdog + 2; d < h {
			h = d
		}
		if m.sampler != nil {
			if nb := (t/m.cfg.SampleInterval + 1) * m.cfg.SampleInterval; nb < h {
				h = nb
			}
		}
		if fs := m.fault; fs != nil {
			if fs.report != nil {
				// A quorum loss armed at this window's kill: the serial
				// loop executes exactly one more cycle before returning.
				h = t + 1
			}
			// Kills must land at window starts; maybeKill above retired
			// everything <= t, so the next scheduled cycle is strictly
			// ahead and a one-cycle window is the worst case.
			if fs.nextDeath < len(fs.schedule) {
				if dc := fs.schedule[fs.nextDeath].Cycle; dc < h {
					h = dc
				}
			}
			// No BSHR deadline may expire strictly inside a window (the
			// faultParallelOK precondition keeps in-window arms past any
			// horizon): clip so the earliest pending deadline expires
			// exactly at the barrier's h-1 timeout pass, where the serial
			// loop's end-of-cycle pass would have caught it.
			if dl := m.minRetryDeadline(); dl != NoDeadline && dl+1 < h {
				h = dl + 1
			}
		}

		p.predict(t, h)
		for _, w := range p.workers {
			w.start <- parWindow{t: t, h: h}
		}
		for _, w := range p.workers {
			<-w.done
		}

		// Barrier: gather completion, progress, and the first core error
		// in serial order (smallest cycle, then smallest node id — the
		// order the serial loop would have hit it).
		errNode := -1
		allDone := true
		for i, pn := range p.pnodes {
			if m.nodeDead(i) {
				continue // a dead node neither errs, finishes, nor progresses
			}
			if pn.err != nil && (errNode < 0 || pn.errCycle < p.pnodes[errNode].errCycle) {
				errNode = i
			}
			if !pn.done {
				allDone = false
			}
			if pn.lastProgress > lastProgress {
				lastProgress = pn.lastProgress
			}
		}
		if errNode >= 0 {
			// The serial loop returns mid-cycle, right after the erring
			// node's Cycle: replay the full cycles before it, then the
			// partial cycle through that node, so the observer stream and
			// the abort cycle match exactly.
			ec := p.pnodes[errNode].errCycle
			for c := t; c < ec; c++ {
				p.replayCycle(c, -1)
			}
			p.replayCycle(ec, errNode)
			m.now = ec
			return Result{}, fmt.Errorf("core: node %d: %w", errNode, p.pnodes[errNode].err)
		}
		// endExec is the exclusive bound on cycles the machine actually
		// executes: the horizon, or — when every node finished inside the
		// window — the first all-done loop top, past which the serial
		// loop never ticks the interconnect.
		endExec := h
		if allDone {
			endExec = t
			for i, pn := range p.pnodes {
				if !m.nodeDead(i) && pn.doneCycle > endExec {
					endExec = pn.doneCycle
				}
			}
		}
		for c := t; c < endExec; c++ {
			p.replayCycle(c, -1)
			if fs := m.fault; fs != nil && fs.report != nil && c < endExec-1 {
				// A divergence surfaced mid-window (fingerprint ledger):
				// the serial loop finishes cycle c and returns. Later
				// cycles the workers over-executed stay unreplayed and
				// unobservable (no events flushed, no net mutation, no
				// global stats), exactly like the core-error abort path.
				m.now = c
				return Result{}, fs.report
			}
		}
		// The serial loop charges StallHalted to every done node — and
		// StallDead to every dead one — on every executed cycle; the
		// workers touch neither, so charge the whole stretch here.
		for i, pn := range p.pnodes {
			if m.nodeDead(i) {
				pn.nd.core.CPIStack().Add(obs.StallDead, endExec-t)
				continue
			}
			if !pn.done || pn.doneCycle >= endExec {
				continue
			}
			from := pn.doneCycle
			if from < t {
				from = t
			}
			pn.nd.core.CPIStack().Add(obs.StallHalted, endExec-from)
		}
		if m.fault != nil && endExec == h {
			// The barrier's single timeout pass at h-1: by the horizon
			// clips, no deadline expired at any earlier executed cycle, so
			// this one pass reproduces the serial loop's per-cycle
			// checkTimeouts schedule. It runs fully unleased — retries and
			// self-serves act on the real interconnect and observer.
			m.now = h - 1
			p.leaseAll(false)
			m.checkTimeouts()
			p.leaseAll(true)
		}
		if m.fault != nil {
			if r := m.fault.report; r != nil {
				m.now = endExec - 1
				return Result{}, r
			}
		}
		if (endExec-1)-lastProgress > watchdog {
			m.now = endExec - 1
			return Result{}, m.deadlockError()
		}
		m.now = endExec
		if m.sampler != nil && m.now%m.cfg.SampleInterval == 0 {
			m.emitSamples()
		}
		if !m.cfg.Core.NoCycleSkip {
			p.leaseNet(false)
			m.skipIdle(lastProgress, watchdog)
			p.leaseNet(true)
		}
	}
	if m.sampler != nil && m.now > m.sampler.lastCycle {
		m.emitSamples() // final partial interval
	}
	return m.collect(), nil
}
