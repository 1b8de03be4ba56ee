package core

// Conservative parallel intra-run simulation (Config.ParallelNodes > 1).
//
// The serial loop (ooo.Drive over Machine.Step) interleaves every node
// cycle by cycle. This file advances spans of nodes on worker goroutines
// instead, in windows of W cycles, where W is the conservative lookahead
// the interconnect guarantees:
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
//     Before that, the coordinator extends the machine's instruction
//     ring far enough for every node's whole window (stream.fill), so
//     workers only read it and never step the shared emulator.
//  2. Execute: workers advance their nodes cycle by cycle to the
//     horizon with the serial loop's node step (node.cycle), handing
//     predicted arrivals to its arrival handler (node.deliver) at the
//     exact cycles the serial loop would deliver them. The node's
//     interconnect and observer are leased to a per-node shim (parNode)
//     that buffers outbound messages, records stall-attribution
//     queries, and tags observer events with a deterministic (cycle,
//     position) key.
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
// when the parallel loop wins and loses. Machines with an active fault
// plan never get here: Run sends them to the serial loop.
//
// This file is the one place in internal/core allowed to use
// goroutines and channels (dsvet goroutine-confinement allowlist).

import (
	"fmt"
	"math"

	"github.com/wisc-arch/datascalar/internal/bus"
	"github.com/wisc-arch/datascalar/internal/obs"
	"github.com/wisc-arch/datascalar/internal/ooo"
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
	// Workers only read the instruction ring: the coordinator fills it
	// before each window (runParallel), and a reader that still reaches
	// the head fails instead of stepping the emulator.
	m.stream.sealed = true
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
// (Machine.Skip) runs with the real network: skipped-stretch stall
// classification (SkipCycles → StallClass → ClassifyLoad → DataPhase)
// must see true interconnect state, exactly as in the serial loop —
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

// shutdown stops the workers and returns every node to the serial
// wiring, so a Machine remains inspectable (and re-runnable serially)
// after a parallel run.
func (p *parRunner) shutdown() {
	for _, w := range p.workers {
		close(w.start)
	}
	m := p.m
	m.stream.sealed = false
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
	for _, pn := range w.pnodes {
		if pn.done {
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
				nd.deliver(pr.msg, c)
			}
			// Cycle phase.
			pn.idx = cycleTag
			if err := nd.cycle(c, noSkip); err != nil {
				pn.errCycle, pn.err = c, err
				break
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
// bug — so replay stops with an error naming both messages rather than
// silently corrupting a deterministic run.
func (p *parRunner) replayCycle(c uint64, limitNode int) error {
	m := p.m
	m.now = c
	idx := int32(0)
	for _, arr := range m.net.Tick(c) {
		got := flatPred{cyc: c, node: arr.Node, msg: arr.Msg}
		if p.predCur >= len(p.wpreds) || p.wpreds[p.predCur] != got {
			predicted := "nothing"
			if p.predCur < len(p.wpreds) {
				w := p.wpreds[p.predCur]
				predicted = fmt.Sprintf("%+v to node %d at cycle %d", w.msg, w.node, w.cyc)
			}
			return fmt.Errorf("core: parallel: real delivery diverged from prediction at cycle %d node %d: predicted %s, delivered %+v",
				c, arr.Node, predicted, arr.Msg)
		}
		p.predCur++
		pn := p.pnodes[arr.Node]
		if pn.done && pn.doneCycle <= c {
			// Deferred: the worker left the node at doneCycle; apply the
			// arrival now, through the node's buffer so any observation it
			// emits merges at this exact position.
			pn.now = c
			pn.idx = idx
			pn.nd.deliver(arr.Msg, c)
		}
		p.flushEvents(pn, c, idx)
		idx++
	}
	for i, pn := range p.pnodes {
		if limitNode >= 0 && i > limitNode {
			break
		}
		for pn.enqHead < len(pn.enq) && pn.enq[pn.enqHead].cyc == c {
			m.net.Enqueue(pn.enq[pn.enqHead].msg)
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
	return nil
}

// runParallel is Run's parallel path: the serial loop's structure
// (beginCycle, the watchdog, NextEvent and Skip) advanced a window at a
// time; see the file comment for the protocol. On a watchdog abort it
// returns ooo.ErrNoProgress with m.now at the cycle it fired.
func (m *Machine) runParallel() error {
	watchdog := m.cfg.WatchdogCycles
	if watchdog == 0 {
		watchdog = ooo.DefaultWatchdog
	}
	p := newParRunner(m)
	defer p.shutdown()
	lastProgress := m.now

	for {
		if m.beginCycle() {
			return nil
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

		// dispatch pulls at most FetchWidth instructions a cycle.
		m.stream.fill((h - t) * uint64(m.cfg.Core.FetchWidth))
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
				if err := p.replayCycle(c, -1); err != nil {
					return err
				}
			}
			if err := p.replayCycle(ec, errNode); err != nil {
				return err
			}
			m.now = ec
			return fmt.Errorf("core: node %d: %w", errNode, p.pnodes[errNode].err)
		}
		// endExec is the exclusive bound on cycles the machine actually
		// executes: the horizon, or — when every node finished inside the
		// window — the first all-done loop top, past which the serial
		// loop never ticks the interconnect.
		endExec := h
		if allDone {
			endExec = t
			for _, pn := range p.pnodes {
				if pn.doneCycle > endExec {
					endExec = pn.doneCycle
				}
			}
		}
		for c := t; c < endExec; c++ {
			if err := p.replayCycle(c, -1); err != nil {
				return err
			}
		}
		// The serial loop charges every done node on every executed
		// cycle; the workers do not, so charge the whole stretch here.
		for _, pn := range p.pnodes {
			if pn.done && pn.doneCycle < endExec {
				from := max(pn.doneCycle, t)
				m.idle(pn.nd, from, endExec-from)
			}
		}
		if (endExec-1)-lastProgress > watchdog {
			m.now = endExec - 1
			return ooo.ErrNoProgress
		}
		m.now = endExec
		if !m.cfg.Core.NoCycleSkip {
			if next := min(m.NextEvent(m.now), lastProgress+watchdog+1); next > m.now {
				p.leaseNet(false)
				m.Skip(m.now, next)
				p.leaseNet(true)
			}
		}
	}
}
