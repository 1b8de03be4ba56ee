package bus

import (
	"fmt"

	"github.com/wisc-arch/datascalar/internal/obs"
)

// Link directions. Every node owns four directed outgoing links,
// indexed node*4+dir; a mesh edge node simply never uses the links that
// would leave the grid, and a torus wraps them around.
const (
	dirXPlus = iota
	dirXMinus
	dirYPlus
	dirYMinus
	numDirs
)

// meshMsg is the per-message header shared by all of a message's tree
// branches: the payload, the liveness refcount, the column spans the
// dimension-order broadcast tree spawns at every row node (all spawning
// nodes sit in the source's row, so the spans are fixed at enqueue), and
// the summary DataPhase reads instead of the branches.
type meshMsg struct {
	msg Message
	// branches counts live branches; the message leaves the network when
	// it reaches zero.
	branches int
	// midHop counts the branches whose current hop is in progress.
	midHop int
	// injected marks that some branch has started its first hop (for the
	// one-shot bus.grant observation, for PurgeSource, which drops only
	// messages that have not touched the wire, and for DataPhase).
	injected bool
	// srcDirs has bit d set for each branch Enqueue placed at the source
	// heading direction d. Until injected these are the message's only
	// branches, all sitting with the message's ReadyAt.
	srcDirs uint8
	// colPlus/colMinus are the +Y/-Y spans of the column branches a
	// broadcast spawns at each row node (zero for point-to-point).
	colPlus, colMinus int
	// live is the header's index in Mesh.live.
	live int
}

// meshBranch is one branch of a message's route: a point-to-point
// message is a single branch, a broadcast is a dimension-order tree of
// row branches (which spawn column branches at every node they visit)
// plus the source's own column branches. Branches are stored by value;
// the shared header is one allocation per message, made in Enqueue (off
// the hot path).
type meshBranch struct {
	m *meshMsg
	// at is the node the branch sits at (or is travelling toward when
	// inFlight); the next hop uses link at*4+dir.
	at int
	// dir is the direction of the current or next hop. Broadcast
	// branches keep a fixed direction; point-to-point branches recompute
	// it at every hop start (dimension-order: X first, then Y).
	dir uint8
	// readyAt is the cycle the current hop completes (when inFlight) or
	// the earliest departure cycle (when sitting).
	readyAt uint64
	// inFlight marks a hop in progress whose arrival at `at` has not yet
	// been processed.
	inFlight bool
	// remaining counts hops left on this branch.
	remaining int
	// spawn marks a broadcast row branch, which spawns the header's
	// column branches at every node it delivers to.
	spawn bool
}

// Mesh is a 2D mesh (or, with wrap, torus) Network of W×H nodes with
// dimension-order routing. Node i sits at (i mod W, i div W). Each of
// the 4N directed links carries one message at a time, so aggregate
// bandwidth scales with node count while the bisection — unlike the
// ring's single-lap broadcast — keeps worst-case latency at O(W+H)
// rather than O(N). Broadcasts fan out on a dimension-order tree: row
// branches travel ±X from the source, and every row node (source
// included) sprouts ±Y column branches, delivering to each of the other
// N−1 nodes exactly once with no revisits. The torus halves both spans
// by travelling each direction only halfway around.
//
// The paper's SCI-style ring is the one-way 1×N torus (NewRing), one
// row of N nodes: every message travels +X, a point-to-point route takes (dst−src) mod N
// hops, and a broadcast laps all N hops, the last one back into its
// sender, which strips it without delivering it.
type Mesh struct {
	cfg  Config
	n    int
	w, h int
	// wrap distinguishes the torus (true) from the mesh.
	wrap bool
	// oneWay marks the ring: a wrapped single row whose messages only
	// travel +X.
	oneWay bool
	// linkFree[node*4+dir] is the first cycle that directed link is idle.
	linkFree []uint64
	// flight and next are double-buffered branch sets: Tick drains one
	// and builds the other, because compacting in place would alias the
	// branches it spawns mid-scan.
	flight, next []meshBranch
	// live holds the header of every message with surviving branches, in
	// no particular order (each header knows its index, so a message
	// leaves in O(1)); its length is Pending. bySrc counts the same per
	// source node (SourcePending).
	live  []*meshMsg
	bySrc []int
	stats Stats
	obs   obs.Observer
	// arrivals is the scratch buffer Tick returns; reused so the
	// per-cycle delivery path is allocation-free in steady state.
	arrivals []Arrival
	// hdrPool backs the header values CopyStateFrom materialises, reused
	// across copies so prediction scratchpads stay allocation-free in
	// steady state. Unused outside CopyStateFrom targets.
	hdrPool []meshMsg
}

// meshDims factors n into the squarest W×H grid with W ≤ H: the largest
// divisor of n not exceeding √n. Prime n degenerates to a 1×n line
// (mesh) or two-way ring (torus) — still correct, just without the
// bisection advantage, so experiment configs prefer composite node
// counts. The one-way ring does not use it: NewRing puts all N nodes
// in one row along X.
func meshDims(n int) (w, h int) {
	w = 1
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			w = d
		}
	}
	return w, n / w
}

// NewMesh builds a 2D mesh of numNodes nodes on the squarest grid that
// factors numNodes; every directed link has cfg's width and clock plus
// its HopCycles router latency. It panics on invalid configuration
// (experiment-setup error).
func NewMesh(cfg Config, numNodes int) *Mesh { return newMesh(cfg, numNodes, false) }

// NewTorus builds the wraparound variant of NewMesh.
func NewTorus(cfg Config, numNodes int) *Mesh { return newMesh(cfg, numNodes, true) }

// NewRing builds the paper's unidirectional ring of numNodes nodes: the
// one-way 1×N torus. Each link carries one message at a time, so unlike
// the bus separate links carry different messages concurrently and
// aggregate bandwidth scales with node count — the reason the paper
// prefers rings for larger systems — at the cost of multi-hop broadcast
// latency.
func NewRing(cfg Config, numNodes int) *Mesh {
	ms := newMesh(cfg, numNodes, true)
	ms.w, ms.h, ms.oneWay = numNodes, 1, true
	return ms
}

func newMesh(cfg Config, numNodes int, wrap bool) *Mesh {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if numNodes <= 0 {
		panic("mesh: need at least one node")
	}
	w, h := meshDims(numNodes)
	return &Mesh{
		cfg: cfg, n: numNodes, w: w, h: h, wrap: wrap,
		linkFree: make([]uint64, numNodes*numDirs),
		bySrc:    make([]int, numNodes),
	}
}

// Dims returns the grid dimensions (W, H).
func (ms *Mesh) Dims() (int, int) { return ms.w, ms.h }

// NetStats implements Network.
func (ms *Mesh) NetStats() *Stats { return &ms.stats }

// SetObserver attaches an observer emitting a bus.grant event when a
// message's first branch starts its first hop (nil detaches).
func (ms *Mesh) SetObserver(o obs.Observer) { ms.obs = o }

// neighbor returns the node one hop from `at` in direction dir. Branch
// spans guarantee a mesh branch never walks off the grid; the torus
// wraps.
func (ms *Mesh) neighbor(at int, dir uint8) int {
	x, y := at%ms.w, at/ms.w
	switch dir {
	case dirXPlus:
		x++
		if x == ms.w {
			x = 0
		}
	case dirXMinus:
		x--
		if x < 0 {
			x = ms.w - 1
		}
	case dirYPlus:
		y++
		if y == ms.h {
			y = 0
		}
	case dirYMinus:
		y--
		if y < 0 {
			y = ms.h - 1
		}
	}
	return y*ms.w + x
}

// axisDist returns the hop count and direction to close a one-axis
// delta of `to-from` on an axis of `size` nodes: the absolute delta on
// a mesh, the shorter way around on a torus (ties go the plus
// direction), always the plus way on the ring.
func (ms *Mesh) axisDist(from, to, size int, plus, minus uint8) (int, uint8) {
	if from == to {
		return 0, plus
	}
	if ms.oneWay {
		return (to - from + size) % size, plus
	}
	if !ms.wrap {
		if to > from {
			return to - from, plus
		}
		return from - to, minus
	}
	dp := (to - from + size) % size
	dm := size - dp
	if dp <= dm {
		return dp, plus
	}
	return dm, minus
}

// routeDir returns the dimension-order next-hop direction from `at`
// toward dst: X first, then Y.
func (ms *Mesh) routeDir(at, dst int) uint8 {
	dx, dirX := ms.axisDist(at%ms.w, dst%ms.w, ms.w, dirXPlus, dirXMinus)
	if dx != 0 {
		return dirX
	}
	_, dirY := ms.axisDist(at/ms.w, dst/ms.w, ms.h, dirYPlus, dirYMinus)
	return dirY
}

// hopCount returns the dimension-order route length from src to dst.
func (ms *Mesh) hopCount(src, dst int) int {
	dx, _ := ms.axisDist(src%ms.w, dst%ms.w, ms.w, dirXPlus, dirXMinus)
	dy, _ := ms.axisDist(src/ms.w, dst/ms.w, ms.h, dirYPlus, dirYMinus)
	return dx + dy
}

// spans returns the ± branch lengths that cover the size-1 other nodes
// of one axis: everything to each side on a mesh, half each way on a
// torus (the plus branch takes the extra node when size is odd... it
// takes floor(size/2), the minus branch the remaining ceil(size/2)-1),
// all of them the plus way on the ring.
func (ms *Mesh) spans(pos, size int) (plus, minus int) {
	if ms.oneWay {
		return size - 1, 0
	}
	if !ms.wrap {
		return size - 1 - pos, pos
	}
	return size / 2, size - 1 - size/2
}

// Enqueue implements Network. A point-to-point message becomes one
// dimension-order branch; a broadcast becomes its tree's initial
// branches at the source (±X row branches that will spawn columns, plus
// the source's own ±Y column branches). On the ring a broadcast is one
// +X branch that laps back into its sender.
func (ms *Mesh) Enqueue(m Message) {
	if m.Src < 0 || m.Src >= ms.n {
		panic(fmt.Sprintf("mesh: bad source %d", m.Src))
	}
	hdr := &meshMsg{msg: m}
	first := len(ms.flight)
	if m.Kind == Broadcast {
		rowPlus, rowMinus := ms.spans(m.Src%ms.w, ms.w)
		if ms.oneWay {
			rowPlus++ // the strip hop back into the sender
		}
		hdr.colPlus, hdr.colMinus = ms.spans(m.Src/ms.w, ms.h)
		if rowPlus > 0 {
			hdr.branches++
			ms.flight = append(ms.flight, meshBranch{m: hdr, at: m.Src, dir: dirXPlus, readyAt: m.ReadyAt, remaining: rowPlus, spawn: true})
		}
		if rowMinus > 0 {
			hdr.branches++
			ms.flight = append(ms.flight, meshBranch{m: hdr, at: m.Src, dir: dirXMinus, readyAt: m.ReadyAt, remaining: rowMinus, spawn: true})
		}
		ms.flight = spawnColumns(ms.flight, hdr, m.Src, m.ReadyAt)
	} else {
		if m.Dst == m.Src {
			panic(fmt.Sprintf("mesh: self-send from node %d", m.Src))
		}
		hdr.branches++
		ms.flight = append(ms.flight, meshBranch{m: hdr, at: m.Src, dir: ms.routeDir(m.Src, m.Dst), readyAt: m.ReadyAt, remaining: ms.hopCount(m.Src, m.Dst)})
	}
	for _, b := range ms.flight[first:] {
		hdr.srcDirs |= 1 << b.dir
	}
	if hdr.branches > 0 {
		hdr.live = len(ms.live)
		ms.live = append(ms.live, hdr)
		ms.bySrc[m.Src]++
	}
	ms.stats.TotalQueued.Inc()
	ms.stats.Messages.Inc()
	ms.stats.Bytes.Add(uint64(m.WireBytes()))
	ms.stats.ByKindMsgs[m.Kind].Inc()
	ms.stats.ByKindBytes[m.Kind].Add(uint64(m.WireBytes()))
}

// spawnColumns appends a node's ±Y column branches of a broadcast tree
// to dst and returns it (the header carries the spans, identical for
// every row node). It takes the branch set explicitly because Tick
// spawns into its scan buffer, not ms.flight.
func spawnColumns(dst []meshBranch, hdr *meshMsg, at int, readyAt uint64) []meshBranch {
	if hdr.colPlus > 0 {
		hdr.branches++
		dst = append(dst, meshBranch{m: hdr, at: at, dir: dirYPlus, readyAt: readyAt, remaining: hdr.colPlus})
	}
	if hdr.colMinus > 0 {
		hdr.branches++
		dst = append(dst, meshBranch{m: hdr, at: at, dir: dirYMinus, readyAt: readyAt, remaining: hdr.colMinus})
	}
	return dst
}

// Pending implements Network: messages (not branches) still on the
// interconnect.
func (ms *Mesh) Pending() int { return len(ms.live) }

// retire removes a message whose last branch has ended from the live
// set, moving the last live header into its place.
func (ms *Mesh) retire(hdr *meshMsg) {
	last := len(ms.live) - 1
	moved := ms.live[last]
	ms.live[hdr.live] = moved
	moved.live = hdr.live
	ms.live[last] = nil
	ms.live = ms.live[:last]
	ms.bySrc[hdr.msg.Src]--
}

// SourcePending implements Network.
func (ms *Mesh) SourcePending(src int) int { return ms.bySrc[src] }

// PurgeSource implements Network: messages src submitted whose trees
// have not yet touched the wire die with the node (all their branches
// at once); messages with any hop already taken keep flowing — the
// remaining hops are driven by the routers, not the dead source. A ring
// broadcast is still stripped, because the strip hop is counted, not
// performed by the sender.
func (ms *Mesh) PurgeSource(src int) int {
	n := 0
	kept := ms.flight[:0]
	for _, b := range ms.flight {
		if b.m.msg.Src == src && !b.m.injected {
			b.m.branches--
			if b.m.branches == 0 {
				n++
				ms.retire(b.m)
			}
			continue
		}
		kept = append(kept, b)
	}
	// Clear dropped tails so stale *meshMsg pointers do not linger in
	// the backing array.
	for i := len(kept); i < len(ms.flight); i++ {
		ms.flight[i] = meshBranch{}
	}
	ms.flight = kept
	return n
}

// NextDeliveryCycle implements Network for the mesh: the minimum over
// all in-flight hops' completion cycles and all sitting branches'
// earliest possible departures (ready and link free). The value is a
// safe lower bound — contention may push an actual departure later,
// and a Tick at the returned cycle then simply does nothing and the
// scheduler recomputes.
func (ms *Mesh) NextDeliveryCycle(now uint64) uint64 {
	next := uint64(NoEvent)
	for i := range ms.flight {
		b := &ms.flight[i]
		at := b.readyAt
		if !b.inFlight {
			if free := ms.linkFree[b.at*numDirs+int(b.dir)]; free > at {
				at = free
			}
		}
		if at <= now {
			at = now + 1
		}
		if at < next {
			next = at
		}
	}
	return next
}

// Lookahead implements Network. One header-only hop is the cheapest move
// any branch can make; a message's first delivery, and any link
// occupancy its branches impose on older traffic, is at least that far
// past its ReadyAt.
func (ms *Mesh) Lookahead() uint64 {
	la := ms.cfg.TransferCycles(HeaderBytes) + ms.cfg.HopCycles
	if la < 1 {
		la = 1
	}
	return la
}

// NewScratch implements Network.
func (ms *Mesh) NewScratch() Network {
	if ms.oneWay {
		return NewRing(ms.cfg, ms.n)
	}
	return newMesh(ms.cfg, ms.n, ms.wrap)
}

// CopyStateFrom implements Network for the mesh: replicate link
// occupancy, counters, every live header and every branch, repointing
// each branch at its header's copy (found by the header's live index)
// so sibling branches of one broadcast keep sharing a refcounted header
// in the copy. Header values land in a reused pool sized up front, so
// the pointers handed out stay stable.
func (ms *Mesh) CopyStateFrom(src Network) {
	s := src.(*Mesh)
	copy(ms.linkFree, s.linkFree)
	copy(ms.bySrc, s.bySrc)
	if cap(ms.hdrPool) < len(s.live) {
		ms.hdrPool = make([]meshMsg, len(s.live))
	}
	ms.hdrPool = ms.hdrPool[:len(s.live)]
	for i := len(s.live); i < len(ms.live); i++ {
		ms.live[i] = nil
	}
	ms.live = ms.live[:0]
	for i, hdr := range s.live {
		ms.hdrPool[i] = *hdr
		ms.live = append(ms.live, &ms.hdrPool[i])
	}
	for i := len(s.flight); i < len(ms.flight); i++ {
		ms.flight[i] = meshBranch{}
	}
	ms.flight = ms.flight[:0]
	for _, b := range s.flight {
		b.m = ms.live[b.m.live]
		ms.flight = append(ms.flight, b)
	}
}

// DataPhase implements Network with binding-constraint semantics: a
// matching message with a hop on the wire is Transfer; a tree not yet
// injected whose own readiness is the binding constraint (every
// departure link it uses already free by then) is Queued; anything
// else waits behind other traffic — Blocked. It reads each live
// header's summary, never its branches, and the answer is the maximum
// a scan of every matching branch would give: a sitting branch of an
// injected message is Blocked, and before injection every branch sits
// at the source with the message's ReadyAt, on a link srcDirs names.
// All inputs are frozen across any stretch NextDeliveryCycle certifies
// as no-ops, so attribution cannot flip inside a skipped stretch.
//
//dsvet:hotpath
func (ms *Mesh) DataPhase(addr uint64, dst int, now uint64) MsgPhase {
	best := PhaseAbsent
	for _, hdr := range ms.live {
		if !dataMatch(hdr.msg, addr, dst) {
			continue
		}
		switch {
		case hdr.midHop > 0:
			return PhaseTransfer
		case !hdr.injected && ms.srcLinksFree(hdr):
			best = max(best, PhaseQueued)
		default:
			best = PhaseBlocked
		}
	}
	return best
}

// srcLinksFree reports whether every source link an uninjected
// message's branches will leave on is free by the message's ReadyAt.
func (ms *Mesh) srcLinksFree(hdr *meshMsg) bool {
	links := ms.linkFree[hdr.msg.Src*numDirs : (hdr.msg.Src+1)*numDirs]
	for d, free := range links {
		if hdr.srcDirs&(1<<d) != 0 && free > hdr.msg.ReadyAt {
			return false
		}
	}
	return true
}

// Tick implements Network. Each branch alternates between completing a
// hop — delivering at the node it reaches and, on row branches,
// spawning that node's column branches — and starting its next hop as
// soon as its outgoing link is free. Spawned branches join the scan of
// the same Tick in deterministic append order, so a column branch may
// start its first hop the same cycle its row parent arrives (the router
// forwards and replicates in one cycle; HopCycles models the latency).
// Distinct links carry distinct branches concurrently. The returned
// slice is only valid until the next call.
//
//dsvet:hotpath
func (ms *Mesh) Tick(now uint64) []Arrival {
	out := ms.arrivals[:0]
	cur := ms.flight
	kept := ms.next[:0]
	for i := 0; i < len(cur); i++ {
		b := cur[i]
		// Complete an in-progress hop whose transfer has finished.
		if b.inFlight && b.readyAt <= now {
			b.inFlight = false
			b.m.midHop--
			b.remaining--
			if b.m.msg.Kind == Broadcast {
				// Tree branches deliver at every node they reach. Only
				// the ring's strip hop reaches the source, which removes
				// its own message instead.
				if b.at != b.m.msg.Src {
					out = append(out, Arrival{Node: b.at, Msg: b.m.msg})
				}
				if b.spawn {
					// Row branch: sprout this row node's column branches.
					// They join cur and are scanned later in this same
					// Tick, in deterministic append order.
					cur = spawnColumns(cur, b.m, b.at, now)
				}
			} else if b.remaining == 0 {
				out = append(out, Arrival{Node: b.at, Msg: b.m.msg})
			}
			if b.remaining == 0 {
				b.m.branches--
				if b.m.branches == 0 {
					ms.retire(b.m)
				}
				continue // branch done
			}
			if b.m.msg.Kind != Broadcast {
				// Dimension-order: recompute the direction at each hop.
				b.dir = ms.routeDir(b.at, b.m.msg.Dst)
			}
		}
		// Start the next hop if sitting, ready, and the link is free.
		if !b.inFlight && b.readyAt <= now {
			if link := b.at*numDirs + int(b.dir); ms.linkFree[link] <= now {
				occ := ms.cfg.TransferCycles(b.m.msg.WireBytes()) + ms.cfg.HopCycles
				ms.linkFree[link] = now + occ
				ms.stats.BusyCycles.Add(occ)
				if !b.m.injected {
					b.m.injected = true
					if ms.obs != nil {
						ms.obs.Event(obs.Event{
							Cycle: now, Node: b.m.msg.Src, Kind: obs.EvBusGrant,
							Addr: b.m.msg.Addr, Arg: uint64(b.m.msg.WireBytes()),
						})
					}
				}
				b.at = ms.neighbor(b.at, b.dir)
				b.readyAt = now + occ
				b.inFlight = true
				b.m.midHop++
			}
		}
		kept = append(kept, b)
	}
	// Swap the double buffers; clear the drained one's tail so stale
	// headers are collectable.
	for i := range cur {
		cur[i] = meshBranch{}
	}
	ms.next = cur[:0]
	ms.flight = kept
	ms.arrivals = out
	return out
}
