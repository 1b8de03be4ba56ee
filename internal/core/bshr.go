// Package core implements the paper's primary contribution: the
// DataScalar machine. N processor+memory nodes run the same program
// redundantly (SPSD execution); owners of communicated pages broadcast
// loaded lines over the global bus (asynchronous ESP), non-owners wait in
// Broadcast Status Holding Registers (BSHRs), stores complete only at
// owners, and the first-level caches are kept *correspondent* across
// nodes by updating tags only at commit through a Commit Update Buffer,
// with false hits repaired by reparative broadcasts / BSHR squashes and
// false misses folded by miss merging (Section 4 of the paper).
package core

import (
	"github.com/wisc-arch/datascalar/internal/obs"
	"github.com/wisc-arch/datascalar/internal/ooo"
	"github.com/wisc-arch/datascalar/internal/stats"
)

// BSHRStats counts BSHR activity for the paper's Table 3.
type BSHRStats struct {
	// Allocs counts waiting entries created (a load had to wait for a
	// broadcast).
	Allocs stats.Counter
	// Joins counts loads that merged into an existing waiting entry.
	Joins stats.Counter
	// BufferedHits counts loads that found their data already waiting in
	// the BSHR — the broadcast arrived before the local processor asked,
	// i.e. another node ran ahead (datathreading evidence; the paper's
	// "data found in BSHR" column).
	BufferedHits stats.Counter
	// Arrivals counts broadcasts received from the bus.
	Arrivals stats.Counter
	// Matched counts arrivals that satisfied a waiting entry.
	Matched stats.Counter
	// Buffered counts arrivals stored for a future request.
	Buffered stats.Counter
	// Squashes counts entries/arrivals squashed due to false hits (the
	// paper's "BSHR squashes" column).
	Squashes stats.Counter
	// Overflows counts arrivals buffered beyond the configured capacity.
	// Broadcasts are never dropped — ESP has no re-request path, so a
	// dropped broadcast would deadlock the consumer; real hardware would
	// assert bus backpressure here instead (the paper notes rebroadcast
	// complications for full receive queues). Run-ahead is bounded by the
	// RUU, so the overshoot is small; Overflows and MaxBuffered quantify
	// how much capacity a real implementation would need.
	Overflows stats.Counter
	// MaxWaiting and MaxBuffered are entry-count high-water marks.
	MaxWaiting  int
	MaxBuffered int
}

// Accesses returns the total number of BSHR operations, the denominator
// used for Table 3's squash percentage.
func (s *BSHRStats) Accesses() uint64 {
	return s.Allocs.Value() + s.Joins.Value() + s.BufferedHits.Value() +
		s.Arrivals.Value() + s.Squashes.Value()
}

type bshrEntry struct {
	line uint64
	// waiting entries hold load tokens blocked on the broadcast; buffered
	// entries (waiting == nil, hasData) hold early data instead.
	waiting   []ooo.LoadToken
	hasData   bool
	arrivedAt uint64
	seq       uint64 // insertion order, for earliest-first matching
	// deadline is the cycle this waiting entry's re-request timer fires
	// (0 when the retry path is disabled); retries counts re-requests
	// already sent for it. Both belong to the fault-detection layer and
	// are dead weight on fault-free runs.
	deadline uint64
	retries  int
}

// BSHR implements the broadcast-receiving structure of the paper's
// simulated chip (Figure 5): a queue searched associatively by address.
// An arriving broadcast frees the earliest waiting entry for its address;
// with no waiter it is buffered so a later request sees an on-chip hit.
// Waiting entries are never dropped (that would deadlock the machine);
// buffered entries beyond the capacity evict the oldest buffered entry,
// which is safe — the corresponding load simply misses later.
type BSHR struct {
	entries   []bshrEntry
	bufferCap int
	nextSeq   uint64
	// owed counts, per line, arrivals this node must absorb because a
	// commit-time fill had no local consumer (see Absorb). Owed arrivals
	// are only absorbed when no waiter exists, so a pending load can
	// never starve.
	owed  map[uint64]int
	stats BSHRStats

	// retryTimeout arms a deadline on every waiting entry (0 disables the
	// retry path entirely — the fault-free configuration); retryCap bounds
	// the exponential backoff between re-requests of the same line.
	retryTimeout uint64
	retryCap     uint64
	// expired is the scratch slice Expired hands back (valid until the
	// next Expired call).
	expired []ExpiredWait

	// tokFree recycles the backing arrays of waiting slices whose entry
	// was matched; released is the scratch slice Arrive hands back (valid
	// until the next Arrive — the machine consumes it within the cycle).
	// Together they make the steady-state waiting path allocation-free.
	tokFree  [][]ooo.LoadToken
	released []ooo.LoadToken

	// Observability (nil obs = disabled, zero cost); the owning machine
	// attributes events to a node and supplies its cycle clock.
	obs      obs.Observer
	obsNode  int
	obsClock *uint64
}

// SetObserver attaches an observer emitting BSHR protocol events
// attributed to node, timestamped through clock (a pointer to the owning
// machine's cycle counter). A nil observer detaches.
func (b *BSHR) SetObserver(o obs.Observer, node int, clock *uint64) {
	b.obs, b.obsNode, b.obsClock = o, node, clock
}

// obsEvent emits one event when an observer is attached.
func (b *BSHR) obsEvent(kind obs.EventKind, addr, arg uint64) {
	if b.obs == nil {
		return
	}
	var cycle uint64
	if b.obsClock != nil {
		cycle = *b.obsClock
	}
	b.obs.Event(obs.Event{Cycle: cycle, Node: b.obsNode, Kind: kind, Addr: addr, Arg: arg})
}

// NewBSHR builds a BSHR whose buffered-data capacity is bufferCap
// entries (a soft bound; see BSHRStats.Overflows).
func NewBSHR(bufferCap int) *BSHR {
	if bufferCap <= 0 {
		bufferCap = 1
	}
	return &BSHR{bufferCap: bufferCap, owed: make(map[uint64]int)}
}

// Stats returns the BSHR counters.
func (b *BSHR) Stats() *BSHRStats { return &b.stats }

// SetRetry arms the fault-detection timeout path: every waiting entry
// allocated afterwards gets a deadline now+timeout, re-armed with
// capped exponential backoff by Expired. timeout 0 disables the path
// (the default; fault-free machines never pay for it).
func (b *BSHR) SetRetry(timeout, backoffCap uint64) {
	b.retryTimeout, b.retryCap = timeout, backoffCap
}

// Request records that load tok needs line's data at cycle now. It
// returns (dataReady=true, arrivedAt) when a buffered broadcast already
// holds the data (consumed by this call); otherwise the token waits and
// is released by a future Arrive.
func (b *BSHR) Request(line uint64, tok ooo.LoadToken, now uint64) (dataReady bool, arrivedAt uint64) {
	// Earliest buffered entry for the line, if any.
	if i := b.find(line, true); i >= 0 {
		at := b.entries[i].arrivedAt
		b.remove(i)
		b.stats.BufferedHits.Inc()
		b.obsEvent(obs.EvBSHRFoundBuffered, line, at)
		return true, at
	}
	// Join an existing waiting entry for the line.
	if i := b.find(line, false); i >= 0 {
		b.entries[i].waiting = append(b.entries[i].waiting, tok)
		b.stats.Joins.Inc()
		b.obsEvent(obs.EvBSHRJoin, line, uint64(len(b.entries[i].waiting)))
		return false, 0
	}
	e := bshrEntry{line: line, waiting: b.newWaiting(tok), seq: b.nextSeq}
	if b.retryTimeout != 0 {
		e.deadline = now + b.retryTimeout
	}
	b.entries = append(b.entries, e)
	b.nextSeq++
	b.stats.Allocs.Inc()
	if n := b.numWaiting(); n > b.stats.MaxWaiting {
		b.stats.MaxWaiting = n
	}
	b.obsEvent(obs.EvBSHRAlloc, line, uint64(b.numWaiting()))
	return false, 0
}

// newWaiting returns a one-token waiting slice, reusing the capacity of
// a previously matched entry when one is available.
func (b *BSHR) newWaiting(tok ooo.LoadToken) []ooo.LoadToken {
	if n := len(b.tokFree); n > 0 {
		s := b.tokFree[n-1]
		b.tokFree = b.tokFree[:n-1]
		return append(s[:0], tok)
	}
	return append(make([]ooo.LoadToken, 0, 2), tok)
}

// Arrive delivers a broadcast of line at cycle now. It returns the load
// tokens released (empty when the broadcast was buffered or squashed);
// the returned slice is only valid until the next Arrive call.
//
//dsvet:hotpath
func (b *BSHR) Arrive(line uint64, now uint64) []ooo.LoadToken {
	b.stats.Arrivals.Inc()
	// Waiting consumers always match first so that no pending load can
	// starve.
	if i := b.find(line, false); i >= 0 {
		toks := b.entries[i].waiting
		b.released = append(b.released[:0], toks...)
		b.tokFree = append(b.tokFree, toks)
		b.remove(i)
		b.stats.Matched.Inc()
		b.obsEvent(obs.EvBSHRMatch, line, uint64(len(b.released)))
		return b.released
	}
	// Absorb arrivals owed from fills that had no local consumer.
	if b.owed[line] > 0 {
		b.owed[line]--
		if b.owed[line] == 0 {
			delete(b.owed, line)
		}
		b.stats.Squashes.Inc()
		b.obsEvent(obs.EvBSHRSquash, line, 0)
		return nil
	}
	// Buffer for a future request. Capacity is a soft bound: see the
	// Overflows documentation.
	if b.numBuffered() >= b.bufferCap {
		b.stats.Overflows.Inc()
	}
	b.entries = append(b.entries, bshrEntry{line: line, hasData: true, arrivedAt: now, seq: b.nextSeq})
	b.nextSeq++
	b.stats.Buffered.Inc()
	if n := b.numBuffered(); n > b.stats.MaxBuffered {
		b.stats.MaxBuffered = n
	}
	b.obsEvent(obs.EvBSHRBuffer, line, uint64(b.numBuffered()))
	return nil
}

// Absorb consumes exactly one arrival of line that this node will not
// use: the caller (the commit-time fill handler) determined that no local
// load claims the broadcast paired with the fill it is committing. A
// buffered copy is removed immediately; otherwise the next arrival with
// no waiting consumer is dropped. Because fills and broadcasts pair
// one-to-one per line (the owner guarantees one broadcast per fill) and
// waiters always match first, absorption can never starve a load.
func (b *BSHR) Absorb(line uint64) {
	if i := b.find(line, true); i >= 0 {
		b.remove(i)
		b.stats.Squashes.Inc()
		b.obsEvent(obs.EvBSHRSquash, line, 0)
		return
	}
	b.owed[line]++
}

// HasWaiter reports whether any load is waiting on line.
func (b *BSHR) HasWaiter(line uint64) bool { return b.find(line, false) >= 0 }

// WaitRetries returns the number of re-requests already sent for line's
// earliest waiting entry (0 when nothing waits or the retry path is
// disarmed). Stall attribution uses it to split BSHR waits between the
// ordinary ESP path and the fault layer's retry/backoff protocol; it
// reads frozen state only, so the answer is stable across skipped
// cycles (retry counts change only at deadlines, which cap every skip).
func (b *BSHR) WaitRetries(line uint64) int {
	if b.retryTimeout == 0 {
		return 0
	}
	if i := b.find(line, false); i >= 0 {
		return b.entries[i].retries
	}
	return 0
}

// ExpiredWait describes one waiting entry whose re-request timer fired.
type ExpiredWait struct {
	Line uint64
	// Retries counts re-requests sent for this entry *before* this
	// expiry (0 on the first timeout).
	Retries int
}

// Expired collects the waiting entries whose deadlines have passed at
// cycle now and re-arms each with capped exponential backoff
// (now + min(timeout<<retries, cap)). The caller turns each into a
// directed re-request or an escalation. Returns nil when the retry path
// is disarmed; the returned slice is valid until the next call.
func (b *BSHR) Expired(now uint64) []ExpiredWait {
	if b.retryTimeout == 0 {
		return nil
	}
	out := b.expired[:0]
	for i := range b.entries {
		e := &b.entries[i]
		if e.hasData || e.deadline > now {
			continue
		}
		out = append(out, ExpiredWait{Line: e.line, Retries: e.retries})
		e.retries++
		back := b.retryTimeout << uint(e.retries)
		if back > b.retryCap || back < b.retryTimeout { // cap, and guard shift overflow
			back = b.retryCap
		}
		e.deadline = now + back
	}
	b.expired = out
	return out
}

// NextDeadline returns the earliest waiting-entry deadline, or NoDeadline
// when the retry path is disarmed or nothing waits. The cycle-skipping
// scheduler caps its jumps here so timeouts fire at the exact cycle the
// polled loop would fire them.
func (b *BSHR) NextDeadline() uint64 {
	if b.retryTimeout == 0 {
		return NoDeadline
	}
	next := uint64(NoDeadline)
	for i := range b.entries {
		e := &b.entries[i]
		if !e.hasData && e.deadline < next {
			next = e.deadline
		}
	}
	return next
}

// NoDeadline is returned by NextDeadline when no timeout is pending.
const NoDeadline = ^uint64(0)

// RearmAll resets every waiting entry's retry count and deadline to
// now+timeout. Called when ownership is remapped after a node death so
// stalled waits re-request their (new) owner promptly instead of sitting
// out the remainder of a long backoff.
func (b *BSHR) RearmAll(now uint64) {
	if b.retryTimeout == 0 {
		return
	}
	for i := range b.entries {
		if e := &b.entries[i]; !e.hasData {
			e.retries = 0
			e.deadline = now + b.retryTimeout
		}
	}
}

// TakeWaiting removes the earliest waiting entry for line and returns its
// tokens (nil when none waits). The recovery path uses it to complete
// stalled loads locally once this node has become the line's owner; the
// returned slice is valid until the next Arrive or TakeWaiting call.
func (b *BSHR) TakeWaiting(line uint64) []ooo.LoadToken {
	i := b.find(line, false)
	if i < 0 {
		return nil
	}
	toks := b.entries[i].waiting
	b.released = append(b.released[:0], toks...)
	b.tokFree = append(b.tokFree, toks)
	b.remove(i)
	return b.released
}

// WaitDetail describes one waiting entry for deadlock diagnostics.
type WaitDetail struct {
	Line     uint64
	Waiters  int
	Retries  int
	Deadline uint64
}

// WaitingDetail returns every waiting entry's line, waiter count, and
// retry state (diagnostics; allocates, called only on error paths).
func (b *BSHR) WaitingDetail() []WaitDetail {
	var out []WaitDetail
	for i := range b.entries {
		e := &b.entries[i]
		if e.hasData {
			continue
		}
		out = append(out, WaitDetail{Line: e.line, Waiters: len(e.waiting), Retries: e.retries, Deadline: e.deadline})
	}
	return out
}

// WaitingLines returns the lines with waiting entries (diagnostics).
func (b *BSHR) WaitingLines() []uint64 {
	var out []uint64
	for i := range b.entries {
		if !b.entries[i].hasData {
			out = append(out, b.entries[i].line)
		}
	}
	return out
}

// BufferedLines returns the lines with buffered data (diagnostics).
func (b *BSHR) BufferedLines() []uint64 {
	var out []uint64
	for i := range b.entries {
		if b.entries[i].hasData {
			out = append(out, b.entries[i].line)
		}
	}
	return out
}

// Waiting returns the number of waiting entries (for watchdog
// diagnostics).
func (b *BSHR) Waiting() int { return b.numWaiting() }

// Buffered returns the number of buffered (early-data) entries (for
// occupancy sampling).
func (b *BSHR) Buffered() int { return b.numBuffered() }

func (b *BSHR) find(line uint64, buffered bool) int {
	best := -1
	for i := range b.entries {
		e := &b.entries[i]
		if e.line != line || e.hasData != buffered {
			continue
		}
		if best < 0 || e.seq < b.entries[best].seq {
			best = i
		}
	}
	return best
}

func (b *BSHR) remove(i int) {
	b.entries = append(b.entries[:i], b.entries[i+1:]...)
}

func (b *BSHR) numWaiting() int {
	n := 0
	for i := range b.entries {
		if !b.entries[i].hasData {
			n++
		}
	}
	return n
}

func (b *BSHR) numBuffered() int {
	n := 0
	for i := range b.entries {
		if b.entries[i].hasData {
			n++
		}
	}
	return n
}
