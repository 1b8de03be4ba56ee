// Package mem implements the memory-system substrate: the page table that
// records each page as replicated or communicated (with an owner node),
// the partitioning policies that distribute a program's footprint across
// DataScalar nodes, the page-access profiler used to pick replicated
// pages, and the on-chip DRAM bank timing model.
//
// The paper's terminology (Section 2): the address space is divided into a
// *replicated* part mapped into every node's local memory, and a
// *communicated* part distributed among the nodes, each page owned by
// exactly one node. Ownership lives in page-table entries, as in the
// paper's simulated implementation (one replicated bit plus one ownership
// bit per entry).
package mem

import (
	"fmt"
	"sort"

	"github.com/wisc-arch/datascalar/internal/prog"
)

// PageKind distinguishes replicated from communicated pages.
type PageKind uint8

const (
	// Replicated pages are present in every node's local memory; accesses
	// always complete locally and are never broadcast.
	Replicated PageKind = iota
	// Communicated pages are owned by exactly one node; the owner
	// broadcasts loads and completes stores.
	Communicated
)

// String names the kind.
func (k PageKind) String() string {
	if k == Replicated {
		return "replicated"
	}
	return "communicated"
}

// Entry is one page-table entry.
type Entry struct {
	Kind  PageKind
	Owner int // owning node for communicated pages; -1 for replicated
}

// Owns reports whether node holds the page in its local memory: every
// node holds a replicated page, only its owner a communicated one.
func (e Entry) Owns(node int) bool { return e.Kind == Replicated || e.Owner == node }

// PageTable maps page numbers to entries. All nodes share one page table
// (they would be identical by construction in hardware).
type PageTable struct {
	entries  map[uint64]Entry
	numNodes int
}

// NewPageTable creates an empty table for a system of numNodes nodes.
func NewPageTable(numNodes int) *PageTable {
	if numNodes <= 0 {
		panic("mem: page table needs at least one node")
	}
	return &PageTable{entries: make(map[uint64]Entry), numNodes: numNodes}
}

// NumNodes returns the node count the table was built for.
func (pt *PageTable) NumNodes() int { return pt.numNodes }

// SetReplicated marks page pg replicated.
func (pt *PageTable) SetReplicated(pg uint64) {
	pt.entries[pg] = Entry{Kind: Replicated, Owner: -1}
}

// SetOwner marks page pg communicated and owned by node.
func (pt *PageTable) SetOwner(pg uint64, node int) {
	if node < 0 || node >= pt.numNodes {
		panic(fmt.Sprintf("mem: owner %d out of range [0,%d)", node, pt.numNodes))
	}
	pt.entries[pg] = Entry{Kind: Communicated, Owner: node}
}

// Lookup returns the entry for the page containing addr.
func (pt *PageTable) Lookup(addr uint64) (Entry, bool) {
	e, ok := pt.entries[prog.PageOf(addr)]
	return e, ok
}

// MustLookup is Lookup for addresses the caller knows are mapped; it
// panics on unmapped pages, which indicates a harness bug (the footprint
// declared by the program did not cover an address it touched). Paths a
// guest program drives use Lookup and UnmappedError instead.
func (pt *PageTable) MustLookup(addr uint64) Entry {
	e, ok := pt.Lookup(addr)
	if !ok {
		panic(fmt.Sprintf("mem: unmapped address 0x%x (page %d)", addr, prog.PageOf(addr)))
	}
	return e
}

// UnmappedError is the error a machine returns when the guest program's
// access (op: "load", "store", ...) of addr falls outside every mapped
// page. The program is user input, so this ends the run with an error
// rather than a panic.
func UnmappedError(op string, addr uint64) error {
	return fmt.Errorf("%s at unmapped address 0x%x (page %d)", op, addr, prog.PageOf(addr))
}

// IsReplicated reports whether addr lies in a replicated page.
func (pt *PageTable) IsReplicated(addr uint64) bool {
	return pt.MustLookup(addr).Kind == Replicated
}

// OwnerOf returns the owner of addr's page, or -1 if replicated.
func (pt *PageTable) OwnerOf(addr uint64) int {
	return pt.MustLookup(addr).Owner
}

// Owns reports whether node owns addr: true for replicated pages (every
// node holds them) and for communicated pages owned by node. This is the
// predicate that decides whether a load completes locally.
func (pt *PageTable) Owns(addr uint64, node int) bool {
	return pt.MustLookup(addr).Owns(node)
}

// Clone returns a deep copy of the table. The fault layer clones the
// (otherwise shared, read-only) table before a run that may remap
// ownership, so recovery never mutates state other machines see.
func (pt *PageTable) Clone() *PageTable {
	out := NewPageTable(pt.numNodes)
	for pg, e := range pt.entries {
		out.entries[pg] = e
	}
	return out
}

// ReassignOwner transfers every communicated page owned by from to node
// to, returning the number of pages moved. This is the degraded-mode
// recovery step after a permanent node failure: the successor's backing
// copy serves the dead node's share from then on.
func (pt *PageTable) ReassignOwner(from, to int) int {
	if to < 0 || to >= pt.numNodes {
		panic(fmt.Sprintf("mem: successor %d out of range [0,%d)", to, pt.numNodes))
	}
	n := 0
	for pg, e := range pt.entries {
		if e.Kind == Communicated && e.Owner == from {
			e.Owner = to
			pt.entries[pg] = e
			n++
		}
	}
	return n
}

// OwnedPages returns the communicated pages owned by node, ascending.
// The deterministic order is what makes per-page remap and warm-fill
// decisions reproducible across runs and worker counts.
func (pt *PageTable) OwnedPages(node int) []uint64 {
	var out []uint64
	for pg, e := range pt.entries {
		if e.Kind == Communicated && e.Owner == node {
			out = append(out, pg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Pages returns all mapped page numbers, ascending.
func (pt *PageTable) Pages() []uint64 {
	out := make([]uint64, 0, len(pt.entries))
	for pg := range pt.entries {
		out = append(out, pg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CountByKind returns (replicated, communicated) page counts.
func (pt *PageTable) CountByKind() (replicated, communicated int) {
	for _, e := range pt.entries {
		if e.Kind == Replicated {
			replicated++
		} else {
			communicated++
		}
	}
	return
}

// NodeBytes returns the local-memory footprint in bytes each node must
// provide: all replicated pages plus that node's share of communicated
// pages. Used for the paper's capacity framing (each node holds 1/N of
// the data set plus replicated pages).
func (pt *PageTable) NodeBytes(node int) uint64 {
	var pages uint64
	for _, e := range pt.entries {
		if e.Kind == Replicated || e.Owner == node {
			pages++
		}
	}
	return pages * prog.PageSize
}

// Partition describes how to split a program's footprint across nodes.
type Partition struct {
	// NumNodes is the node count (>= 1).
	NumNodes int
	// BlockPages is the round-robin distribution granularity in pages
	// (the paper's "distribution block size"; Table 2 sweeps 2..many).
	BlockPages int
	// ReplicateText maps every text page at every node (the paper's
	// timing runs replicate all program text).
	ReplicateText bool
	// ReplicatedPages are additional pages to replicate (chosen by
	// profiling for the Table 2 experiments).
	ReplicatedPages map[uint64]bool
}

// Build constructs the page table for program p under this partition:
// replicated pages as requested, all remaining pages dealt round-robin in
// blocks of BlockPages to nodes 0..NumNodes-1 in ascending page order.
func (pa Partition) Build(p *prog.Program) (*PageTable, error) {
	if pa.NumNodes <= 0 {
		return nil, fmt.Errorf("mem: partition needs >= 1 node")
	}
	block := pa.BlockPages
	if block <= 0 {
		block = 1
	}
	pt := NewPageTable(pa.NumNodes)
	node, inBlock := 0, 0
	for _, pg := range p.Pages() {
		addr := pg * prog.PageSize
		if (pa.ReplicateText && prog.SegmentOf(addr) == prog.SegText) || pa.ReplicatedPages[pg] {
			pt.SetReplicated(pg)
			continue
		}
		pt.SetOwner(pg, node)
		inBlock++
		if inBlock == block {
			inBlock = 0
			node = (node + 1) % pa.NumNodes
		}
	}
	return pt, nil
}

// Profiler counts accesses per page; the replication selector uses it to
// pick the most heavily accessed pages, the paper's Table 2 methodology
// ("running the benchmark, saving the number of accesses to each page,
// sorting the pages by number of accesses, and choosing the most heavily
// accessed pages").
type Profiler struct {
	counts map[uint64]uint64
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{counts: make(map[uint64]uint64)}
}

// Observe records one access to addr.
func (pr *Profiler) Observe(addr uint64) {
	pr.counts[prog.PageOf(addr)]++
}

// Count returns the access count for page pg.
func (pr *Profiler) Count(pg uint64) uint64 { return pr.counts[pg] }

// PagesByHeat returns all observed pages sorted by descending access
// count, ties broken by ascending page number for determinism.
func (pr *Profiler) PagesByHeat() []uint64 {
	out := make([]uint64, 0, len(pr.counts))
	for pg := range pr.counts {
		out = append(out, pg)
	}
	sort.Slice(out, func(i, j int) bool {
		ci, cj := pr.counts[out[i]], pr.counts[out[j]]
		if ci != cj {
			return ci > cj
		}
		return out[i] < out[j]
	})
	return out
}

// SelectReplicated picks up to budget of the hottest pages, but never so
// many from one segment that the segment would be wholly replicated when
// limit is respected: the paper caps the distribution so that neither the
// text nor the largest data segment is completely contained at one
// processor. maxPerSeg limits per-segment picks (0 means no limit).
func (pr *Profiler) SelectReplicated(budget int, maxPerSeg map[prog.Segment]int) map[uint64]bool {
	out := make(map[uint64]bool, budget)
	perSeg := make(map[prog.Segment]int)
	for _, pg := range pr.PagesByHeat() {
		if len(out) >= budget {
			break
		}
		seg := prog.SegmentOf(pg * prog.PageSize)
		if maxPerSeg != nil {
			if lim, ok := maxPerSeg[seg]; ok && perSeg[seg] >= lim {
				continue
			}
		}
		out[pg] = true
		perSeg[seg]++
	}
	return out
}

// SegmentCounts returns, per segment, how many of the given pages fall in
// it (used to report Table 2's replicated-page breakdown).
func SegmentCounts(pages map[uint64]bool) map[prog.Segment]int {
	out := make(map[prog.Segment]int)
	for pg := range pages {
		out[prog.SegmentOf(pg*prog.PageSize)]++
	}
	return out
}
