package trace

import (
	"testing"

	"github.com/wisc-arch/datascalar/internal/asm"
	"github.com/wisc-arch/datascalar/internal/cache"
	"github.com/wisc-arch/datascalar/internal/isa"
	"github.com/wisc-arch/datascalar/internal/mem"
	"github.com/wisc-arch/datascalar/internal/prog"
)

const tinyLoop = `
        .data
arr:    .space 65536          # 8 pages
        .text
        la   r1, arr
        li   r2, 8192
loop:   ld   r3, 0(r1)
        sd   r3, 0(r1)
        addi r1, r1, 8
        addi r2, r2, -1
        bne  r2, zero, loop
        halt
`

func assembleT(t *testing.T, src string) *prog.Program {
	t.Helper()
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// collectRefs runs the whole of p into a slice, for small traces.
func collectRefs(p *prog.Program, includeInstr bool) ([]Ref, error) {
	var out []Ref
	err := ForEachRefFrom(p, 0, 0, includeInstr, func(r Ref) error {
		out = append(out, r)
		return nil
	})
	return out, err
}

func TestForEachRefOrderAndContent(t *testing.T) {
	p := assembleT(t, `
        .data
x:      .word 1
        .text
        la   r1, x
        ld   r2, 0(r1)
        sd   r2, 8(r1)
        halt
`)
	refs, err := collectRefs(p, true)
	if err != nil {
		t.Fatal(err)
	}
	// 4 instructions + 1 load + 1 store = 6 refs.
	if len(refs) != 6 {
		t.Fatalf("refs = %d, want 6", len(refs))
	}
	if !refs[0].Instr || refs[0].Addr != prog.TextBase {
		t.Fatalf("first ref = %+v", refs[0])
	}
	// Stream: fetch0, fetch1, load, fetch2, store, fetch3.
	if refs[2].Instr || refs[2].Store || refs[2].Addr != p.Labels["x"] {
		t.Fatalf("load ref = %+v", refs[2])
	}
	if !refs[4].Store || refs[4].Addr != p.Labels["x"]+8 {
		t.Fatalf("store ref = %+v", refs[4])
	}
	if refs[2].Size != isa.OpLD.MemBytes() {
		t.Fatalf("load size = %d", refs[2].Size)
	}
}

func TestForEachRefDataOnly(t *testing.T) {
	p := assembleT(t, "\t.data\nx: .word 1\n\t.text\n\tla r1, x\n\tld r2, 0(r1)\n\thalt\n")
	refs, err := collectRefs(p, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 1 || refs[0].Instr {
		t.Fatalf("refs = %+v", refs)
	}
}

func TestForEachRefLimit(t *testing.T) {
	p := assembleT(t, tinyLoop)
	n := 0
	if err := ForEachRefFrom(p, 0, 100, true, func(Ref) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n == 0 || n > 300 {
		t.Fatalf("limited walk produced %d refs", n)
	}
}

func TestTrafficAnalyzerAccounting(t *testing.T) {
	cfg := TrafficConfig{L1: cache.Config{
		Name: "t", SizeBytes: 256, LineBytes: 32, Assoc: 1,
		Write: cache.WriteBack, Alloc: cache.WriteAllocate,
	}}
	a := NewTrafficAnalyzer(cfg)

	// One clean miss: conventional = 8 + 40; ESP = 40; transactions 2 vs 1.
	if err := a.Observe(Ref{Addr: 0, Size: 8}); err != nil {
		t.Fatal(err)
	}
	// Dirty it, then evict with a conflicting miss: adds writeback 40B.
	if err := a.Observe(Ref{Addr: 8, Size: 8, Store: true}); err != nil {
		t.Fatal(err)
	}
	if err := a.Observe(Ref{Addr: 256, Size: 8}); err != nil {
		t.Fatal(err)
	}
	res := a.Finish()
	if res.Misses != 2 {
		t.Fatalf("misses = %d", res.Misses)
	}
	if res.Writebacks != 1 {
		t.Fatalf("writebacks = %d", res.Writebacks)
	}
	wantConv := uint64(48 + 48 + 40) // two miss round-trips + one writeback
	if res.ConventionalBytes != wantConv {
		t.Fatalf("conventional bytes = %d, want %d", res.ConventionalBytes, wantConv)
	}
	if res.ESPBytes != 80 {
		t.Fatalf("esp bytes = %d, want 80", res.ESPBytes)
	}
	if res.ConventionalTransactions != 5 || res.ESPTransactions != 2 {
		t.Fatalf("transactions = %d vs %d", res.ConventionalTransactions, res.ESPTransactions)
	}
	if res.TrafficEliminated() <= 0 || res.TransactionsEliminated() < 0.5 {
		t.Fatalf("eliminated: %.2f bytes, %.2f transactions",
			res.TrafficEliminated(), res.TransactionsEliminated())
	}
}

func TestTrafficFinishFlushesDirty(t *testing.T) {
	a := NewTrafficAnalyzer(DefaultTrafficConfig())
	a.Observe(Ref{Addr: 0, Size: 8, Store: true})
	res := a.Finish()
	if res.Writebacks != 1 {
		t.Fatalf("end-of-run writeback missing: %+v", res)
	}
}

func TestTrafficTransactionsAtLeastHalfOnRealKernel(t *testing.T) {
	p := assembleT(t, tinyLoop)
	a := NewTrafficAnalyzer(DefaultTrafficConfig())
	if err := ForEachRefFrom(p, 0, 0, false, a.Observe); err != nil {
		t.Fatal(err)
	}
	res := a.Finish()
	if res.Misses == 0 {
		t.Fatal("kernel produced no misses")
	}
	if got := res.TransactionsEliminated(); got < 0.5 {
		t.Fatalf("transactions eliminated = %.2f, want >= 0.5 (no requests under ESP)", got)
	}
	// The store sweep dirties every line, so byte elimination should be
	// substantial (upper Table 1 range).
	if got := res.TrafficEliminated(); got < 0.3 {
		t.Fatalf("traffic eliminated = %.2f, want >= 0.3 on a dirty sweep", got)
	}
}

func TestTrafficRejectsBadRef(t *testing.T) {
	a := NewTrafficAnalyzer(DefaultTrafficConfig())
	if err := a.Observe(Ref{Addr: 0, Size: 0}); err == nil {
		t.Fatal("zero-size ref accepted")
	}
}

func buildPT(t *testing.T, nodes int, repl map[uint64]bool) *mem.PageTable {
	t.Helper()
	pt := mem.NewPageTable(nodes)
	for pg := uint64(0); pg < 16; pg++ {
		if repl[pg] {
			pt.SetReplicated(pg)
		} else {
			pt.SetOwner(pg, int(pg)%nodes)
		}
	}
	return pt
}

func TestDatathreadBasicRuns(t *testing.T) {
	pt := buildPT(t, 2, nil) // pages 0,2,4.. node0; 1,3,5.. node1
	a := NewDatathreadAnalyzer(pt)
	page := uint64(prog.PageSize)
	// 3 refs on node0's page 0, then 2 on node1's page 1, then 1 on page 2.
	seq := []uint64{0, 8, 16, page, page + 8, 2 * page}
	for _, addr := range seq {
		a.Observe(addr, false)
	}
	r := a.Finish()
	// Threads: 3, 2, 1 -> mean 2.
	if r.AllMean != 2 {
		t.Fatalf("all mean = %v, want 2", r.AllMean)
	}
	if r.Threads != 3 {
		t.Fatalf("threads = %d", r.Threads)
	}
	if r.DataMean != 2 {
		t.Fatalf("data mean = %v", r.DataMean)
	}
	if r.TextMean != 0 {
		t.Fatalf("text mean = %v (no instruction refs)", r.TextMean)
	}
}

func TestDatathreadReplicatedExtends(t *testing.T) {
	repl := map[uint64]bool{1: true}
	pt := buildPT(t, 2, repl)
	a := NewDatathreadAnalyzer(pt)
	page := uint64(prog.PageSize)
	// node0 ref, replicated ref (extends), node0 ref, then node1 ref.
	for _, addr := range []uint64{0, page, 8, 3 * page} {
		a.Observe(addr, false)
	}
	r := a.Finish()
	// Threads: [0, page, 8] = length 3, then [3*page] = 1 -> mean 2.
	if r.AllMean != 2 {
		t.Fatalf("all mean = %v, want 2 (replicated must extend)", r.AllMean)
	}
	if r.ReplMean != 1 {
		t.Fatalf("replicated run mean = %v, want 1", r.ReplMean)
	}
}

func TestDatathreadLeadingReplicatedIgnored(t *testing.T) {
	repl := map[uint64]bool{0: true}
	pt := buildPT(t, 2, repl)
	a := NewDatathreadAnalyzer(pt)
	// Replicated refs before any communicated ref don't start a thread.
	a.Observe(0, false)
	a.Observe(8, false)
	a.Observe(uint64(prog.PageSize), false) // node1
	r := a.Finish()
	if r.AllMean != 1 || r.Threads != 1 {
		t.Fatalf("result = %+v", r)
	}
	if r.ReplMean != 2 {
		t.Fatalf("repl run mean = %v, want 2", r.ReplMean)
	}
}

func TestDatathreadSeparatesTextData(t *testing.T) {
	pt := buildPT(t, 2, nil)
	a := NewDatathreadAnalyzer(pt)
	page := uint64(prog.PageSize)
	a.Observe(0, true)       // text ref on node0
	a.Observe(8, true)       // text ref on node0
	a.Observe(page, false)   // data ref on node1
	a.Observe(page+8, false) // data ref on node1
	a.Observe(0, true)       // text on node0 again
	r := a.Finish()
	// The text sub-stream sees 0, 8, 0 — all node0 — so one thread of 3.
	if r.TextMean != 3 {
		t.Fatalf("text mean = %v", r.TextMean)
	}
	if r.DataMean != 2 {
		t.Fatalf("data mean = %v", r.DataMean)
	}
	// Combined stream: 2 (text) + 2 (data) + 1 (text) -> mean 5/3.
	if r.AllMean < 1.6 || r.AllMean > 1.7 {
		t.Fatalf("all mean = %v", r.AllMean)
	}
}

func TestMissFilterSeparatesStreams(t *testing.T) {
	f := DefaultMissFilter()
	// First touch misses in both caches independently.
	if !f.Observe(Ref{Addr: 0x1000, Size: 8, Instr: true}) {
		t.Fatal("cold instruction fetch hit")
	}
	if !f.Observe(Ref{Addr: 0x1000, Size: 8}) {
		t.Fatal("cold data access hit (shared with icache?)")
	}
	if f.Observe(Ref{Addr: 0x1000, Size: 8, Instr: true}) {
		t.Fatal("warm fetch missed")
	}
	if f.Observe(Ref{Addr: 0x1008, Size: 8}) {
		t.Fatal("same-line data access missed")
	}
}

func TestEndToEndDatathreads(t *testing.T) {
	// Real kernel through cache filter into the analyzer: a sequential
	// sweep over 8 pages distributed round-robin across 4 nodes in
	// 1-page blocks gives data threads of about one page of misses
	// (8192/32 = 256 misses per page).
	p := assembleT(t, tinyLoop)
	pt, err := mem.Partition{NumNodes: 4, BlockPages: 1, ReplicateText: true}.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	filter := DefaultMissFilter()
	an := NewDatathreadAnalyzer(pt)
	err = ForEachRefFrom(p, 0, 0, true, func(r Ref) error {
		if filter.Observe(r) {
			an.Observe(r.Addr, r.Instr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res := an.Finish()
	if res.DataMean < 200 || res.DataMean > 300 {
		t.Fatalf("sequential sweep data datathread mean = %.1f, want ~256", res.DataMean)
	}
}

func TestProfilePages(t *testing.T) {
	p := assembleT(t, tinyLoop)
	pr := mem.NewProfiler()
	if err := ProfilePagesFrom(p, 0, 0, pr.Observe); err != nil {
		t.Fatal(err)
	}
	order := pr.PagesByHeat()
	if len(order) == 0 {
		t.Fatal("no pages profiled")
	}
	// The hottest page must be the text page (every instruction fetch).
	if prog.SegmentOf(order[0]*prog.PageSize) != prog.SegText {
		t.Fatalf("hottest page is %v, want text", prog.SegmentOf(order[0]*prog.PageSize))
	}
}
