package trace

import (
	"github.com/wisc-arch/datascalar/internal/cache"
	"github.com/wisc-arch/datascalar/internal/mem"
	"github.com/wisc-arch/datascalar/internal/stats"
)

// DatathreadAnalyzer reproduces the paper's Table 2 approximation of
// datathread lengths: the stream of cache misses is walked in order,
// counting consecutive references local to one node. A thread begins at
// the first reference to a communicated datum owned by some node and ends
// (restarting the count) at the next reference to communicated data owned
// by a *different* node. References to replicated pages extend the
// current thread — high replicated-reference counts lengthen threads —
// and are additionally tracked as their own run statistic (the table's
// right-most column).
//
// Four means are reported, as in Table 2: over all misses, over
// instruction misses only, over data misses only, and the mean contiguous
// run length of replicated-page references.
type DatathreadAnalyzer struct {
	pt *mem.PageTable

	all, text, data threadTracker
	replRuns        replTracker
}

// threadTracker counts one class's thread lengths.
type threadTracker struct {
	owner   int // current thread's node, -1 before the first communicated ref
	length  uint64
	started bool
	threads stats.Mean
}

func (t *threadTracker) observe(owner int, replicated bool) {
	if replicated {
		if t.started {
			t.length++
		}
		return
	}
	if !t.started {
		t.owner, t.length, t.started = owner, 1, true
		return
	}
	if owner == t.owner {
		t.length++
		return
	}
	t.threads.Observe(float64(t.length))
	t.owner, t.length = owner, 1
}

func (t *threadTracker) flush() {
	if t.started && t.length > 0 {
		t.threads.Observe(float64(t.length))
		t.length = 0
		t.started = false
	}
}

// replTracker counts contiguous runs of replicated-page references.
type replTracker struct {
	length uint64
	runs   stats.Mean
}

func (t *replTracker) observe(replicated bool) {
	if replicated {
		t.length++
		return
	}
	if t.length > 0 {
		t.runs.Observe(float64(t.length))
		t.length = 0
	}
}

func (t *replTracker) flush() {
	if t.length > 0 {
		t.runs.Observe(float64(t.length))
		t.length = 0
	}
}

// NewDatathreadAnalyzer builds an analyzer over the given partition.
func NewDatathreadAnalyzer(pt *mem.PageTable) *DatathreadAnalyzer {
	return &DatathreadAnalyzer{pt: pt}
}

// Observe feeds one cache miss (post-filter reference).
func (a *DatathreadAnalyzer) Observe(addr uint64, instr bool) {
	e := a.pt.MustLookup(addr)
	repl := e.Kind == mem.Replicated
	a.all.observe(e.Owner, repl)
	if instr {
		a.text.observe(e.Owner, repl)
	} else {
		a.data.observe(e.Owner, repl)
	}
	a.replRuns.observe(repl)
}

// DatathreadResult holds Table 2's four mean columns.
type DatathreadResult struct {
	AllMean  float64 // datathread length over all misses
	TextMean float64 // instruction misses only
	DataMean float64 // data misses only
	ReplMean float64 // contiguous replicated-reference run length
	Threads  uint64  // completed threads over all misses
}

// Finish flushes in-progress runs and returns the means.
func (a *DatathreadAnalyzer) Finish() DatathreadResult {
	a.all.flush()
	a.text.flush()
	a.data.flush()
	a.replRuns.flush()
	return DatathreadResult{
		AllMean:  a.all.threads.Value(),
		TextMean: a.text.threads.Value(),
		DataMean: a.data.threads.Value(),
		ReplMean: a.replRuns.runs.Value(),
		Threads:  a.all.threads.Count(),
	}
}

// MissFilter pushes a reference stream through split L1 instruction and
// data caches and forwards only the misses, the stream both Table 2 and
// the miss-level locality studies operate on.
type MissFilter struct {
	icache *cache.Cache
	dcache *cache.Cache
}

// DefaultMissFilter returns the paper's split 16 KB caches (two-way for
// the Table 1/2 studies).
func DefaultMissFilter() *MissFilter {
	mk := func(name string) cache.Config {
		return cache.Config{
			Name:      name,
			SizeBytes: 16 * 1024,
			LineBytes: 32,
			Assoc:     2,
			Write:     cache.WriteBack,
			Alloc:     cache.WriteAllocate,
		}
	}
	return &MissFilter{icache: cache.New(mk("il1")), dcache: cache.New(mk("dl1"))}
}

// Observe feeds one reference; it reports whether the reference missed
// (and thus reaches main memory).
func (f *MissFilter) Observe(r Ref) bool {
	if r.Instr {
		return !f.icache.Access(r.Addr, false).Hit
	}
	return !f.dcache.Access(r.Addr, r.Store).Hit
}
