package cache

import (
	"testing"
	"testing/quick"
)

func smallDM() *Cache {
	return New(Config{Name: "l1", SizeBytes: 256, LineBytes: 32, Assoc: 1})
}

func small2Way() *Cache {
	return New(Config{Name: "l1", SizeBytes: 256, LineBytes: 32, Assoc: 2})
}

func TestConfigValidate(t *testing.T) {
	good := Config{Name: "c", SizeBytes: 16384, LineBytes: 32, Assoc: 2}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	if good.NumSets() != 256 {
		t.Fatalf("NumSets = %d, want 256", good.NumSets())
	}
	bad := []Config{
		{SizeBytes: 0, LineBytes: 32, Assoc: 1},
		{SizeBytes: 100, LineBytes: 32, Assoc: 1},   // size not pow2
		{SizeBytes: 1024, LineBytes: 24, Assoc: 1},  // line not pow2
		{SizeBytes: 1024, LineBytes: 32, Assoc: 0},  // assoc 0
		{SizeBytes: 1024, LineBytes: 32, Assoc: 33}, // not divisible
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestPolicyStrings(t *testing.T) {
	if WriteBack.String() != "write-back" || WriteThrough.String() != "write-through" {
		t.Error("write policy names")
	}
	if WriteAllocate.String() != "write-allocate" || WriteNoAllocate.String() != "write-no-allocate" {
		t.Error("alloc policy names")
	}
}

func TestBasicHitMiss(t *testing.T) {
	c := smallDM()
	if r := c.Access(0x1000, false); r.Hit {
		t.Fatal("cold access hit")
	}
	if r := c.Access(0x1000, false); !r.Hit {
		t.Fatal("second access missed")
	}
	if r := c.Access(0x1010, false); !r.Hit {
		t.Fatal("same-line access missed")
	}
	s := c.Stats()
	if s.LoadHits.Value() != 2 || s.LoadMisses.Value() != 1 {
		t.Fatalf("stats: hits=%d misses=%d", s.LoadHits.Value(), s.LoadMisses.Value())
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := smallDM() // 8 sets of 32B
	c.Access(0x0000, false)
	c.Access(0x0100, false) // same set (256 apart), evicts
	if r := c.Access(0x0000, false); r.Hit {
		t.Fatal("conflicting line survived in direct-mapped cache")
	}
}

func TestTwoWayLRU(t *testing.T) {
	c := small2Way() // 4 sets of 2 ways, 32B lines; set stride = 128
	a, b, d := uint64(0x0000), uint64(0x0080), uint64(0x0100)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a most recent
	r := c.Access(d, false)
	if !r.Evicted || r.EvictedAddr != b {
		t.Fatalf("evicted %+v, want b=0x%x", r, b)
	}
	if !c.Probe(a) || c.Probe(b) || !c.Probe(d) {
		t.Fatal("LRU victim selection wrong")
	}
}

func TestWriteBackDirtyEviction(t *testing.T) {
	c := smallDM()
	c.Access(0x0000, true) // store miss, allocate dirty (write-allocate default)
	r := c.Access(0x0100, false)
	if !r.Writeback || r.WritebackAddr != 0x0000 {
		t.Fatalf("no writeback on dirty eviction: %+v", r)
	}
	if c.Stats().Writebacks.Value() != 1 {
		t.Fatal("writeback not counted")
	}
}

func TestWriteThroughNeverDirty(t *testing.T) {
	c := New(Config{Name: "wt", SizeBytes: 256, LineBytes: 32, Assoc: 1, Write: WriteThrough})
	c.Access(0x0000, true)
	r := c.Access(0x0100, false)
	if r.Writeback {
		t.Fatal("write-through cache produced a writeback")
	}
}

func TestWriteNoAllocate(t *testing.T) {
	c := New(Config{Name: "wna", SizeBytes: 256, LineBytes: 32, Assoc: 1, Alloc: WriteNoAllocate})
	r := c.Access(0x0000, true)
	if r.Hit || r.Allocated {
		t.Fatalf("store miss allocated under no-allocate: %+v", r)
	}
	if c.Probe(0x0000) {
		t.Fatal("line resident after no-allocate store miss")
	}
	// Store hit still works and dirties.
	c.Access(0x0040, false)
	c.Access(0x0040, true)
	if c.Stats().StoreHits.Value() != 1 {
		t.Fatal("store hit not counted")
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	c := small2Way()
	a, b, d := uint64(0x0000), uint64(0x0080), uint64(0x0100)
	c.Access(a, false)
	c.Access(b, false)
	for i := 0; i < 10; i++ {
		c.Probe(a) // must not refresh LRU
	}
	r := c.Access(d, false)
	if r.EvictedAddr != a {
		t.Fatalf("probe perturbed LRU: evicted 0x%x, want a", r.EvictedAddr)
	}
	if got := c.Stats().Accesses(); got != 3 {
		t.Fatalf("probes counted as accesses: %d", got)
	}
}

func TestTouchAndFill(t *testing.T) {
	c := small2Way()
	if c.Touch(0x0000, false) {
		t.Fatal("touch hit on empty cache")
	}
	r := c.Fill(0x0000, false)
	if r.Hit || !r.Allocated {
		t.Fatalf("fill = %+v", r)
	}
	if !c.Touch(0x0000, true) {
		t.Fatal("touch missed after fill")
	}
	// Fill of resident line must not duplicate.
	r = c.Fill(0x0000, false)
	if !r.Hit {
		t.Fatal("refill of resident line allocated a duplicate")
	}
	// Dirty via touch causes writeback on eviction.
	c.Fill(0x0080, false)
	r = c.Fill(0x0100, false) // evicts LRU = 0x0000 (dirty via Touch)
	if !r.Writeback || r.WritebackAddr != 0 {
		t.Fatalf("expected writeback of 0x0: %+v", r)
	}
}

func TestFlushDirty(t *testing.T) {
	c := small2Way()
	c.Access(0x0000, true)
	c.Access(0x0080, false)
	c.Access(0x0010, true) // same line as 0x0000
	lines := c.FlushDirty()
	if len(lines) != 1 || lines[0] != 0 {
		t.Fatalf("FlushDirty = %v", lines)
	}
	if len(c.FlushDirty()) != 0 {
		t.Fatal("second flush found dirty lines")
	}
}

func TestContents(t *testing.T) {
	c := smallDM()
	c.Access(0x0000, false)
	c.Access(0x0040, false)
	got := c.Contents()
	if len(got) != 2 || !got[0x0000] || !got[0x0040] {
		t.Fatalf("Contents = %v", got)
	}
}

func TestStateDigestCorrespondence(t *testing.T) {
	mk := func() *Cache { return small2Way() }
	a, b := mk(), mk()
	seq := []struct {
		addr  uint64
		store bool
	}{
		{0x0000, false}, {0x0080, true}, {0x0100, false}, {0x0000, false}, {0x0180, true},
	}
	for _, s := range seq {
		a.Access(s.addr, s.store)
		b.Access(s.addr, s.store)
	}
	if a.StateDigest() != b.StateDigest() {
		t.Fatal("identical access sequences produced different digests")
	}
	// Probes must not change the digest (issue-time lookups at different
	// nodes differ; only commit-time updates may affect state).
	d := a.StateDigest()
	a.Probe(0x0000)
	a.Probe(0x4000)
	if a.StateDigest() != d {
		t.Fatal("probe changed state digest")
	}
	// A divergent access must change it.
	a.Access(0x0200, false)
	if a.StateDigest() == b.StateDigest() {
		t.Fatal("divergent caches share a digest")
	}
}

func TestStateDigestRecencyOrdering(t *testing.T) {
	// Same resident lines, different recency order -> different digest,
	// because future evictions differ.
	a, b := small2Way(), small2Way()
	a.Access(0x0000, false)
	a.Access(0x0080, false)
	b.Access(0x0080, false)
	b.Access(0x0000, false)
	if a.StateDigest() == b.StateDigest() {
		t.Fatal("digest ignores recency ordering")
	}
}

// Property: after any access sequence, the number of resident lines never
// exceeds capacity, and a fill of X makes Probe(X) true.
func TestCacheInvariantsQuick(t *testing.T) {
	f := func(addrs []uint16, stores []bool) bool {
		c := New(Config{Name: "q", SizeBytes: 512, LineBytes: 32, Assoc: 2, Alloc: WriteAllocate})
		maxLines := 512 / 32
		for i, a := range addrs {
			store := i < len(stores) && stores[i]
			c.Access(uint64(a), store)
			if !store && !c.Probe(uint64(a)) {
				return false // load must leave its line resident
			}
			if len(c.Contents()) > maxLines {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: replaying the same sequence on two caches keeps digests equal
// at every step (determinism).
func TestCacheDeterminismQuick(t *testing.T) {
	f := func(addrs []uint16) bool {
		a := New(Config{Name: "a", SizeBytes: 256, LineBytes: 16, Assoc: 4})
		b := New(Config{Name: "b", SizeBytes: 256, LineBytes: 16, Assoc: 4})
		for _, x := range addrs {
			a.Access(uint64(x), x%3 == 0)
			b.Access(uint64(x), x%3 == 0)
			if a.StateDigest() != b.StateDigest() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLineAddr(t *testing.T) {
	c := smallDM()
	if c.LineAddr(0x1234) != 0x1220 {
		t.Fatalf("LineAddr = 0x%x", c.LineAddr(0x1234))
	}
}

// digestFixture drives a fixed fill/touch/dirty sequence through a
// 4-way cache: evictions, recency reorderings, dirty and clean ways, and
// empty ways in untouched sets all reach the digest.
func digestFixture() *Cache {
	c := New(Config{Name: "d", SizeBytes: 1024, LineBytes: 32, Assoc: 4, Alloc: WriteAllocate})
	for i := uint64(0); i < 6; i++ {
		c.Fill(i*0x100, i%2 == 1)
	}
	c.Touch(0x0200, true)
	c.Touch(0x0300, false)
	c.Access(0x0520, true)
	c.Access(0x0040, false)
	c.Fill(0x0600, false)
	return c
}

// TestStateDigestPinned pins the digest of digestFixture: nodes compare
// digests with each other and CorrespondenceReport prints them, so the
// hash (FNV-1a 64 over the little-endian words of each set) must never
// change value.
func TestStateDigestPinned(t *testing.T) {
	const want = uint64(0x900b0afa5b7b6d5e)
	if got := digestFixture().StateDigest(); got != want {
		t.Fatalf("StateDigest = %#x, want %#x", got, want)
	}
}

// TestStateDigestZeroAllocs guards the correspondence sampler: every
// node digests its L1 every DigestInterval committed memory operations.
func TestStateDigestZeroAllocs(t *testing.T) {
	c := digestFixture()
	if n := testing.AllocsPerRun(100, func() { c.StateDigest() }); n != 0 {
		t.Fatalf("StateDigest allocates %.1f times per call", n)
	}
}
