// Package cache implements the set-associative cache model used by every
// machine in this repository: the traffic analyses of Table 1 (16 KB 2-way
// write-back write-allocate), the timing runs of Figures 7-8 (16 KB
// direct-mapped write-back write-no-allocate, the policy the paper argues
// is superior under ESP), and the traditional baselines.
//
// The model is a tag store only: data contents live in the functional
// emulator. Timing models drive the tag store explicitly — in DataScalar
// nodes the tags are updated at *commit* time (via the Commit Update
// Buffer in internal/core), so this package exposes both a conventional
// Access operation and the lower-level Probe/Fill/Touch primitives that
// commit-time update needs.
package cache

import (
	"fmt"
	"math/bits"

	"github.com/wisc-arch/datascalar/internal/obs"
	"github.com/wisc-arch/datascalar/internal/stats"
)

// WritePolicy selects how stores propagate below this cache.
type WritePolicy uint8

const (
	// WriteBack holds dirty lines and emits a writeback on eviction.
	WriteBack WritePolicy = iota
	// WriteThrough propagates every store immediately and never holds
	// dirty lines.
	WriteThrough
)

// String names the policy.
func (w WritePolicy) String() string {
	if w == WriteThrough {
		return "write-through"
	}
	return "write-back"
}

// AllocPolicy selects whether store misses allocate a line.
type AllocPolicy uint8

const (
	// WriteAllocate fetches the line on a store miss.
	WriteAllocate AllocPolicy = iota
	// WriteNoAllocate sends the store below without allocating. The paper
	// argues this is the right policy under ESP: with write-allocate a
	// write miss forces an inter-processor message only to overwrite the
	// data just received.
	WriteNoAllocate
)

// String names the policy.
func (a AllocPolicy) String() string {
	if a == WriteNoAllocate {
		return "write-no-allocate"
	}
	return "write-allocate"
}

// Config describes one cache.
type Config struct {
	Name      string
	SizeBytes int
	LineBytes int
	Assoc     int // 1 = direct-mapped
	Write     WritePolicy
	Alloc     AllocPolicy
}

// Validate checks structural soundness.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0:
		return fmt.Errorf("cache %s: non-positive geometry %+v", c.Name, c)
	case bits.OnesCount(uint(c.SizeBytes)) != 1:
		return fmt.Errorf("cache %s: size %d not a power of two", c.Name, c.SizeBytes)
	case bits.OnesCount(uint(c.LineBytes)) != 1:
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	case c.SizeBytes%(c.LineBytes*c.Assoc) != 0:
		return fmt.Errorf("cache %s: size %d not divisible by line*assoc", c.Name, c.SizeBytes)
	}
	return nil
}

// NumSets returns the number of sets implied by the geometry.
func (c Config) NumSets() int { return c.SizeBytes / (c.LineBytes * c.Assoc) }

// Stats counts cache events.
type Stats struct {
	LoadHits    stats.Counter
	LoadMisses  stats.Counter
	StoreHits   stats.Counter
	StoreMisses stats.Counter
	Writebacks  stats.Counter
	Fills       stats.Counter
}

// Accesses returns the total access count.
func (s *Stats) Accesses() uint64 {
	return s.LoadHits.Value() + s.LoadMisses.Value() + s.StoreHits.Value() + s.StoreMisses.Value()
}

// Misses returns the total miss count.
func (s *Stats) Misses() uint64 {
	return s.LoadMisses.Value() + s.StoreMisses.Value()
}

type way struct {
	valid bool
	dirty bool
	tag   uint64
	// lru is a per-cache monotonically increasing timestamp; the way with
	// the smallest value in a set is the LRU victim.
	lru uint64
}

// Cache is one level of tag store.
type Cache struct {
	cfg     Config
	sets    [][]way
	tick    uint64
	lineLg2 uint
	setMask uint64
	stats   Stats
	// order is StateDigest's per-set recency sort buffer: one entry per
	// way, as every set has Assoc ways.
	order []int

	// Observability (nil obs = disabled, zero cost): the owning machine
	// attributes events to a node and supplies its cycle clock.
	obs      obs.Observer
	obsNode  int
	obsClock *uint64
}

// SetObserver attaches an observer emitting fill/writeback/invalidate
// events attributed to node, timestamped through clock (a pointer to the
// owning machine's cycle counter; the cache itself has no notion of
// time). A nil observer detaches.
func (c *Cache) SetObserver(o obs.Observer, node int, clock *uint64) {
	c.obs, c.obsNode, c.obsClock = o, node, clock
}

// obsEvent emits one event when an observer is attached.
func (c *Cache) obsEvent(kind obs.EventKind, addr, arg uint64) {
	if c.obs == nil {
		return
	}
	var cycle uint64
	if c.obsClock != nil {
		cycle = *c.obsClock
	}
	c.obs.Event(obs.Event{Cycle: cycle, Node: c.obsNode, Kind: kind, Addr: addr, Arg: arg})
}

// New builds a cache. It panics on invalid geometry, since geometry is
// always chosen by experiment configuration code.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.NumSets()
	sets := make([][]way, n)
	backing := make([]way, n*cfg.Assoc)
	for i := range sets {
		sets[i] = backing[i*cfg.Assoc : (i+1)*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	return &Cache{
		cfg:     cfg,
		sets:    sets,
		lineLg2: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask: uint64(n - 1),
		order:   make([]int, cfg.Assoc),
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the cache's counters.
func (c *Cache) Stats() *Stats { return &c.stats }

// LineAddr returns the line-aligned base of addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.LineBytes) - 1)
}

func (c *Cache) setIndex(addr uint64) uint64 {
	return (addr >> c.lineLg2) & c.setMask
}

func (c *Cache) tagOf(addr uint64) uint64 {
	return addr >> c.lineLg2
}

// Result describes the consequences of one cache operation.
type Result struct {
	Hit bool
	// Writeback is set when the operation evicted a dirty line;
	// WritebackAddr is its line address.
	Writeback     bool
	WritebackAddr uint64
	// Evicted is set when any valid line was displaced (dirty or not).
	Evicted     bool
	EvictedAddr uint64
	// Allocated is set when the operation installed a new line.
	Allocated bool
}

// Access performs a conventional lookup-and-update for a load or store:
// hits refresh LRU (and set dirty for write-back stores); misses allocate
// per the policies. This is what the traffic analyses and the traditional
// machine use; DataScalar commit-time updates use Probe/Fill/Touch.
func (c *Cache) Access(addr uint64, store bool) Result {
	set := c.sets[c.setIndex(addr)]
	tag := c.tagOf(addr)
	c.tick++
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.tick
			if store {
				c.stats.StoreHits.Inc()
				if c.cfg.Write == WriteBack {
					set[i].dirty = true
				}
			} else {
				c.stats.LoadHits.Inc()
			}
			return Result{Hit: true}
		}
	}
	// Miss.
	if store {
		c.stats.StoreMisses.Inc()
		if c.cfg.Alloc == WriteNoAllocate {
			return Result{}
		}
	} else {
		c.stats.LoadMisses.Inc()
	}
	res := c.fillLocked(addr, store && c.cfg.Write == WriteBack)
	res.Hit = false
	return res
}

// Probe reports whether addr hits, without updating any state.
func (c *Cache) Probe(addr uint64) bool {
	set := c.sets[c.setIndex(addr)]
	tag := c.tagOf(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Touch refreshes the LRU position of addr's line (and optionally marks it
// dirty) if present, reporting whether it was present. DataScalar nodes
// call this at commit time for hits.
func (c *Cache) Touch(addr uint64, markDirty bool) bool {
	set := c.sets[c.setIndex(addr)]
	tag := c.tagOf(addr)
	c.tick++
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.tick
			if markDirty && c.cfg.Write == WriteBack {
				set[i].dirty = true
			}
			return true
		}
	}
	return false
}

// Fill installs addr's line, evicting the LRU way if the set is full, and
// returns eviction consequences. If the line is already present it is
// refreshed instead (no duplicate lines are ever created).
func (c *Cache) Fill(addr uint64, dirty bool) Result {
	if c.Touch(addr, dirty) {
		return Result{Hit: true}
	}
	return c.fillLocked(addr, dirty)
}

func (c *Cache) fillLocked(addr uint64, dirty bool) Result {
	set := c.sets[c.setIndex(addr)]
	tag := c.tagOf(addr)
	c.tick++
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	var res Result
	if set[victim].valid {
		res.Evicted = true
		res.EvictedAddr = set[victim].tag << c.lineLg2
		if set[victim].dirty {
			res.Writeback = true
			res.WritebackAddr = res.EvictedAddr
			c.stats.Writebacks.Inc()
			c.obsEvent(obs.EvCacheWriteback, res.WritebackAddr, 0)
		}
	}
	set[victim] = way{valid: true, dirty: dirty, tag: tag, lru: c.tick}
	res.Allocated = true
	c.stats.Fills.Inc()
	c.obsEvent(obs.EvCacheFill, c.LineAddr(addr), 0)
	return res
}

// FlushDirty returns the line addresses of all dirty lines and cleans
// them. Machines call this at end of run to account for final writebacks.
func (c *Cache) FlushDirty() []uint64 {
	var out []uint64
	for _, set := range c.sets {
		for i := range set {
			if set[i].valid && set[i].dirty {
				out = append(out, set[i].tag<<c.lineLg2)
				set[i].dirty = false
				c.stats.Writebacks.Inc()
			}
		}
	}
	return out
}

// Contents returns the set of resident line addresses (for tests).
func (c *Cache) Contents() map[uint64]bool {
	out := make(map[uint64]bool)
	for _, set := range c.sets {
		for i := range set {
			if set[i].valid {
				out[set[i].tag<<c.lineLg2] = true
			}
		}
	}
	return out
}

// StateDigest returns a digest of the full replacement-relevant state:
// per set, the resident tags with validity, dirtiness, and recency
// *ordering* (not absolute tick values, which differ across nodes that
// performed different numbers of probes). Two caches with equal digests
// make identical future replacement decisions — the cache-correspondence
// invariant DataScalar nodes must maintain at commit points.
//
// The digest is FNV-1a 64 over little-endian 64-bit words, computed
// inline over a sort buffer the cache owns, so a call allocates nothing.
//
//dsvet:hotpath
func (c *Cache) StateDigest() uint64 {
	h := uint64(fnvOffset64)
	order := c.order
	for si, set := range c.sets {
		h = fnvWord(h, uint64(si))
		// Sort way indices by recency (oldest first) via selection; assoc
		// is tiny so O(a^2) is fine.
		for i := range order {
			order[i] = i
		}
		for i := range order {
			minI := i
			for j := i + 1; j < len(order); j++ {
				if set[order[j]].lru < set[order[minI]].lru {
					minI = j
				}
			}
			order[i], order[minI] = order[minI], order[i]
		}
		for _, wi := range order {
			w := &set[wi]
			if !w.valid {
				h = fnvWord(h, 0)
				continue
			}
			h = fnvWord(h, 1)
			h = fnvWord(h, w.tag)
			if w.dirty {
				h = fnvWord(h, 1)
			} else {
				h = fnvWord(h, 0)
			}
		}
	}
	return h
}

// FNV-1a 64-bit parameters (the hash/fnv New64a constants).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvWord folds v's eight bytes, least significant first, into FNV-1a
// state h.
func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}
