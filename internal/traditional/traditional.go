// Package traditional implements the baseline the paper compares against
// (Figure 6a): one CPU chip holding 1/N of the program's memory on-chip,
// with the remaining (N-1)/N in dumb memory chips across the same global
// bus. Off-chip operands cost a request/response round trip plus
// network-interface penalties; dirty victims and store misses to off-chip
// lines generate write traffic — exactly the traffic classes ESP
// eliminates.
//
// For fairness the baseline shares everything else with the DataScalar
// machine: the same out-of-order core, the same L1 geometry with tags
// updated at commit, the same on-chip DRAM timing, and the same bus.
package traditional

import (
	"errors"
	"fmt"

	"github.com/wisc-arch/datascalar/internal/bus"
	"github.com/wisc-arch/datascalar/internal/cache"
	"github.com/wisc-arch/datascalar/internal/emu"
	"github.com/wisc-arch/datascalar/internal/mem"
	"github.com/wisc-arch/datascalar/internal/obs"
	"github.com/wisc-arch/datascalar/internal/ooo"
	"github.com/wisc-arch/datascalar/internal/prog"
	"github.com/wisc-arch/datascalar/internal/stats"
)

// cpuChip is bus node 0; memory chips are nodes 1..N-1.
const cpuChip = 0

// Config parameterizes the traditional machine.
type Config struct {
	// Chips is the total chip count: 1 CPU chip plus Chips-1 memory
	// chips. A 4-chip machine holds 1/4 of memory on-chip, matching the
	// paper's "traditional (1/4 on-chip)" configuration.
	Chips int
	Core  ooo.Config
	L1    cache.Config
	DRAM  mem.DRAMConfig // used for both on-chip memory and memory chips
	// Topology selects and parameterizes the interconnect (bus, ring,
	// mesh, or torus), mirroring core.Config.Topology so interconnect
	// comparisons stay apples-to-apples with the DataScalar machine.
	Topology bus.Topology

	// L1HitCycles is the load-to-use latency of an L1 hit.
	L1HitCycles uint64
	// NICycles is the network-interface penalty paid on each chip
	// boundary crossing (the paper charges two cycles at the interface
	// between the local and global buses).
	NICycles uint64

	MaxInstr       uint64
	WatchdogCycles uint64
	// FastForwardPC functionally executes the emulator up to this PC
	// before timing begins (0 = none); see core.Config.FastForwardPC.
	FastForwardPC uint64

	// Observer receives cache and interconnect events (fills,
	// writebacks, bus grants/deliveries); nil disables observation at
	// zero cost, and enabling it never perturbs timing. The baseline has
	// no ESP protocol, so it emits no broadcast/BSHR events and no
	// interval samples.
	Observer obs.Observer
}

// DefaultConfig returns the baseline matching core.DefaultConfig(n): same
// core, L1, memory timing, and bus, with 1/n of memory on-chip.
func DefaultConfig(chips int) Config {
	return Config{
		Chips: chips,
		Core:  ooo.DefaultConfig(),
		L1: cache.Config{
			Name:      "dl1",
			SizeBytes: 16 * 1024,
			LineBytes: 32,
			Assoc:     1,
			Write:     cache.WriteBack,
			Alloc:     cache.WriteNoAllocate,
		},
		DRAM:        mem.DefaultDRAM(),
		Topology:    bus.DefaultTopology(),
		L1HitCycles: 1,
		NICycles:    2,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Chips <= 0 {
		return fmt.Errorf("traditional: need at least one chip")
	}
	if err := c.Core.Validate(); err != nil {
		return err
	}
	if err := c.L1.Validate(); err != nil {
		return err
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	if c.L1HitCycles == 0 {
		return fmt.Errorf("traditional: L1 hit latency must be positive")
	}
	return nil
}

// Stats counts baseline memory-system events.
type Stats struct {
	IssueHits     stats.Counter
	IssueMisses   stats.Counter
	MergedMisses  stats.Counter
	OnChipMisses  stats.Counter // served by on-chip memory
	OffChipLoads  stats.Counter // request/response round trips
	Requests      stats.Counter // read requests sent
	WritebacksOn  stats.Counter // dirty victims written on-chip
	WritebacksOff stats.Counter // dirty victims sent over the bus
	StoresOn      stats.Counter // store misses completed on-chip
	StoresOff     stats.Counter // store misses sent over the bus
	Fills         stats.Counter
}

// Result summarizes one run.
type Result struct {
	Cycles       uint64
	Instructions uint64
	IPC          float64
	Mem          Stats
	Core         ooo.Stats
	// CPIStack attributes every cycle of the run to exactly one stall
	// bucket; its Total always equals Cycles (see internal/obs). The
	// baseline has no ESP protocol, so esp.serialization stays zero;
	// on-chip DRAM misses charge bshr.local-miss and off-chip round
	// trips charge bshr.remote-owner, making the stack directly
	// comparable against the DataScalar machines' stacks.
	CPIStack obs.CPIStack
	BusStats bus.Stats
}

// missEntry mirrors the DataScalar DCUB entry (see internal/core): it is
// reference-counted by attached in-flight loads and freed when the last
// one commits, so a response can never arrive after its waiters' entry
// was deleted by an earlier commit-time fill.
type missEntry struct {
	line    uint64
	refs    int
	pending bool
	local   bool // served by on-chip memory (cycle attribution)
	dataAt  uint64
	waiting []ooo.LoadToken
}

// Machine is the traditional baseline system.
type Machine struct {
	cfg Config
	pt  *mem.PageTable
	net bus.Network

	emu  *emu.Machine
	core *ooo.Core
	l1   *cache.Cache
	// dram[0] is the on-chip memory; dram[i] is memory chip i.
	dram []*mem.DRAM

	outstanding map[uint64]*missEntry
	// attached records which in-flight loads hold a reference on their
	// line's missEntry.
	attached map[ooo.LoadToken]bool
	now      uint64
	stats    Stats
	// unmapped is the first guest access outside the page table
	// (sticky). Run returns it after the cycle that made it.
	unmapped error
}

var (
	_ ooo.MemPort        = (*Machine)(nil)
	_ ooo.LoadClassifier = (*Machine)(nil)
	_ ooo.Clocked        = (*Machine)(nil)
)

// NewMachine builds the baseline executing program p with memory placed
// by pt: pages owned by chip 0 are on-chip; pages owned by chips 1..N-1
// live in that memory chip. Replicated pages are treated as on-chip.
func NewMachine(cfg Config, p *prog.Program, pt *mem.PageTable) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if pt.NumNodes() != cfg.Chips {
		return nil, fmt.Errorf("traditional: page table built for %d chips, machine has %d",
			pt.NumNodes(), cfg.Chips)
	}
	em, err := emu.NewAt(p, cfg.FastForwardPC)
	if err != nil {
		return nil, fmt.Errorf("traditional: %w", err)
	}
	m := &Machine{
		cfg:         cfg,
		pt:          pt,
		net:         newNet(cfg),
		emu:         em,
		l1:          cache.New(cfg.L1),
		outstanding: make(map[uint64]*missEntry),
		attached:    make(map[ooo.LoadToken]bool),
	}
	if cfg.Observer != nil {
		m.l1.SetObserver(cfg.Observer, cpuChip, &m.now)
		m.net.SetObserver(cfg.Observer)
	}
	for i := 0; i < cfg.Chips; i++ {
		m.dram = append(m.dram, mem.NewDRAM(cfg.DRAM))
	}
	m.core = ooo.New(cfg.Core, ooo.NewEmuSource(em, cfg.MaxInstr), m)
	return m, nil
}

// Emu returns the functional emulator (for result checks).
func (m *Machine) Emu() *emu.Machine { return m.emu }

// Network returns the interconnect (for stats inspection).
func (m *Machine) Network() bus.Network { return m.net }

func newNet(cfg Config) bus.Network {
	return cfg.Topology.Build(cfg.Chips)
}

// homeChip returns the chip holding addr's page. The first access (op)
// outside the page table is kept for Run to return after this cycle;
// until then the access is served on-chip.
func (m *Machine) homeChip(op string, addr uint64) int {
	e, ok := m.pt.Lookup(addr)
	if !ok {
		if m.unmapped == nil {
			m.unmapped = mem.UnmappedError(op, addr)
		}
		return cpuChip
	}
	if e.Kind == mem.Replicated {
		return cpuChip
	}
	return e.Owner
}

// IssueLoad implements ooo.MemPort.
func (m *Machine) IssueLoad(now uint64, tok ooo.LoadToken, addr uint64, size int) (uint64, bool) {
	line := m.l1.LineAddr(addr)
	if e, ok := m.outstanding[line]; ok {
		m.stats.IssueMisses.Inc()
		m.stats.MergedMisses.Inc()
		e.refs++
		m.attached[tok] = true
		if e.pending {
			e.waiting = append(e.waiting, tok)
			return 0, true
		}
		return maxU64(now+1, e.dataAt), false
	}
	if m.l1.Probe(addr) {
		m.stats.IssueHits.Inc()
		return now + m.cfg.L1HitCycles, false
	}
	m.stats.IssueMisses.Inc()

	e := &missEntry{line: line, refs: 1}
	m.outstanding[line] = e
	m.attached[tok] = true

	home := m.homeChip("load", addr)
	if home == cpuChip {
		m.stats.OnChipMisses.Inc()
		e.local = true
		e.dataAt = m.dram[cpuChip].Access(now+m.cfg.L1HitCycles, line)
		return e.dataAt, false
	}

	// Off-chip: request crosses the NI, the bus carries it to the memory
	// chip, the response carries the line back.
	m.stats.OffChipLoads.Inc()
	m.stats.Requests.Inc()
	e.pending = true
	e.waiting = append(e.waiting, tok)
	m.net.Enqueue(bus.Message{
		Kind:    bus.Request,
		Src:     cpuChip,
		Dst:     home,
		Addr:    line,
		ReadyAt: now + m.cfg.L1HitCycles + m.cfg.NICycles,
	})
	return 0, true
}

// CommitLoad implements ooo.MemPort: commit-time tag update. The baseline
// needs no correspondence repair (there are no peers), but shares the
// commit-time update discipline for fairness, as the paper's comparison
// does.
func (m *Machine) CommitLoad(now uint64, tok ooo.LoadToken, addr uint64, size int) {
	line := m.l1.LineAddr(addr)
	if m.l1.Probe(addr) {
		m.l1.Touch(addr, false)
		m.release(tok, line)
		return
	}
	res := m.l1.Fill(addr, false)
	m.stats.Fills.Inc()
	if res.Writeback {
		m.disposeWriteback(now, res.WritebackAddr)
	}
	m.release(tok, line)
}

// release drops the committing load's reference on its line's missEntry,
// freeing the entry when the last attached load commits.
func (m *Machine) release(tok ooo.LoadToken, line uint64) {
	if !m.attached[tok] {
		return
	}
	delete(m.attached, tok)
	if e, ok := m.outstanding[line]; ok {
		e.refs--
		if e.refs <= 0 {
			delete(m.outstanding, line)
		}
	}
}

// ClassifyLoad implements ooo.LoadClassifier: it names the stall bucket
// charged while the oldest instruction in the window is an in-flight
// load. The answer is a pure function of frozen machine state plus the
// interconnect's phase query, both of which are constant over any
// stretch the cycle skipper can jump, so attribution is bit-identical
// with and without skipping.
func (m *Machine) ClassifyLoad(now uint64, tok ooo.LoadToken, addr uint64) obs.StallKind {
	e, ok := m.outstanding[m.l1.LineAddr(addr)]
	if !ok {
		// L1 hit still in its load-to-use latency.
		return obs.StallExec
	}
	if !e.pending {
		// Latency is known: an on-chip DRAM access, or an off-chip line
		// that already arrived and is crossing the network interface.
		if e.local {
			return obs.StallMemLocal
		}
		return obs.StallMemRemote
	}
	// Round trip in progress. Waiting behind unrelated traffic is
	// contention; everything else (request/response in flight, memory
	// chip's DRAM access) is the intrinsic remote-access cost.
	if m.net.DataPhase(e.line, cpuChip, now) == bus.PhaseBlocked {
		return obs.StallNetContention
	}
	return obs.StallMemRemote
}

// CommitStore implements ooo.MemPort.
func (m *Machine) CommitStore(now uint64, addr uint64, size int) {
	if m.l1.Touch(addr, true) {
		return
	}
	// Write-no-allocate: the store goes to its home memory.
	home := m.homeChip("store", addr)
	if home == cpuChip {
		m.stats.StoresOn.Inc()
		m.dram[cpuChip].Access(now, m.l1.LineAddr(addr))
		return
	}
	m.stats.StoresOff.Inc()
	m.net.Enqueue(bus.Message{
		Kind:         bus.Request, // write: carries payload, expects no reply
		Src:          cpuChip,
		Dst:          home,
		Addr:         addr,
		PayloadBytes: size,
		ReadyAt:      now + m.cfg.NICycles,
	})
}

func (m *Machine) disposeWriteback(now uint64, lineAddr uint64) {
	home := m.homeChip("writeback", lineAddr)
	if home == cpuChip {
		m.stats.WritebacksOn.Inc()
		m.dram[cpuChip].Access(now, lineAddr)
		return
	}
	m.stats.WritebacksOff.Inc()
	m.net.Enqueue(bus.Message{
		Kind:         bus.Request,
		Src:          cpuChip,
		Dst:          home,
		Addr:         lineAddr,
		PayloadBytes: m.cfg.L1.LineBytes,
		ReadyAt:      now + m.cfg.NICycles,
	})
}

// deliver routes one interconnect arrival at cycle now. On a bus every
// delivery is at the message's destination; on a ring the message also
// passes intermediate nodes for point-to-point kinds, which Network
// suppresses, so arrivals here are always at the destination.
func (m *Machine) deliver(arr bus.Arrival, now uint64) {
	msg := arr.Msg
	if arr.Node != msg.Dst && msg.Kind != bus.Broadcast {
		return
	}
	if o := m.cfg.Observer; o != nil {
		o.Event(obs.Event{
			Cycle: now, Node: arr.Node, Kind: obs.EvBusDeliver,
			Addr: msg.Addr, Arg: uint64(msg.Kind),
		})
	}
	switch msg.Kind {
	case bus.Request:
		if msg.Dst == cpuChip {
			return // never happens: CPU sends requests, chips never do
		}
		if msg.PayloadBytes > 0 {
			// Write or writeback: absorb into the memory chip.
			m.dram[msg.Dst].Access(now, msg.Addr)
			return
		}
		// Read request: access the chip's DRAM and send the line back.
		dataAt := m.dram[msg.Dst].Access(now, msg.Addr)
		m.net.Enqueue(bus.Message{
			Kind:         bus.Response,
			Src:          msg.Dst,
			Dst:          cpuChip,
			Addr:         msg.Addr,
			PayloadBytes: m.cfg.L1.LineBytes,
			ReadyAt:      dataAt,
		})
	case bus.Response:
		// Line arrives at the CPU chip: complete waiting loads.
		e, ok := m.outstanding[msg.Addr]
		if !ok || !e.pending {
			return
		}
		e.pending = false
		e.dataAt = now + m.cfg.NICycles
		for _, tok := range e.waiting {
			m.core.CompleteLoad(tok, e.dataAt)
		}
		e.waiting = nil
	}
}

// Step implements ooo.Clocked: one machine cycle — interconnect
// deliveries first, so they are visible to the core at the same cycle,
// then the core.
func (m *Machine) Step(now uint64) (committed uint64, done bool, err error) {
	m.now = now
	if m.core.Done() {
		return 0, true, nil
	}
	for _, arr := range m.net.Tick(now) {
		m.deliver(arr, now)
	}
	m.core.Cycle(now)
	if err := m.core.Err(); err != nil {
		return 0, false, err
	}
	if m.unmapped != nil {
		return 0, false, fmt.Errorf("traditional: chip %d: %w", cpuChip, m.unmapped)
	}
	return m.core.Committed(), false, nil
}

// NextEvent implements ooo.Clocked: the earlier of the core's next event
// and the interconnect's next delivery.
func (m *Machine) NextEvent(now uint64) uint64 {
	return min(m.core.NextEvent(now), m.net.NextDeliveryCycle(now-1))
}

// Skip implements ooo.Clocked: the core replays its stall counters; the
// interconnect's Ticks before its next delivery are no-ops.
func (m *Machine) Skip(now, to uint64) { m.core.Skip(now, to) }

// Run executes the program to completion.
func (m *Machine) Run() (Result, error) {
	cycles, err := ooo.Drive(m, m.now, m.cfg.Core.NoCycleSkip, m.cfg.WatchdogCycles)
	if errors.Is(err, ooo.ErrNoProgress) {
		return Result{}, fmt.Errorf("traditional: no commit progress at cycle %d (committed %d, pending bus %d)",
			cycles, m.core.Committed(), m.net.Pending())
	}
	if err != nil {
		return Result{}, err
	}
	r := Result{
		Cycles:       cycles,
		Instructions: m.core.Committed(),
		Mem:          m.stats,
		Core:         *m.core.Stats(),
		CPIStack:     *m.core.CPIStack(),
		BusStats:     *m.net.NetStats(),
	}
	if r.Cycles > 0 {
		r.IPC = float64(r.Instructions) / float64(r.Cycles)
	}
	return r, nil
}

// RunPerfect runs program p on the same core with the paper's perfect
// data cache (single-cycle access to any operand), optionally
// fast-forwarded to ffPC first, and returns its result.
func RunPerfect(coreCfg ooo.Config, p *prog.Program, maxInstr, ffPC uint64) (Result, error) {
	if err := coreCfg.Validate(); err != nil {
		return Result{}, fmt.Errorf("traditional: %w", err)
	}
	em, err := emu.NewAt(p, ffPC)
	if err != nil {
		return Result{}, fmt.Errorf("traditional: %w", err)
	}
	c := ooo.New(coreCfg, ooo.NewEmuSource(em, maxInstr), ooo.PerfectMem{})
	cycles, err := ooo.Drive(c, 0, coreCfg.NoCycleSkip, 0)
	if err != nil {
		return Result{}, err
	}
	r := Result{Cycles: cycles, Instructions: c.Committed(), Core: *c.Stats(), CPIStack: *c.CPIStack()}
	if cycles > 0 {
		r.IPC = float64(r.Instructions) / float64(cycles)
	}
	return r, nil
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
