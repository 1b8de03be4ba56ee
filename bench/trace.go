package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"github.com/wisc-arch/datascalar/internal/bus"
	"github.com/wisc-arch/datascalar/internal/obs"
	"github.com/wisc-arch/datascalar/internal/sim"
)

// layerMetrics are the per-layer metrics of a traced run. Layers are the
// simulator's packages; Target names the end-to-end metric and workloads
// each should move, and where it should stay flat.
var layerMetrics = []metricDef{
	{Name: "emu.step_ns", Unit: "ns", Better: "lower", Target: "sim_cycles_per_s on fig7 and mesh"},
	{Name: "emu.ff_ns_per_instr", Unit: "ns", Better: "lower", Target: "setup_s on sweep8"},
	{Name: "emu.clone_us", Unit: "us", Better: "lower", Target: "setup_s and peak_rss_mb on mesh"},
	{Name: "ooo.cycle_ns", Unit: "ns", Better: "lower", Target: "sim_cycles_per_s on fig7 and sweep8; mesh nearly flat"},
	{Name: "ooo.skip_frac", Unit: "ratio", Better: "higher", Target: "sim_cycles_per_s on fig7; mesh nearly flat"},
	{Name: "cache.access_ns", Unit: "ns", Better: "lower", Target: "sim_cycles_per_s on fig7 (trad and perfect ops)"},
	{Name: "cache.miss_ratio", Unit: "ratio", Better: "lower", Target: "sim_cycles_per_s on fig7 (simulated; moves only with the model)"},
	{Name: "mem.dram_access_ns", Unit: "ns", Better: "lower", Target: "sim_cycles_per_s on fig7 (trad and perfect ops)"},
	{Name: "mem.partition_us", Unit: "us", Better: "lower", Target: "setup_s on sweep8 and mesh"},
	{Name: "core.newmachine_ms", Unit: "ms", Better: "lower", Target: "setup_s on sweep8, mesh and faults"},
	{Name: "core.run_ns_per_node_cycle", Unit: "ns", Better: "lower", Target: "sim_cycles_per_s on all five workloads"},
	{Name: "core.bshr_request_ns", Unit: "ns", Better: "lower", Target: "sim_cycles_per_s on fig7 and faults"},
	{Name: "core.bshr_arrive_ns", Unit: "ns", Better: "lower", Target: "sim_cycles_per_s on fig7 and faults"},
	{Name: "core.buffered_hit_ratio", Unit: "ratio", Better: "higher", Target: "sim_cycles_per_s on fig7 and mesh (datathreading's useful share)"},
	{Name: "core.par_speedup", Unit: "x", Better: "higher", Target: "ROADMAP item 2: the parallel engine on two cores (mesh-par2 wall_s carries its one-core cost)"},
	{Name: "bus.tick_ns", Unit: "ns", Better: "lower", Target: "sim_cycles_per_s on mesh; fig7 flat"},
	{Name: "bus.dataphase_ns", Unit: "ns", Better: "lower", Target: "sim_cycles_per_s on mesh; fig7 flat"},
	{Name: "bus.enqueue_ns", Unit: "ns", Better: "lower", Target: "sim_cycles_per_s on mesh; fig7 flat"},
	{Name: "bus.busy_frac", Unit: "ratio", Better: "lower", Target: "sim_cycles_per_s on mesh (simulated; moves only with the model)"},
	{Name: "bus.arb_wait_ratio", Unit: "ratio", Better: "lower", Target: "sim_cycles_per_s on mesh (simulated; moves only with the model)"},
	{Name: "traditional.run_ns_per_cycle", Unit: "ns", Better: "lower", Target: "sim_cycles_per_s on fig7 and sweep8; DS-only mesh flat"},
	{Name: "traditional.allocs_per_kcycle", Unit: "allocs/kcycle", Better: "lower", Target: "allocs_per_kcycle on fig7 and sweep8; DS-only mesh flat"},
	{Name: "fault.host_overhead", Unit: "x", Better: "lower", Target: "wall_s on faults only"},
	{Name: "fault.retries", Unit: "count", Better: "lower", Target: "wall_s on faults only"},
	{Name: "fault.warm_fill_msgs", Unit: "count", Better: "lower", Target: "wall_s on faults only"},
	{Name: "fault.remapped_pages", Unit: "count", Better: "lower", Target: "wall_s on faults only"},
	{Name: "emu.cpu_share", Unit: "ratio", Better: "lower", Target: "sim_cycles_per_s and setup_s on every workload"},
	{Name: "ooo.cpu_share", Unit: "ratio", Better: "lower", Target: "sim_cycles_per_s on fig7 and sweep8"},
	{Name: "cache.cpu_share", Unit: "ratio", Better: "lower", Target: "sim_cycles_per_s on fig7"},
	{Name: "core.cpu_share", Unit: "ratio", Better: "lower", Target: "sim_cycles_per_s on every workload"},
	{Name: "bus.cpu_share", Unit: "ratio", Better: "lower", Target: "sim_cycles_per_s on mesh; fig7 flat"},
	{Name: "traditional.cpu_share", Unit: "ratio", Better: "lower", Target: "sim_cycles_per_s on fig7 and sweep8"},
	{Name: "fault.cpu_share", Unit: "ratio", Better: "lower", Target: "wall_s on faults only"},
	{Name: "runtime.cpu_share", Unit: "ratio", Better: "lower", Target: "alloc_mb and allocs_per_kcycle on every workload"},
	{Name: "trace.overhead", Unit: "x", Better: "lower", Target: "none: the cost of tracing itself"},
}

// traceRun measures a workload layer by layer. It runs one untraced pass
// (the reference wall time and the set-up/run split), one traced pass
// (CPU profile, recording observer, spans) and then the layer probes,
// which call each layer's public functions in isolation on what the
// traced pass recorded. Spans go to spansPath as a Chrome trace.
func traceRun(w workloadDef, seed uint64, golden map[string]string, spansPath string) (runRecord, error) {
	ops := w.Ops(seed, fullBudgets)
	v := newVerifier(golden)
	rec := runRecord{Workload: w.Name, Seed: seed, Traced: true, Host: host(), Passes: 2, Metrics: map[string]stat{}}
	plain := runPass(ops, nil, v)
	rec.addFailures(plain)

	spans := &spanLog{}
	root := spans.begin(w.Name, 0)
	rep := repOp(ops)
	rc := newRecorder(rep, ops[rep].Nodes)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return rec, err
	}
	traced := runPass(ops, rc.observerFor, v)
	pprof.StopCPUProfile()
	rec.addFailures(traced)
	passSpan := spans.add("traced pass", root, traced.Start, traced.Wall)
	for i, o := range ops {
		r := traced.Runs[i]
		id := spans.add(o.Name, passSpan, r.Start, r.RunStart.Add(r.Run).Sub(r.Start))
		spans.add("setup", id, r.Start, r.setup())
		spans.add("run", id, r.RunStart, r.Run)
	}

	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return rec, err
	}
	m := map[string]float64{"trace.overhead": traced.Wall.Seconds() / plain.Wall.Seconds()}
	for _, layer := range []string{"emu", "ooo", "cache", "core", "bus", "traditional", "fault", "runtime"} {
		m[layer+".cpu_share"] = shares[layer]
	}
	dsTotalsOf(ops, plain, func(op) bool { return true }).metrics(m)

	probes := spans.begin("layer probes", root)
	k, err := kernelProbes(m, spans, probes, ops)
	if err == nil {
		bshrProbe(m, spans, probes, rc.bshr)
		err = busProbe(m, spans, probes, ops[rep], rc.sends)
	}
	if err == nil {
		err = tradProbe(m, spans, probes, ops)
	}
	if err == nil {
		err = repProbes(m, spans, probes, ops[rep], seed)
	}
	spans.end(probes)
	spans.end(root)
	if err != nil {
		rec.Attempted++
		rec.Failed++
		rec.Failures = append(rec.Failures, "layer probes: "+err.Error())
	}

	for _, d := range layerMetrics {
		rec.Metrics[d.Name] = stat{Value: m[d.Name], Unit: d.Unit, Min: m[d.Name], Max: m[d.Name], N: 1}
	}
	rec.CPUShare = shares
	// The budget prices the representative machine's shape, the one
	// whose interconnect streams the bus probe replayed.
	shape := func(o op) bool { return o.Nodes == ops[rep].Nodes && o.Topo == ops[rep].Topo }
	rec.Budget = stageBudget(m, dsTotalsOf(ops, plain, shape), k)
	rec.Events = map[string]uint64{}
	for kind, n := range rc.counts.ByKind {
		if n > 0 {
			rec.Events[obs.EventKind(kind).String()] = n
		}
	}
	return rec, spans.write(spansPath)
}

// repOp is the op whose streams the traced pass records: the workload's
// largest DataScalar machine (the first, on a tie).
func repOp(ops []op) int {
	best := -1
	for i, o := range ops {
		if o.Kind == sim.KindDS && (best < 0 || o.Nodes > ops[best].Nodes) {
			best = i
		}
	}
	return best
}

// dsTotals sums the DataScalar ops of a pass: the host time they took and
// the simulated work they did.
type dsTotals struct {
	ops, partitions            int
	build, partition, run      time.Duration
	nodeCycles, cycles, instrs uint64 // instrs summed over nodes
	bshrReqs, bufferedHits     uint64
	arrivals, broadcasts       uint64
	busBusy, linkCycles        uint64 // link-busy cycles, and cycles × links
	arbWaits, msgs             uint64
	// remoteWaits counts node-cycles charged to waiting on another
	// node's data (remote owner, contention, serialization): the cycles
	// whose stall classification asks the interconnect's DataPhase.
	remoteWaits uint64
}

// dsTotalsOf sums the ops of p that match.
func dsTotalsOf(ops []op, p pass, match func(op) bool) dsTotals {
	var t dsTotals
	for i, o := range ops {
		r := p.Runs[i]
		if !match(o) {
			continue
		}
		if r.Partition > 0 {
			t.partitions++
			t.partition += r.Partition
		}
		if o.Kind != sim.KindDS || r.DS == nil {
			continue
		}
		t.ops++
		t.build += r.Build
		t.run += r.Run
		t.nodeCycles += r.NodeCycles
		t.cycles += r.Cycles
		t.instrs += r.Instr * uint64(o.Nodes)
		for _, b := range r.DS.BSHR {
			t.bshrReqs += b.Allocs.Value() + b.Joins.Value() + b.BufferedHits.Value()
			t.bufferedHits += b.BufferedHits.Value()
			t.arrivals += b.Arrivals.Value()
		}
		for _, st := range r.DS.CPIStacks {
			t.remoteWaits += st[obs.StallMemRemote] + st[obs.StallNetContention] + st[obs.StallESPSerial]
		}
		bs := r.DS.BusStats
		t.broadcasts += bs.ByKindMsgs[bus.Broadcast].Value()
		t.busBusy += bs.BusyCycles.Value()
		t.linkCycles += r.Cycles * links(o)
		t.arbWaits += bs.ArbWaits.Value()
		t.msgs += bs.Messages.Value()
	}
	return t
}

// links is how many links an op's interconnect has: one shared bus, N
// ring links, 4N directed mesh or torus links.
func links(o op) uint64 {
	switch o.Topo {
	case bus.TopoBus:
		return 1
	case bus.TopoRing:
		return uint64(o.Nodes)
	case bus.TopoMesh, bus.TopoTorus:
		return 4 * uint64(o.Nodes)
	}
	panic(fmt.Sprintf("bench: unknown topology %d", o.Topo))
}

// metrics fills the per-layer metrics the untraced pass itself measures.
func (t dsTotals) metrics(m map[string]float64) {
	m["mem.partition_us"] = ratio(float64(t.partition)/1e3, float64(t.partitions))
	m["core.newmachine_ms"] = ratio(float64(t.build)/1e6, float64(t.ops))
	m["core.run_ns_per_node_cycle"] = ratio(float64(t.run), float64(t.nodeCycles))
	m["core.buffered_hit_ratio"] = ratio(float64(t.bufferedHits), float64(t.bshrReqs))
	m["bus.busy_frac"] = ratio(float64(t.busBusy), float64(t.linkCycles))
	m["bus.arb_wait_ratio"] = ratio(float64(t.arbWaits), float64(t.msgs))
}

// budgetRow is one stage of a simulated node-cycle's host-time budget:
// the stage's isolated cost per call times how often a node-cycle calls
// it. The last row is what the measured stages leave of the machines'
// Run time per node-cycle: the machine loop itself and the work no
// probe isolates (stall classification, commit-time cache updates).
// Rates are estimates: the core is charged per instruction (its cost
// per polled cycle grows with IPC), and DataPhase at most once per
// node-cycle spent waiting on remote data.
type budgetRow struct {
	Stage           string  `json:"stage"`
	NsPerOp         float64 `json:"ns_per_op"`
	OpsPerNodeCycle float64 `json:"ops_per_node_cycle"`
	NsPerNodeCycle  float64 `json:"ns_per_node_cycle"`
	Share           float64 `json:"share"`
}

func stageBudget(m map[string]float64, t dsTotals, k kernelStats) []budgetRow {
	nc := float64(t.nodeCycles)
	ipc := ratio(float64(t.instrs), nc)
	rows := []budgetRow{
		{Stage: "emu.Step", NsPerOp: m["emu.step_ns"], OpsPerNodeCycle: ipc},
		{Stage: "ooo (per instr)", NsPerOp: k.oooNsPerInstr, OpsPerNodeCycle: ipc},
		{Stage: "cache.Access", NsPerOp: m["cache.access_ns"], OpsPerNodeCycle: ipc * k.memPerInstr},
		{Stage: "core.BSHR.Request", NsPerOp: m["core.bshr_request_ns"], OpsPerNodeCycle: ratio(float64(t.bshrReqs), nc)},
		{Stage: "core.BSHR.Arrive", NsPerOp: m["core.bshr_arrive_ns"], OpsPerNodeCycle: ratio(float64(t.arrivals), nc)},
		{Stage: "bus.Enqueue", NsPerOp: m["bus.enqueue_ns"], OpsPerNodeCycle: ratio(float64(t.broadcasts), nc)},
		{Stage: "bus.Tick", NsPerOp: m["bus.tick_ns"], OpsPerNodeCycle: ratio(float64(t.cycles), nc)},
		{Stage: "bus.DataPhase", NsPerOp: m["bus.dataphase_ns"], OpsPerNodeCycle: ratio(float64(t.remoteWaits), nc)},
	}
	total := ratio(float64(t.run), nc)
	rest := total
	for i := range rows {
		rows[i].NsPerNodeCycle = rows[i].NsPerOp * rows[i].OpsPerNodeCycle
		rows[i].Share = ratio(rows[i].NsPerNodeCycle, total)
		rest -= rows[i].NsPerNodeCycle
	}
	return append(rows, budgetRow{Stage: "unattributed", NsPerNodeCycle: rest, Share: ratio(rest, total)})
}

// maxRecorded bounds each recorded stream.
const maxRecorded = 1 << 20

// recordedNodes is how many nodes' BSHR streams the recorder keeps.
const recordedNodes = 4

type sendRec struct {
	cycle      uint64
	src        int
	addr       uint64
	reparative bool
}

type bshrCall uint8

const (
	callRequest bshrCall = iota
	callArrive
	// callArriveOwed is an arrival the node had already agreed to absorb;
	// the replay issues the Absorb that the machine made silently.
	callArriveOwed
	callAbsorb
)

type bshrRec struct {
	call        bshrCall
	line, cycle uint64
}

// recorder is the traced pass's observer. It counts every event and,
// for one op, records the broadcast stream and the first nodes' BSHR
// call streams for the layer probes to replay.
type recorder struct {
	rep, cur int
	counts   obs.Counts
	sends    []sendRec
	bshr     [][]bshrRec
	arriving []bool // per recorded node: the last BSHR-side event was an arrival
}

func newRecorder(rep, nodes int) *recorder {
	n := min(nodes, recordedNodes)
	return &recorder{rep: rep, bshr: make([][]bshrRec, n), arriving: make([]bool, n)}
}

func (r *recorder) observerFor(i int) obs.Observer {
	r.cur = i
	return r
}

// Sample implements obs.Observer.
func (r *recorder) Sample(obs.Sample) {}

// Event implements obs.Observer.
func (r *recorder) Event(e obs.Event) {
	r.counts.Event(e)
	if r.cur != r.rep {
		return
	}
	k := e.Kind
	if k == obs.EvBroadcastSent {
		if len(r.sends) < maxRecorded {
			r.sends = append(r.sends, sendRec{cycle: e.Cycle, src: e.Node, addr: e.Addr, reparative: e.Arg == 1})
		}
		return
	}
	n := e.Node
	if n < 0 || n >= len(r.bshr) || len(r.bshr[n]) >= maxRecorded {
		return
	}
	s := r.bshr[n]
	arriving := r.arriving[n]
	r.arriving[n] = false
	if k == obs.EvBroadcastArrived {
		r.bshr[n] = append(s, bshrRec{call: callArrive, line: e.Addr, cycle: e.Cycle})
		r.arriving[n] = true
	} else if k == obs.EvBSHRAlloc || k == obs.EvBSHRJoin || k == obs.EvBSHRFoundBuffered {
		r.bshr[n] = append(s, bshrRec{call: callRequest, line: e.Addr, cycle: e.Cycle})
	} else if k == obs.EvBSHRSquash {
		if arriving && len(s) > 0 {
			s[len(s)-1].call = callArriveOwed
		} else {
			r.bshr[n] = append(s, bshrRec{call: callAbsorb, line: e.Addr, cycle: e.Cycle})
		}
	}
}

// span is one timed interval of the traced run; Parent 0 is the root.
type span struct {
	Name       string
	Start      time.Time
	Dur        time.Duration
	ID, Parent int
}

// spanLog keeps the traced run's spans in memory until the run ends.
type spanLog struct{ spans []span }

func (l *spanLog) add(name string, parent int, start time.Time, dur time.Duration) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{Name: name, Start: start, Dur: dur, ID: id, Parent: parent})
	return id
}

func (l *spanLog) begin(name string, parent int) int { return l.add(name, parent, time.Now(), 0) }

func (l *spanLog) end(id int) { l.spans[id-1].Dur = time.Since(l.spans[id-1].Start) }

// timed runs f inside a span.
func (l *spanLog) timed(name string, parent int, f func() error) error {
	id := l.begin(name, parent)
	err := f()
	l.end(id)
	return err
}

// write saves the spans as a Chrome trace-event file (loadable in
// Perfetto or chrome://tracing), nesting by time on one track.
func (l *spanLog) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	var events []event
	if len(l.spans) > 0 {
		t0 := l.spans[0].Start
		for _, s := range l.spans {
			events = append(events, event{Name: s.Name, Ph: "X", Ts: float64(s.Start.Sub(t0)) / 1e3,
				Dur: float64(s.Dur) / 1e3, Pid: 1, Tid: 1, Args: map[string]int{"id": s.ID, "parent": s.Parent}})
		}
	}
	blob, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
