package sim

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"github.com/wisc-arch/datascalar/internal/bus"
)

// Small experiment sizes keep the suite fast; cmd/ binaries and the
// repository benchmarks use the full defaults.
func testOpts() Options {
	return Options{
		Scale:       1,
		TimingInstr: 80_000,
		RefInstr:    400_000,
		SweepInstr:  50_000,
	}
}

func TestTable1ShapeHolds(t *testing.T) {
	res, err := Table1(context.Background(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 14 {
		t.Fatalf("rows = %d, want 14", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Detail.Misses == 0 {
			t.Errorf("%s: no misses", row.Benchmark)
			continue
		}
		// Every request disappears, so transaction reduction is at least
		// 50% (the paper's floor).
		if row.TransactionsEliminated < 0.5 {
			t.Errorf("%s: transactions eliminated %.2f < 0.5",
				row.Benchmark, row.TransactionsEliminated)
		}
		if row.TrafficEliminated <= 0 || row.TrafficEliminated >= 0.9 {
			t.Errorf("%s: traffic eliminated %.2f outside (0, 0.9)",
				row.Benchmark, row.TrafficEliminated)
		}
	}
	out := res.Table().String()
	for _, want := range []string{"Table 1", "compress", "Traffic", "Transactions"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q", want)
		}
	}
}

func TestTable2ShapeHolds(t *testing.T) {
	res, err := Table2(context.Background(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 14 || res.Nodes != 4 {
		t.Fatalf("rows = %d nodes = %d", len(res.Rows), res.Nodes)
	}
	rows := map[string]Table2Row{}
	threaded := 0
	for _, row := range res.Rows {
		rows[row.Benchmark] = row
		if row.ReplTotal == 0 {
			t.Errorf("%s: nothing replicated", row.Benchmark)
		}
		if row.DistKB <= 0 {
			t.Errorf("%s: bad distribution size", row.Benchmark)
		}
		if row.Threads > 0 {
			threaded++
			if row.AllMean < 1 {
				t.Errorf("%s: all-refs datathread mean %.2f < 1", row.Benchmark, row.AllMean)
			}
		}
	}
	// Most benchmarks must actually exercise cross-node datathreads
	// (fpppp's working set legitimately fits under replication).
	if threaded < 11 {
		t.Errorf("only %d/14 benchmarks produced datathreads", threaded)
	}
	// Paper shape: a random gather/scatter code (wave5) cannot sustain
	// long data threads, while replication produces non-trivial
	// replicated-reference runs somewhere in the suite.
	if w5 := rows["wave5"]; w5.Threads > 0 && w5.DataMean > 8 {
		t.Errorf("wave5 random access shows %.1f-long data threads", w5.DataMean)
	}
	anyRepl := false
	for _, row := range res.Rows {
		if row.ReplMean >= 1 {
			anyRepl = true
		}
	}
	if !anyRepl {
		t.Error("no benchmark shows replicated-reference runs")
	}
	t.Logf("\n%s", res.Table().String())
}

func TestFigure7AndTable3ShapesHold(t *testing.T) {
	opts := testOpts()
	opts.TimingInstr = 250_000
	res, err := Figure7(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	rows := map[string]Figure7Row{}
	for _, row := range res.Rows {
		rows[row.Benchmark] = row
		// Perfect cache is an upper bound for every system.
		for name, ipc := range map[string]float64{
			"DS2": row.DS2IPC, "DS4": row.DS4IPC,
			"T2": row.Trad2IPC, "T4": row.Trad4IPC,
		} {
			if ipc > row.PerfectIPC*1.02 { // 2% slack for cycle-count edge effects
				t.Errorf("%s: %s IPC %.2f exceeds perfect %.2f",
					row.Benchmark, name, ipc, row.PerfectIPC)
			}
			if ipc <= 0 {
				t.Errorf("%s: %s IPC = %.2f", row.Benchmark, name, ipc)
			}
		}
	}

	// compress is the paper's biggest DataScalar win (write elimination).
	c := rows["compress"]
	if c.DS2IPC <= c.Trad2IPC {
		t.Errorf("compress: DS2 %.2f !> trad-1/2 %.2f", c.DS2IPC, c.Trad2IPC)
	}
	if c.DS4IPC <= c.Trad4IPC {
		t.Errorf("compress: DS4 %.2f !> trad-1/4 %.2f", c.DS4IPC, c.Trad4IPC)
	}

	// The paper's headline scaling claim: DataScalar degrades far less
	// than traditional when memory is split four ways instead of two.
	var dsDrop, tradDrop float64
	for _, row := range res.Rows {
		dsDrop += row.DS2IPC - row.DS4IPC
		tradDrop += row.Trad2IPC - row.Trad4IPC
	}
	if dsDrop >= tradDrop {
		t.Errorf("DataScalar 2->4 IPC drop (%.2f) not smaller than traditional's (%.2f)",
			dsDrop, tradDrop)
	}

	// At the finer 1/4 split, DataScalar should win on at least five of
	// the six benchmarks (the paper reports 9%+ gains at four nodes).
	wins := 0
	for _, row := range res.Rows {
		if row.DS4IPC > row.Trad4IPC {
			wins++
		}
	}
	if wins < 5 {
		t.Errorf("DS4 beats trad-1/4 on only %d/6 benchmarks", wins)
	}

	checkTable3(t, res)
}

func checkTable3(t *testing.T, f7 Figure7Result) {
	t.Helper()
	res := Table3(f7)
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	anyLate, anyFound := false, false
	for _, row := range res.Rows {
		for name, v := range map[string]float64{
			"late2": row.Late2, "late4": row.Late4,
			"squash2": row.Squash2, "squash4": row.Squash4,
			"found2": row.Found2, "found4": row.Found4,
		} {
			if v < 0 || v > 1 {
				t.Errorf("%s: %s = %.2f outside [0,1]", row.Benchmark, name, v)
			}
		}
		if row.Late2 > 0 || row.Late4 > 0 {
			anyLate = true
		}
		if row.Found2 > 0 || row.Found4 > 0 {
			anyFound = true
		}
	}
	if !anyLate {
		t.Error("no benchmark shows late broadcasts (correspondence repair never exercised)")
	}
	if !anyFound {
		t.Error("no benchmark found data waiting in the BSHR (no datathreading evidence)")
	}
	out := res.Table().String()
	if !strings.Contains(out, "Table 3") {
		t.Error("table render missing title")
	}
}

// TestFigure8ShapeHolds runs the sensitivity sweep on every topology.
// The bus case keeps the paper's budget; the multi-hop cases run a
// short sweep and pin that the bus-clock and bus-width axes reach each
// link: a 16x slower or 16x narrower link must cost go and compress at
// least a tenth of their DS 2-node and trad 1/2 IPC.
func TestFigure8ShapeHolds(t *testing.T) {
	for _, tc := range []struct {
		topo  bus.TopologyKind
		instr uint64
	}{
		{bus.TopoBus, 40_000},
		{bus.TopoRing, 5_000},
		{bus.TopoMesh, 5_000},
		{bus.TopoTorus, 5_000},
	} {
		t.Run(tc.topo.String(), func(t *testing.T) {
			opts := testOpts()
			opts.SweepInstr = tc.instr
			opts.Topology = tc.topo
			checkFigure8Shape(t, opts, tc.topo != bus.TopoBus)
		})
	}
}

// checkFigure8Shape runs Figure 8 and checks its shape; linkAxes adds
// the check that the bus-clock and bus-width sweeps move IPC.
func checkFigure8Shape(t *testing.T, opts Options, linkAxes bool) {
	res, err := Figure8(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// 2 benchmarks x 5 parameters.
	if len(res.Series) != 10 {
		t.Fatalf("series = %d, want 10", len(res.Series))
	}
	// slower reports whether the slow point's DS 2-node and trad 1/2
	// IPC both fall below 0.9x the fast point's.
	slower := func(slow, fast Figure8Point) bool {
		return slow.DS2 < 0.9*fast.DS2 && slow.Trad2 < 0.9*fast.Trad2
	}
	for _, s := range res.Series {
		if len(s.Points) != 5 {
			t.Fatalf("%s/%s: %d points", s.Benchmark, s.Param, len(s.Points))
		}
		for _, p := range s.Points {
			if p.DS2 <= 0 || p.Trad2 <= 0 || p.Perfect <= 0 {
				t.Fatalf("%s/%s@%d: non-positive IPC %+v", s.Benchmark, s.Param, p.Value, p)
			}
		}
		first, last := s.Points[0], s.Points[len(s.Points)-1]
		switch s.Param {
		case ParamMemNs:
			// Slower memory must not speed anything up.
			if last.DS2 > first.DS2*1.05 || last.Trad2 > first.Trad2*1.05 {
				t.Errorf("%s: slower memory raised IPC (%+v -> %+v)", s.Benchmark, first, last)
			}
		case ParamBusClock:
			// A slower global bus must not help either system.
			if last.DS2 > first.DS2*1.05 || last.Trad2 > first.Trad2*1.05 {
				t.Errorf("%s: slower bus raised IPC", s.Benchmark)
			}
			if linkAxes && !slower(last, first) {
				t.Errorf("%s: bus clock %d -> %d barely moved IPC (%+v -> %+v)",
					s.Benchmark, first.Value, last.Value, first, last)
			}
		case ParamBusWidth:
			if linkAxes && !slower(first, last) {
				t.Errorf("%s: bus width %d -> %d barely moved IPC (%+v -> %+v)",
					s.Benchmark, last.Value, first.Value, last, first)
			}
		}
	}
	if got := len(res.Tables()); got != 10 {
		t.Fatalf("rendered %d tables", got)
	}
}

func TestFigure1MatchesPaper(t *testing.T) {
	res, table, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 13 || res.LeadChanges != 2 || res.Datathreads != 3 {
		t.Fatalf("figure 1 result = %+v", res)
	}
	if !strings.Contains(table.String(), "w5") {
		t.Error("table missing w5")
	}
}

func TestFigure3MatchesPaper(t *testing.T) {
	res, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if res.DSCrossings != 2 || res.TradCrossings != 8 {
		t.Fatalf("crossings = %d vs %d, want 2 vs 8", res.DSCrossings, res.TradCrossings)
	}
	if res.DSCyclesPerLap >= res.TradCyclesPerLap {
		t.Errorf("DataScalar %.1f cycles/lap not faster than traditional %.1f",
			res.DSCyclesPerLap, res.TradCyclesPerLap)
	}
}

func TestCountCrossings(t *testing.T) {
	cases := []struct {
		owners   []int
		cpu      int
		ds, trad int
	}{
		{[]int{1, 1, 1, 2}, 0, 2, 8},
		{[]int{0, 0, 0, 0}, 0, 1, 0}, // all local to CPU chip; DS still broadcasts the last
		{[]int{1, 2, 1, 2}, 0, 4, 8}, // worst-case migration
		{nil, 0, 0, 0},
	}
	for _, c := range cases {
		ds, trad := CountCrossings(c.owners, c.cpu)
		if ds != c.ds || trad != c.trad {
			t.Errorf("CountCrossings(%v) = %d,%d want %d,%d", c.owners, ds, trad, c.ds, c.trad)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	d := DefaultOptions()
	if !reflect.DeepEqual(o, d) {
		t.Fatalf("withDefaults() = %+v, want %+v", o, d)
	}
	custom := Options{Scale: 2}.withDefaults()
	if custom.Scale != 2 || custom.TimingInstr != d.TimingInstr {
		t.Fatalf("partial defaults wrong: %+v", custom)
	}
}
