package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"github.com/wisc-arch/datascalar/internal/bus"
	"github.com/wisc-arch/datascalar/internal/emu"
	"github.com/wisc-arch/datascalar/internal/sim"
)

// tiny shrinks every grid to a few thousand instructions per op.
var tiny = budgets{Timing: 2_000, Sweep: 500, Cascade: 2_000, FaultGrid: 3_000}

func execAll(t *testing.T, ops []op) []opRun {
	t.Helper()
	runs := make([]opRun, len(ops))
	for i, o := range ops {
		r, err := o.exec(nil)
		if err != nil {
			t.Fatalf("%s: %v", o.Name, err)
		}
		runs[i] = r
	}
	return runs
}

// The fig7 grid is dstiming's: the same machines give the same IPCs.
func TestFig7GridMatchesFigure7(t *testing.T) {
	res, err := sim.Figure7(context.Background(), sim.Options{TimingInstr: tiny.Timing})
	if err != nil {
		t.Fatal(err)
	}
	runs := execAll(t, fig7Ops(1, tiny))
	if len(runs) != 5*len(res.Rows) {
		t.Fatalf("%d ops for %d Figure 7 rows", len(runs), len(res.Rows))
	}
	for i, row := range res.Rows {
		for j, want := range []float64{row.PerfectIPC, row.DS2IPC, row.DS4IPC, row.Trad2IPC, row.Trad4IPC} {
			if got := runs[5*i+j].IPC; got != want {
				t.Errorf("%s system %d: IPC %v, Figure 7 has %v", row.Benchmark, j, got, want)
			}
		}
	}
}

// The sweep8 grid, and its mirror of the sim package's parameter
// mutator, reproduce Figure 8 point for point.
func TestSweep8GridMatchesFigure8(t *testing.T) {
	res, err := sim.Figure8(context.Background(), sim.Options{SweepInstr: tiny.Sweep})
	if err != nil {
		t.Fatal(err)
	}
	runs := execAll(t, sweep8Ops(1, tiny))
	i := 0
	for _, s := range res.Series {
		for _, p := range s.Points {
			for j, want := range []float64{p.Perfect, p.DS2, p.DSN, p.Trad2, p.TradN} {
				if got := runs[i+j].IPC; got != want {
					t.Errorf("%s %s=%d system %d: IPC %v, Figure 8 has %v", s.Benchmark, s.Param, p.Value, j, got, want)
				}
			}
			i += 5
		}
	}
	if i != len(runs) {
		t.Fatalf("%d ops for %d Figure 8 points", len(runs), i/5)
	}
}

// The faults grid reproduces the two fault campaigns it mirrors: the
// same outcome, cycle count and retries for every run.
func TestFaultsMatchCampaign(t *testing.T) {
	ctx := context.Background()
	cascade, err := sim.FaultCampaign(ctx, sim.Options{}, sim.FaultCampaignConfig{
		Workloads: []string{"compress"}, Nodes: 64, Topology: bus.TopoMesh, Deaths: 3,
		MaxInstr: tiny.Cascade, Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := sim.FaultCampaign(ctx, sim.Options{}, sim.FaultCampaignConfig{
		Workloads: []string{"compress", "mgrid"}, Nodes: 2, MaxInstr: tiny.FaultGrid, Seeds: gridSeeds})
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		nodes              int
		workload, scenario string
		seed               uint64
	}
	want := map[key]sim.FaultRun{}
	baseline := map[key]uint64{}
	for _, c := range []sim.FaultCampaignResult{cascade, grid} {
		for _, r := range c.Runs {
			want[key{c.Nodes, r.Workload, r.Scenario, r.Seed}] = r
			baseline[key{nodes: c.Nodes, workload: r.Workload}] = r.BaselineCycles
		}
	}
	ops := faultsOps(1, tiny)
	runs := execAll(t, ops)
	matched := 0
	for i, o := range ops {
		r := runs[i]
		if !o.Campaign {
			if b := baseline[key{nodes: o.Nodes, workload: o.Kernel}]; r.Cycles != b {
				t.Errorf("%s: %d cycles, campaign baseline %d", o.Name, r.Cycles, b)
			}
			continue
		}
		w, ok := want[key{o.Nodes, o.Kernel, strings.Split(o.Name, "/")[2], o.Fault.Seed}]
		if !ok {
			t.Errorf("%s: no campaign run with seed %#x", o.Name, o.Fault.Seed)
			continue
		}
		matched++
		if r.Outcome != w.Outcome {
			t.Errorf("%s: outcome %s, campaign %s", o.Name, r.Outcome, w.Outcome)
		}
		if w.Outcome != sim.OutcomeHalted && w.Outcome != sim.OutcomeWatchdog && r.Cycles != w.Cycles {
			t.Errorf("%s: %d cycles, campaign %d", o.Name, r.Cycles, w.Cycles)
		}
		if r.FaultStats != nil && r.FaultStats.Retries != w.Retries {
			t.Errorf("%s: %d retries, campaign %d", o.Name, r.FaultStats.Retries, w.Retries)
		}
	}
	if matched == 0 {
		t.Fatal("no fault op matched a campaign run")
	}
}

// Profile samples land in the layer whose code was running.
func TestProfileAttribution(t *testing.T) {
	for _, c := range []struct{ fn, file, layer string }{
		{"github.com/wisc-arch/datascalar/internal/ooo.(*Core).Cycle", "/src/internal/ooo/ooo.go", "ooo"},
		{"github.com/wisc-arch/datascalar/internal/core.(*Machine).maybeKill", "/src/internal/core/fault.go", "fault"},
		{"github.com/wisc-arch/datascalar/internal/core.(*Machine).runParallel.func1", "/src/internal/core/parallel.go", "parallel"},
		{"github.com/wisc-arch/datascalar/internal/sim.runIndexed[go.shape.struct {}]", "/src/internal/sim/engine.go", "sim"},
		{"runtime.mallocgc", "/go/src/runtime/malloc.go", "runtime"},
		{"internal/runtime/maps.(*Map).getWithKeySmall", "/go/src/internal/runtime/maps/map.go", "runtime"},
		{"main.runPass", "/src/bench/measure.go", "bench"},
		{"crypto/sha256.block", "/go/src/crypto/sha256/sha256block.go", "other"},
	} {
		if got := layerOf(c.fn, c.file); got != c.layer {
			t.Errorf("layerOf(%q) = %q, want %q", c.fn, got, c.layer)
		}
	}

	// A real profile of a busy emulator loop decodes to the emu layer.
	o := op{Kernel: "compress"}
	p, _, err := o.program()
	if err != nil {
		t.Fatal(err)
	}
	m, err := emu.New(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	for start := time.Now(); time.Since(start) < 400*time.Millisecond; {
		for i := 0; i < 10_000; i++ {
			if _, err := m.Step(); errors.Is(err, emu.ErrHalted) {
				if m, err = emu.New(p); err != nil {
					break
				}
			} else if err != nil {
				t.Fatal(err)
			}
		}
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// Most samples of the simulator's own code must land in emu (the
	// race detector's runtime, when present, counts as "other").
	var inSim float64
	for layer, s := range shares {
		if layer != "other" && layer != "runtime" && layer != "bench" {
			inSim += s
		}
	}
	if shares["emu"] < 0.5*inSim {
		t.Errorf("emu share of a Step loop = %.2f of %.2f in simulator code (shares %v)", shares["emu"], inSim, shares)
	}
}

// A tiny-budget pass of every workload completes with no failed op,
// and a second pass reproduces every result digest.
func TestTinyPassAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		ops := w.Ops(1, tiny)
		v := newVerifier(nil)
		for pass := 0; pass < 2; pass++ {
			p := runPass(ops, nil, v)
			for _, f := range p.Failures {
				t.Errorf("%s pass %d: %s", w.Name, pass, f)
			}
			if vals := p.values(); vals["sim_cycles_per_s"] <= 0 || vals["alloc_mb"] <= 0 {
				t.Errorf("%s: empty measurement %v", w.Name, vals)
			}
		}
	}
}

// Every op of every workload has a committed digest for the seeds the
// golden file records.
func TestGoldenCoversEveryOp(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range goldenSeeds {
			g, err := goldenFor(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range w.Ops(seed, fullBudgets) {
				if _, ok := g[o.Name]; !ok {
					t.Errorf("%s seed %d: no golden digest for %s", w.Name, seed, o.Name)
				}
			}
		}
	}
}

// BENCHMARK.json declares exactly the workloads and metrics the program
// reports, within the bounds its format allows.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	var spec struct {
		benchSpec
		Workloads []struct{ Name string } `json:"workloads"`
	}
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, spec.Workloads[i].Name, w.Name)
		}
	}
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, layerMetrics)
	var setup float64
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound > setup {
			t.Errorf("%s: bound %v exceeds setup_s's %v", m.Name, m.Bound, setup)
		}
	}
}

// -compare flags a median worse than its bound and a rise in failures,
// and passes identical results.
func TestCompareSuites(t *testing.T) {
	spec := benchSpec{EndToEnd: []specMetric{
		{Name: "wall_s", Better: "lower", Bound: 0.1},
		{Name: "sim_cycles_per_s", Better: "higher", Bound: 0.1},
	}}
	suite := func(wall, cps float64, failed int) suiteResult {
		return suiteResult{Workloads: []workloadSummary{{Name: "fig7", Failed: failed, FailFrac: float64(failed) / 10,
			Metrics: map[string]stat{"wall_s": {Value: wall}, "sim_cycles_per_s": {Value: cps}}}}}
	}
	var out bytes.Buffer
	a := suite(1, 100, 0)
	for _, c := range []struct {
		b    suiteResult
		want int
	}{
		{a, 0},
		{suite(1.09, 91, 0), 0},
		{suite(1.2, 100, 0), 1},
		{suite(1, 80, 0), 1},
		{suite(0.5, 200, 1), 1},
	} {
		if got := compareSuites(spec, a, c.b, &out); got != c.want {
			t.Errorf("compare against %+v: %d breaches, want %d\n%s", c.b.Workloads[0], got, c.want, out.String())
		}
	}
}
