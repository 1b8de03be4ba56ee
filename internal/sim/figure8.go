package sim

import (
	"context"
	"fmt"

	"github.com/wisc-arch/datascalar/internal/bus"
	"github.com/wisc-arch/datascalar/internal/cache"
	"github.com/wisc-arch/datascalar/internal/core"
	"github.com/wisc-arch/datascalar/internal/mem"
	"github.com/wisc-arch/datascalar/internal/ooo"
	"github.com/wisc-arch/datascalar/internal/stats"
	"github.com/wisc-arch/datascalar/internal/traditional"
	"github.com/wisc-arch/datascalar/internal/workload"
)

// Figure8Param identifies one swept parameter of the sensitivity
// analysis.
type Figure8Param string

// The five parameters the paper sweeps in Figure 8.
const (
	ParamCacheKB  Figure8Param = "cache size (KB)"
	ParamMemNs    Figure8Param = "memory access time (cycles)"
	ParamBusClock Figure8Param = "bus clock (proc. cycles)"
	ParamBusWidth Figure8Param = "bus width (bytes)"
	ParamRUU      Figure8Param = "RUU entries"
)

// Figure8Point is one (parameter value, five IPCs) sample. DSN and
// TradN are the larger systems of the grid — the paper's four-node
// pair, or whatever size Figure8At was given.
type Figure8Point struct {
	Value   int
	Perfect float64
	DS2     float64
	DSN     float64
	Trad2   float64
	TradN   float64
}

// Figure8Series is one parameter's sweep for one benchmark.
type Figure8Series struct {
	Benchmark string
	Param     Figure8Param
	Points    []Figure8Point
}

// Figure8Result holds the whole sensitivity analysis. Nodes is the
// size of the larger DS/traditional pair (the paper's is 4).
type Figure8Result struct {
	Nodes  int
	Series []Figure8Series
}

// Tables renders one table per (benchmark, parameter) series.
func (r Figure8Result) Tables() []*stats.Table {
	n := r.Nodes
	if n == 0 {
		n = 4
	}
	var out []*stats.Table
	for _, s := range r.Series {
		t := stats.NewTable(
			fmt.Sprintf("Figure 8: %s — IPC vs %s", s.Benchmark, s.Param),
			string(s.Param), "perfect", "DS 2-node", fmt.Sprintf("DS %d-node", n),
			"trad 1/2", fmt.Sprintf("trad 1/%d", n))
		for _, p := range s.Points {
			t.AddRowf(p.Value, p.Perfect, p.DS2, p.DSN, p.Trad2, p.TradN)
		}
		out = append(out, t)
	}
	return out
}

// Figure8Sweeps returns the default parameter values, matching the axes
// of the paper's plots.
func Figure8Sweeps() map[Figure8Param][]int {
	return map[Figure8Param][]int{
		ParamCacheKB:  {4, 8, 16, 32, 64},
		ParamMemNs:    {4, 8, 16, 32, 64},
		ParamBusClock: {1, 2, 4, 8, 16},
		ParamBusWidth: {2, 4, 8, 16, 32},
		ParamRUU:      {32, 64, 128, 256, 512},
	}
}

// Figure8Order fixes the rendering order of the sweeps.
var Figure8Order = []Figure8Param{
	ParamCacheKB, ParamMemNs, ParamBusClock, ParamBusWidth, ParamRUU,
}

// figure8Benchmarks are the two analogues the paper sweeps.
var figure8Benchmarks = []string{"go", "compress"}

// Figure8 reproduces the paper's sensitivity analysis on the go and
// compress analogues: every parameter is swept one at a time around the
// default configuration, measuring the same five systems as Figure 7.
// The full grid — 2 benchmarks x 5 parameters x 5 values x 5 systems =
// 250 independent timing runs — is enumerated as one job batch.
func Figure8(ctx context.Context, opts Options) (Figure8Result, error) {
	return Figure8At(ctx, opts, 4)
}

// Figure8At runs the Figure 8 sweep with the larger DS/traditional pair
// at nodes instead of the paper's four, so the sensitivity analysis can
// be repeated on bigger machines. Combined with Options.Topology it runs
// on ring, mesh or torus, where the bus-clock and bus-width axes sweep
// every link. nodes must be at least 2.
func Figure8At(ctx context.Context, opts Options, nodes int) (Figure8Result, error) {
	opts = opts.withDefaults()
	out := Figure8Result{Nodes: nodes}
	if nodes < 2 {
		return out, fmt.Errorf("sim: figure 8: nodes %d < 2", nodes)
	}
	sweeps := Figure8Sweeps()
	var jobs []Job
	for _, name := range figure8Benchmarks {
		w, ok := workload.ByName(name)
		if !ok {
			return out, fmt.Errorf("sim: missing workload %s", name)
		}
		for _, param := range Figure8Order {
			for _, v := range sweeps[param] {
				jobs = append(jobs, figure8Jobs(w, opts, param, v, nodes)...)
			}
		}
	}
	res, err := runJobs(ctx, opts, jobs)
	if err != nil {
		return out, err
	}
	i := 0
	for range figure8Benchmarks {
		for _, param := range Figure8Order {
			series := Figure8Series{Benchmark: jobs[i].Workload.Name, Param: param}
			for _, v := range sweeps[param] {
				series.Points = append(series.Points, Figure8Point{
					Value:   v,
					Perfect: res[i].IPC(),
					DS2:     res[i+1].IPC(),
					DSN:     res[i+2].IPC(),
					Trad2:   res[i+3].IPC(),
					TradN:   res[i+4].IPC(),
				})
				i += 5
			}
			out.Series = append(out.Series, series)
		}
	}
	return out, nil
}

// figure8Jobs enumerates one sweep point's five systems in Figure 7
// order: perfect, DS2, DS-n, trad 1/2, trad 1/n.
func figure8Jobs(w workload.Workload, opts Options, param Figure8Param, v, n int) []Job {
	dsMut := func(cfg *core.Config) { applyDSParam(cfg, param, v) }
	tradMut := func(cfg *traditional.Config) { applyTradParam(cfg, param, v) }
	base := Job{Workload: w, Scale: opts.Scale, MaxInstr: opts.SweepInstr, DSMut: dsMut, TradMut: tradMut}
	jobs := make([]Job, 5)
	for i, sys := range []struct {
		kind  MachineKind
		nodes int
	}{
		{KindPerfect, 0}, {KindDS, 2}, {KindDS, n}, {KindTraditional, 2}, {KindTraditional, n},
	} {
		j := base
		j.Kind, j.Nodes = sys.kind, sys.nodes
		jobs[i] = j
	}
	return jobs
}

// applyParam applies one sweep value to the sub-configurations both
// machine kinds share; the DS- and traditional-specific appliers below
// only select the fields. The RUU sweep scales the LSQ (clamped to at
// least one entry) and the store-forwarding distance with it, as the
// paper's single RUU axis implies.
func applyParam(param Figure8Param, v int, l1 *cache.Config, dram *mem.DRAMConfig, b *bus.Config, c *ooo.Config) {
	switch param {
	case ParamCacheKB:
		l1.SizeBytes = v * 1024
	case ParamMemNs:
		dram.AccessCycles = uint64(v)
	case ParamBusClock:
		b.ClockDivisor = uint64(v)
	case ParamBusWidth:
		b.WidthBytes = v
	case ParamRUU:
		c.RUUSize = v
		c.LSQSize = v / 2
		if c.LSQSize < 1 {
			c.LSQSize = 1
		}
		c.FwdDist = uint64(c.LSQSize)
	}
}

func applyDSParam(cfg *core.Config, param Figure8Param, v int) {
	applyParam(param, v, &cfg.L1, &cfg.DRAM, &cfg.Topology.Bus, &cfg.Core)
}

func applyTradParam(cfg *traditional.Config, param Figure8Param, v int) {
	applyParam(param, v, &cfg.L1, &cfg.DRAM, &cfg.Topology.Bus, &cfg.Core)
}
