package datascalar

// The repository-level benchmarks regenerate every table and figure of
// the paper's evaluation and print the reproduced rows. Each benchmark is
// deterministic, so one iteration is enough:
//
//	go test -bench=. -benchmem -benchtime=1x
//
// EXPERIMENTS.md records paper-versus-measured values for each.

import (
	"context"
	"testing"
)

// benchOpts are the standard experiment sizes (see sim.DefaultOptions);
// absolute numbers in EXPERIMENTS.md were produced with these.
func benchOpts() ExperimentOptions { return DefaultExperimentOptions() }

// BenchmarkTable1Traffic regenerates Table 1: the fraction of off-chip
// traffic (bytes) and transactions that ESP eliminates across the
// fourteen SPEC95-analogue benchmarks.
func BenchmarkTable1Traffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Table1(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.Table().String())
			var bytesFrac, txnFrac float64
			for _, row := range res.Rows {
				bytesFrac += row.TrafficEliminated
				txnFrac += row.TransactionsEliminated
			}
			b.ReportMetric(bytesFrac/float64(len(res.Rows))*100, "mean-traffic-eliminated-%")
			b.ReportMetric(txnFrac/float64(len(res.Rows))*100, "mean-transactions-eliminated-%")
		}
	}
}

// BenchmarkTable2Datathreads regenerates Table 2: datathread-length
// approximations for a four-processor system.
func BenchmarkTable2Datathreads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Table2(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.Table().String())
		}
	}
}

// BenchmarkFigure7IPC regenerates Figure 7: IPC for the perfect cache,
// DataScalar at two and four nodes, and the traditional machines with
// one half and one quarter of memory on-chip, over the six timing
// benchmarks.
func BenchmarkFigure7IPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Figure7(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.Table().String())
			var ds4, t4 float64
			for _, row := range res.Rows {
				ds4 += row.DS4IPC
				t4 += row.Trad4IPC
			}
			b.ReportMetric(ds4/t4, "DS4-vs-trad4-speedup")
		}
	}
}

// BenchmarkTable3Broadcast regenerates Table 3: late broadcasts, BSHR
// squashes, and data found waiting in the BSHR, from the DataScalar
// timing runs.
func BenchmarkTable3Broadcast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f7, err := Figure7(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		res := Table3(f7)
		if i == 0 {
			b.Logf("\n%s", res.Table().String())
		}
	}
}

// BenchmarkFigure8Sensitivity regenerates Figure 8: IPC sensitivity of
// go and compress to cache size, memory access time, bus clock, bus
// width, and RUU entries, for all five systems. The serial and parallel
// sub-benchmarks run the identical 250-job sweep at 1 and 4 workers; the
// engine guarantees byte-identical results, so the wall-clock ratio is
// the experiment engine's speedup.
func BenchmarkFigure8Sensitivity(b *testing.B) {
	run := func(b *testing.B, parallel int, logTables bool) {
		opts := benchOpts()
		opts.Parallel = parallel
		for i := 0; i < b.N; i++ {
			res, err := Figure8(context.Background(), opts)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 && logTables {
				for _, t := range res.Tables() {
					b.Logf("\n%s", t.String())
				}
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1, true) })
	b.Run("parallel4", func(b *testing.B) { run(b, 4, false) })
}

// BenchmarkFigure1MMM regenerates Figure 1: the synchronous ESP Massive
// Memory Machine timeline with its two lead changes.
func BenchmarkFigure1MMM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, table, err := Figure1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", table.String())
			b.ReportMetric(float64(res.Cycles), "cycles")
			b.ReportMetric(float64(res.LeadChanges), "lead-changes")
		}
	}
}

// BenchmarkFigure3Crossings regenerates Figure 3: serialized off-chip
// crossings for a dependent four-operand chain — DataScalar's two versus
// the traditional system's eight — plus measured cycles per chain lap on
// the timing models.
func BenchmarkFigure3Crossings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Figure3()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.Table().String())
			b.ReportMetric(res.TradCyclesPerLap/res.DSCyclesPerLap, "DS-vs-trad-lap-speedup")
		}
	}
}

// BenchmarkAblationResultComm measures the Section 5.1 result-
// communication extension: private block reductions executed only at
// their owners, with operand broadcasts replaced by result flow.
func BenchmarkAblationResultComm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := AblationResultComm(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.Table().String())
			r := res.Rows[0]
			b.ReportMetric(r.OnIPC/r.OffIPC, "resultcomm-speedup")
			b.ReportMetric(float64(r.OffBroadcasts)/float64(r.OnBroadcasts), "broadcast-reduction-x")
		}
	}
}

// BenchmarkAblationInterconnect compares the global bus against a
// unidirectional ring (paper Section 4.4).
func BenchmarkAblationInterconnect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := AblationInterconnect(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.Table().String())
		}
	}
}

// BenchmarkAblationWritePolicy measures the ESP broadcast bytes saved by
// the paper's write-no-allocate policy choice.
func BenchmarkAblationWritePolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := AblationWritePolicy(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.Table().String())
		}
	}
}

// BenchmarkAblationSyncESP measures the lock-step (Massive Memory
// Machine) cost of each benchmark's miss stream — the slowdown
// asynchronous datathreading exists to reclaim.
func BenchmarkAblationSyncESP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := AblationSyncESP(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.Table().String())
		}
	}
}

// BenchmarkAblationLatencies sweeps the BSHR and broadcast-queue access
// latencies the paper fixes by assumption.
func BenchmarkAblationLatencies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := AblationLatencies(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.Table().String())
		}
	}
}

// BenchmarkAblationPlacement measures profile-guided page placement
// against round-robin distribution — the software form of the paper's
// "special support to increase datathread length".
func BenchmarkAblationPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := AblationPlacement(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.Table().String())
			r := res.Rows[0] // swim
			b.ReportMetric(r.OptThreadMean/r.RRThreadMean, "swim-thread-lengthening-x")
		}
	}
}

// BenchmarkCostEffectiveness runs the Wood-Hill speedup-versus-costup
// analysis the paper's Section 4.4 sketches: DataScalar is cost-effective
// exactly when memory dominates system cost.
func BenchmarkCostEffectiveness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f7, err := Figure7(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		res := CostEffectiveness(f7)
		if i == 0 {
			b.Logf("\n%s", res.Table().String())
		}
	}
}

// BenchmarkScaling extends the paper's 2-and-4-node comparison to eight
// nodes on both interconnects: DataScalar's IPC stays nearly flat while
// the traditional system collapses with the shrinking on-chip fraction.
func BenchmarkScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Scaling(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.Table().String())
			for _, row := range res.Rows {
				if row.Benchmark == "compress" {
					first, last := row.Points[0], row.Points[len(row.Points)-1]
					b.ReportMetric(first.DSBus/last.DSBus, "DS-2to8-slowdown-x")
					b.ReportMetric(first.Trad/last.Trad, "trad-2to8-slowdown-x")
				}
			}
		}
	}
}

// BenchmarkAblationReplication sweeps the static replication fraction:
// the paper's Section 3 lever, trading per-node capacity for eliminated
// broadcasts.
func BenchmarkAblationReplication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := AblationReplication(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.Table().String())
			row := res.Rows[0] // compress
			base, half := row.Points[0], row.Points[len(row.Points)-1]
			b.ReportMetric(half.IPC/base.IPC, "compress-50pct-repl-speedup")
		}
	}
}
