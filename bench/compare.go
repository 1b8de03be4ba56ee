package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// specPath and goldenPath are relative to the repository root, where
// run.sh runs the benchmark.
const (
	specPath   = "BENCHMARK.json"
	goldenPath = "bench/golden.json"
)

// benchSpec is the part of BENCHMARK.json the tools read.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(blob, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareSuites prints, for every workload of a and every end-to-end
// metric of the spec, b's median against a's and the metric's bound, and
// returns the number of breaches. fail_frac has bound 0: any increase is
// a breach.
func compareSuites(spec benchSpec, a, b suiteResult, w io.Writer) int {
	breaches := 0
	fmt.Fprintf(w, "%-10s %-18s %14s %14s %8s %7s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := b.workload(wa.Name)
		if !ok {
			fmt.Fprintf(w, "%-10s missing from b  BREACH\n", wa.Name)
			breaches++
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := wa.Metrics[m.Name].Value, wb.Metrics[m.Name].Value
			worse := ratio(vb-va, va)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if va == 0 || worse > m.Bound {
				verdict = "BREACH"
				breaches++
			}
			fmt.Fprintf(w, "%-10s %-18s %14.6g %14.6g %+7.1f%% %6.0f%%  %s\n",
				wa.Name, m.Name, va, vb, 100*worse, 100*m.Bound, verdict)
		}
		verdict := "ok"
		if wb.FailFrac > wa.FailFrac {
			verdict = "BREACH"
			breaches++
		}
		fmt.Fprintf(w, "%-10s %-18s %14.6g %14.6g %8s %7s  %s\n", wa.Name, "fail_frac", wa.FailFrac, wb.FailFrac, "", "0 abs", verdict)
	}
	return breaches
}
