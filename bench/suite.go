package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// suiteRounds is how many times the suite runs each workload.
const suiteRounds = 3

// suiteResult is the suite's output: per workload, every end-to-end
// metric as the median over its runs, with the runs themselves, and the
// traced runs when asked for.
type suiteResult struct {
	Host      hostInfo          `json:"host"`
	Seed      uint64            `json:"seed"`
	Rounds    int               `json:"rounds"`
	Workloads []workloadSummary `json:"workloads"`
	Traces    []runRecord       `json:"traces,omitempty"`
}

type workloadSummary struct {
	Name      string          `json:"name"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	FailFrac  float64         `json:"fail_frac"`
	Metrics   map[string]stat `json:"metrics"`
	Runs      []runRecord     `json:"runs"`
}

func (s suiteResult) workload(name string) (workloadSummary, bool) {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSummary{}, false
}

func (s suiteResult) trace(name string) (runRecord, bool) {
	for _, r := range s.Traces {
		if r.Workload == name {
			return r, true
		}
	}
	return runRecord{}, false
}

func summarize(name string, runs []runRecord) workloadSummary {
	s := workloadSummary{Name: name, Metrics: map[string]stat{}, Runs: runs}
	values := map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		for k, st := range r.Metrics {
			values[k] = append(values[k], st.Value)
			units[k] = st.Unit
		}
	}
	for _, k := range sortedKeys(values) {
		s.Metrics[k] = newStat(units[k], values[k])
	}
	s.FailFrac = ratio(float64(s.Failed), float64(s.Attempted))
	return s
}

// child runs one workload in a fresh process (this binary re-executed),
// so heap state and peak RSS belong to that workload alone.
func child(exe string, args ...string) (runRecord, error) {
	var rec runRecord
	cmd := exec.Command(exe, append(args, "-json", "-")...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return rec, fmt.Errorf("%s: %w", strings.Join(args, " "), err)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, `{"workload"`) {
			return rec, json.Unmarshal([]byte(line), &rec)
		}
	}
	return rec, fmt.Errorf("%s: no record in output", strings.Join(args, " "))
}

type suiteConfig struct {
	seed    uint64
	seconds float64
	trace   bool
}

// runSuite runs every workload suiteRounds times, round-robin, each run
// in its own process, then (with trace) one traced run per workload.
func runSuite(cfg suiteConfig, stderr io.Writer) (suiteResult, error) {
	res := suiteResult{Seed: cfg.seed, Rounds: suiteRounds}
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	common := []string{"-seed", strconv.FormatUint(cfg.seed, 10), "-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64)}
	runs := map[string][]runRecord{}
	for round := 1; round <= suiteRounds; round++ {
		for _, w := range workloads {
			rec, err := child(exe, append([]string{"-workload", w.Name}, common...)...)
			if err != nil {
				return res, err
			}
			fmt.Fprintf(stderr, "round %d/%d  %-9s  wall %7.3f s  failed %d of %d ops\n",
				round, suiteRounds, w.Name, rec.Metrics["wall_s"].Value, rec.Failed, rec.Attempted)
			runs[w.Name] = append(runs[w.Name], rec)
		}
	}
	for _, w := range workloads {
		res.Workloads = append(res.Workloads, summarize(w.Name, runs[w.Name]))
	}
	res.Host = runs[workloads[0].Name][0].Host // as the runs saw it (GOMAXPROCS 1)
	if !cfg.trace {
		return res, nil
	}
	for _, w := range workloads {
		rec, err := child(exe, append([]string{"-workload", w.Name, "-trace", "1"}, common...)...)
		if err != nil {
			return res, err
		}
		fmt.Fprintf(stderr, "traced     %-9s  overhead %.2fx  failed %d of %d ops\n",
			w.Name, rec.Metrics["trace.overhead"].Value, rec.Failed, rec.Attempted)
		res.Traces = append(res.Traces, rec)
	}
	return res, nil
}

// spansPath is where a traced run of a workload writes its spans,
// relative to the repository root.
func spansPath(workload string) string {
	return filepath.Join(".bench_build", "trace", "spans-"+workload+".json")
}

// printSuite renders the suite as tables: end-to-end medians per
// workload, then (traced) per-layer metrics, CPU shares, stage budgets
// and the checks that the workloads load the layers they were chosen
// for.
func printSuite(w io.Writer, s suiteResult) {
	h := s.Host
	fmt.Fprintf(w, "dsbench suite: seed %d, %d runs per workload (%s, nproc %d, GOMAXPROCS %d, %s %s/%s)\n\n",
		s.Seed, s.Rounds, h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.OS, h.Arch)
	fmt.Fprintf(w, "%-18s %-14s", "metric", "unit")
	for _, ws := range s.Workloads {
		fmt.Fprintf(w, " %22s", ws.Name)
	}
	fmt.Fprintln(w)
	for _, m := range endToEnd {
		fmt.Fprintf(w, "%-18s %-14s", m.Name, m.Unit)
		for _, ws := range s.Workloads {
			st := ws.Metrics[m.Name]
			fmt.Fprintf(w, " %22s", fmt.Sprintf("%.4g [%.4g, %.4g]", st.Value, st.Min, st.Max))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-18s %-14s", "fail_frac", "ratio")
	for _, ws := range s.Workloads {
		fmt.Fprintf(w, " %22s", fmt.Sprintf("%g (%d/%d)", ws.FailFrac, ws.Failed, ws.Attempted))
	}
	fmt.Fprintf(w, "\n\nmedian [min, max] over %d runs\n", s.Rounds)
	if len(s.Traces) == 0 {
		return
	}

	fmt.Fprintf(w, "\nper-layer metrics (traced run)\n%-30s %-13s", "metric", "unit")
	for _, r := range s.Traces {
		fmt.Fprintf(w, " %11s", r.Workload)
	}
	fmt.Fprintln(w, "  moves")
	for _, m := range layerMetrics {
		fmt.Fprintf(w, "%-30s %-13s", m.Name, m.Unit)
		for _, r := range s.Traces {
			fmt.Fprintf(w, " %11.4g", r.Metrics[m.Name].Value)
		}
		fmt.Fprintf(w, "  %s\n", m.Target)
	}

	fmt.Fprintf(w, "\ncpu share by layer (leaf frame of each profile sample)\n%-12s", "layer")
	for _, r := range s.Traces {
		fmt.Fprintf(w, " %11s", r.Workload)
	}
	fmt.Fprintln(w)
	layers := map[string]bool{}
	for _, r := range s.Traces {
		for l := range r.CPUShare {
			layers[l] = true
		}
	}
	for _, l := range sortedKeys(layers) {
		fmt.Fprintf(w, "%-12s", l)
		for _, r := range s.Traces {
			fmt.Fprintf(w, " %10.1f%%", 100*r.CPUShare[l])
		}
		fmt.Fprintln(w)
	}

	for _, r := range s.Traces {
		fmt.Fprintf(w, "\nstage budget, %s (host ns per simulated node-cycle of the largest DataScalar machines)\n", r.Workload)
		printBudget(w, r.Budget)
	}

	fmt.Fprintln(w, "\nworkload design checks")
	for _, c := range designChecks(s) {
		fmt.Fprintln(w, "  "+c)
	}
}

func printBudget(w io.Writer, rows []budgetRow) {
	fmt.Fprintf(w, "  %-22s %10s %14s %14s %7s\n", "stage", "ns/op", "ops/node-cyc", "ns/node-cyc", "share")
	for _, b := range rows {
		fmt.Fprintf(w, "  %-22s %10.2f %14.4f %14.2f %6.1f%%\n", b.Stage, b.NsPerOp, b.OpsPerNodeCycle, b.NsPerNodeCycle, 100*b.Share)
	}
}

// designChecks are the claims the workload choice rests on, checked on
// the measured numbers.
func designChecks(s suiteResult) []string {
	share := func(w string, layers ...string) float64 {
		r, _ := s.trace(w)
		var x float64
		for _, l := range layers {
			x += r.CPUShare[l]
		}
		return x
	}
	setupFrac := func(w string) float64 {
		ws, _ := s.workload(w)
		return ratio(ws.Metrics["setup_s"].Value, ws.Metrics["wall_s"].Value)
	}
	check := func(ok bool, claim string, a, b float64) string {
		v := "holds"
		if !ok {
			v = "FAILS"
		}
		return fmt.Sprintf("%-5s %s (%.3f vs %.3f)", v, claim, a, b)
	}
	busMesh, busFig7 := share("mesh", "bus"), share("fig7", "bus")
	cpuFig7, cpuMesh := share("fig7", "ooo", "emu"), share("mesh", "ooo", "emu")
	sw, f7 := setupFrac("sweep8"), setupFrac("fig7")
	return []string{
		check(busMesh > busFig7, "bus.cpu_share is higher on mesh than on fig7", busMesh, busFig7),
		check(cpuFig7 > cpuMesh, "ooo+emu cpu_share is higher on fig7 than on mesh", cpuFig7, cpuMesh),
		check(sw > f7, "setup_s/wall_s is higher on sweep8 than on fig7", sw, f7),
	}
}
