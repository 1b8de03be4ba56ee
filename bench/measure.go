package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/wisc-arch/datascalar/internal/obs"
)

// metricDef names one reported metric. BENCHMARK.json repeats the
// end-to-end ones with their regression bounds (a test keeps the two
// lists in step).
type metricDef struct {
	Name, Unit, Better string
	// Target is, for a per-layer metric, the end-to-end metric and the
	// workloads it should move (and where it should stay flat).
	Target string
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off; measure documents how a run reduces its passes to one
// value each.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "sim_cycles_per_s", Unit: "cycles/s", Better: "higher"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "allocs_per_kcycle", Unit: "allocs/kcycle", Better: "lower"},
	{Name: "alloc_mb", Unit: "MB", Better: "lower"},
}

// pass is one execution of a workload's whole op grid.
type pass struct {
	Start    time.Time
	Wall     time.Duration
	Runs     []opRun
	Failures []string
}

// runPass executes every op once, in order, verifying each result as it
// lands; the pass's wall time runs from the first set-up call to the
// last verified result. observe, when non-nil, supplies op i's observer.
func runPass(ops []op, observe func(i int) obs.Observer, v *verifier) pass {
	p := pass{Start: time.Now(), Runs: make([]opRun, len(ops))}
	for i, o := range ops {
		var ob obs.Observer
		if observe != nil {
			ob = observe(i)
		}
		t := time.Now()
		// Each op starts from a collected heap, so peak RSS is the
		// footprint of the largest op rather than of whichever garbage
		// the collector had not yet reclaimed from earlier ones.
		runtime.GC()
		r, err := o.exec(ob)
		if err == nil {
			err = v.check(o, r)
		}
		if err != nil {
			p.Failures = append(p.Failures, fmt.Sprintf("%s: %v", o.Name, err))
		}
		r.Wall = time.Since(t)
		p.Runs[i] = r
	}
	p.Wall = time.Since(p.Start)
	return p
}

// values are the pass's end-to-end quantities (peak RSS is per process
// and is read separately).
func (p pass) values() map[string]float64 {
	var setup, run time.Duration
	var cycles, mallocs, alloc uint64
	for _, r := range p.Runs {
		setup += r.setup()
		run += r.Run
		cycles += r.Cycles
		mallocs += r.Mallocs
		alloc += r.AllocBytes
	}
	return map[string]float64{
		"wall_s":            p.Wall.Seconds(),
		"setup_s":           setup.Seconds(),
		"sim_cycles_per_s":  ratio(float64(cycles), run.Seconds()),
		"allocs_per_kcycle": ratio(float64(mallocs)*1000, float64(cycles)),
		"alloc_mb":          float64(alloc) / 1e6,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// verifier checks op results: against the committed golden digests when
// the seed has them, against the first pass's digests on every later
// pass, and against the invariants every run satisfies.
type verifier struct {
	golden map[string]string // op name → digest; nil when none is committed
	first  map[string]string
}

func newVerifier(golden map[string]string) *verifier {
	return &verifier{golden: golden, first: map[string]string{}}
}

func (v *verifier) check(o op, r opRun) error {
	if err := checkInvariants(o, r); err != nil {
		return err
	}
	if v.golden != nil {
		want, ok := v.golden[o.Name]
		if !ok {
			return fmt.Errorf("no golden digest")
		}
		if r.Digest != want {
			return fmt.Errorf("result digest %.12s differs from golden %.12s", r.Digest, want)
		}
	}
	if prev, ok := v.first[o.Name]; ok && prev != r.Digest {
		return fmt.Errorf("result digest %.12s differs from the first pass's %.12s", r.Digest, prev)
	}
	v.first[o.Name] = r.Digest
	return nil
}

// stat is a metric over a run's samples: its median (or single value)
// with the range and count behind it.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

func newStat(unit string, xs []float64) stat {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stat{Value: median(s), Unit: unit, Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// median of sorted values.
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailStats is a latency distribution reported as its median and the
// highest percentile with at least ten samples beyond it.
type tailStats struct {
	N      int     `json:"n"`
	P50Ms  float64 `json:"p50_ms"`
	Tail   string  `json:"tail,omitempty"` // e.g. "p90"; empty when fewer than 20 samples
	TailMs float64 `json:"tail_ms,omitempty"`
}

func newTailStats(ms []float64) tailStats {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	t := tailStats{N: len(s)}
	if len(s) == 0 {
		return t
	}
	t.P50Ms = median(s)
	for _, p := range []float64{99.9, 99, 90, 50} {
		if float64(len(s))*(100-p)/100 >= 10 {
			t.Tail = "p" + strconv.FormatFloat(p, 'f', -1, 64)
			t.TailMs = s[int(math.Ceil(float64(len(s))*p/100))-1]
			break
		}
	}
	return t
}

// runRecord is what one process measured for one workload. The last
// line of a run's output carries its metrics; -json writes the record.
type runRecord struct {
	Workload  string          `json:"workload"`
	Seed      uint64          `json:"seed"`
	Traced    bool            `json:"traced"`
	Host      hostInfo        `json:"host"`
	Passes    int             `json:"passes"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Failures  []string        `json:"failures,omitempty"`
	Metrics   map[string]stat `json:"metrics"`
	// OpTime is the per-op (set-up + run) host time over every pass.
	OpTime tailStats `json:"op_time"`
	// Traced runs only.
	CPUShare map[string]float64 `json:"cpu_share,omitempty"`
	Budget   []budgetRow        `json:"stage_budget,omitempty"`
	Events   map[string]uint64  `json:"events,omitempty"`
}

func (rec *runRecord) addFailures(p pass) {
	rec.Attempted += len(p.Runs)
	rec.Failed += len(p.Failures)
	rec.Failures = append(rec.Failures, p.Failures...)
}

// failFrac is (errors + golden mismatches) / ops attempted.
func (rec *runRecord) failFrac() float64 {
	return ratio(float64(rec.Failed), float64(rec.Attempted))
}

// minPasses is the fewest passes a timed run (seconds > 0) makes, so
// that its statistics rest on more than one or two samples.
const minPasses = 3

// measure runs a workload's op grid untraced, pass after pass, until
// seconds have elapsed and at least minPasses passes are done (one pass
// when seconds is 0). Counts, sizes and setup_s are medians over the
// passes. Host time (wall_s, and the Run time behind sim_cycles_per_s)
// is summed over the ops from each op's fastest pass: every pass repeats
// identical deterministic work and interference from the rest of the
// machine only ever slows an op down, so each op's fastest run is its
// least disturbed one. Min and max stay whole-pass values.
func measure(w workloadDef, seed uint64, seconds float64, golden map[string]string) runRecord {
	ops := w.Ops(seed, fullBudgets)
	v := newVerifier(golden)
	rec := runRecord{Workload: w.Name, Seed: seed, Host: host(), Metrics: map[string]stat{}}
	samples := map[string][]float64{}
	bestWall := make([]time.Duration, len(ops))
	bestRun := make([]time.Duration, len(ops))
	var cycles uint64
	var opMs []float64
	start := time.Now()
	for {
		p := runPass(ops, nil, v)
		rec.Passes++
		rec.addFailures(p)
		for k, x := range p.values() {
			samples[k] = append(samples[k], x)
		}
		cycles = 0
		for i, r := range p.Runs {
			if rec.Passes == 1 || r.Wall < bestWall[i] {
				bestWall[i] = r.Wall
			}
			if rec.Passes == 1 || r.Run < bestRun[i] {
				bestRun[i] = r.Run
			}
			cycles += r.Cycles
			opMs = append(opMs, float64(r.setup()+r.Run)/1e6)
		}
		if seconds <= 0 || rec.Passes >= minPasses && time.Since(start).Seconds() >= seconds {
			break
		}
	}
	for _, m := range endToEnd {
		if xs, ok := samples[m.Name]; ok {
			rec.Metrics[m.Name] = newStat(m.Unit, xs)
		}
	}
	var wall, run time.Duration
	for i := range ops {
		wall += bestWall[i]
		run += bestRun[i]
	}
	setValue := func(k string, x float64) {
		st := rec.Metrics[k]
		st.Value = x
		rec.Metrics[k] = st
	}
	setValue("wall_s", wall.Seconds())
	setValue("sim_cycles_per_s", ratio(float64(cycles), run.Seconds()))
	rss := peakRSSMB()
	rec.Metrics["peak_rss_mb"] = stat{Value: rss, Unit: "MB", Min: rss, Max: rss, N: 1}
	rec.OpTime = newTailStats(opMs)
	return rec
}

// hostInfo identifies the machine a measurement was taken on.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	OS         string `json:"goos"`
	Arch       string `json:"goarch"`
}

func host() hostInfo {
	h := hostInfo{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH}
	if v, ok := procField("/proc/cpuinfo", "model name"); ok {
		h.CPU = v
	}
	return h
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB, or 0 where
// /proc is unavailable.
func peakRSSMB() float64 {
	v, ok := procField("/proc/self/status", "VmHWM")
	if !ok {
		return 0
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0
	}
	return kb * 1024 / 1e6
}

// procField returns the value of the first "key: value" line of a /proc
// file.
func procField(path, key string) (string, bool) {
	f, err := os.Open(path)
	if err != nil {
		return "", false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v), true
		}
	}
	return "", false
}
