package sim

import (
	"context"
	"errors"
	"fmt"

	"github.com/wisc-arch/datascalar/internal/bus"
	"github.com/wisc-arch/datascalar/internal/core"
	"github.com/wisc-arch/datascalar/internal/fault"
	"github.com/wisc-arch/datascalar/internal/stats"
	"github.com/wisc-arch/datascalar/internal/workload"
)

// The fault-injection campaign harness: a sweep over (workload × fault
// scenario × seed) that runs each DataScalar simulation under a seeded
// fault plan, classifies the outcome, and aggregates detection coverage,
// detection latency, and retry overhead per scenario. Like every other
// harness it runs on the experiment engine, so a campaign is
// bit-reproducible at any Options.Parallel setting.

// FaultScenario is one fault class at one intensity. Base carries the
// class-specific knobs; the campaign stamps a distinct seed per run.
type FaultScenario struct {
	Name  string      `json:"name"`
	Class fault.Class `json:"class"`
	// Rate is the scenario's headline intensity (events per eligible
	// arrival for drops/delays/flips; unused for death scenarios).
	Rate float64      `json:"rate"`
	Base fault.Config `json:"base"`
	// cascade marks the CascadeScenarios family, whose runs the campaign
	// folds into a survival curve.
	cascade bool
}

// DefaultFaultScenarios is the standard campaign grid: transient drops
// at two rates, delivery jitter, payload corruption under the
// fingerprint exchange, and a permanent node death with and without
// recovery.
func DefaultFaultScenarios() []FaultScenario {
	retry := fault.Config{RetryTimeoutCycles: 2_000, MaxRetries: 6}
	death := fault.Config{
		Deaths:             []fault.Death{{Node: 1, Cycle: 30_000}},
		RetryTimeoutCycles: 2_000, MaxRetries: 4,
	}
	return []FaultScenario{
		{Name: "drop-1%", Class: fault.ClassDrop, Rate: 0.01,
			Base: withRates(retry, 0.01, 0, 0)},
		{Name: "drop-5%", Class: fault.ClassDrop, Rate: 0.05,
			Base: withRates(retry, 0.05, 0, 0)},
		{Name: "delay-10%", Class: fault.ClassDelay, Rate: 0.10,
			Base: fault.Config{DelayRate: 0.10, DelayMaxCycles: 200}},
		{Name: "flip-fp", Class: fault.ClassFlip, Rate: 0.002,
			Base: fault.Config{FlipRate: 0.002, FingerprintInterval: 256}},
		{Name: "flip-blind", Class: fault.ClassFlip, Rate: 0.002,
			Base: fault.Config{FlipRate: 0.002}},
		{Name: "death-recover", Class: fault.ClassDeath, Rate: 0,
			Base: withRecover(death, true)},
		{Name: "death-halt", Class: fault.ClassDeath, Rate: 0,
			Base: withRecover(death, false)},
	}
}

func withRates(c fault.Config, drop, delay, flip float64) fault.Config {
	c.DropRate, c.DelayRate, c.FlipRate = drop, delay, flip
	return c
}

func withRecover(c fault.Config, rec bool) fault.Config {
	c.Recover = rec
	return c
}

// Cascade schedule shape: the first death lands after the machine has
// warmed up, and successors are spaced far enough apart that detection
// (MaxRetries × the backoff-capped timeout) and re-replication complete
// between deaths — each death in the sequence tests a freshly remapped
// ownership map, not a half-recovered one.
const (
	cascadeFirstDeathCycle = 4_000
	cascadeDeathSpacing    = 8_000
)

// CascadeScenarios builds the sequential-death scenario family:
// cascade-k kills nodes 1..k in ring order at spaced cycles with
// recovery enabled, so the campaign measures how deep a death sequence
// the re-replication path survives. Every scenario needs a machine of
// at least depth+1 nodes.
func CascadeScenarios(depth int) []FaultScenario {
	out := make([]FaultScenario, 0, depth)
	for k := 1; k <= depth; k++ {
		deaths := make([]fault.Death, k)
		for j := range deaths {
			deaths[j] = fault.Death{
				Node:  j + 1,
				Cycle: cascadeFirstDeathCycle + uint64(j)*cascadeDeathSpacing,
			}
		}
		out = append(out, FaultScenario{
			Name:    fmt.Sprintf("cascade-%d", k),
			Class:   fault.ClassDeath,
			cascade: true,
			Base: fault.Config{
				Deaths:  deaths,
				Recover: true,
				// The backoff cap keeps detection latency bounded so the
				// next death in the schedule always hits a remapped machine.
				RetryTimeoutCycles:    1_000,
				RetryBackoffCapCycles: 1_000,
				MaxRetries:            4,
			},
		})
	}
	return out
}

// FaultCampaignConfig bounds a campaign. Zero fields take defaults.
type FaultCampaignConfig struct {
	// Workloads names the registry benchmarks to inject into (default:
	// compress, mgrid, go — one integer, one floating-point, one
	// pointer-heavy timing kernel).
	Workloads []string
	// Scenarios is the fault grid (default: DefaultFaultScenarios).
	Scenarios []FaultScenario
	// Seeds is the number of distinct fault seeds per (workload,
	// scenario) cell (default 3).
	Seeds int
	// Nodes is the DataScalar machine size (default 2, or Deaths+1 for
	// cascade campaigns).
	Nodes int
	// MaxInstr bounds each run's measured instructions (default
	// Options.SweepInstr).
	MaxInstr uint64
	// Topology selects the interconnect for every run, baseline
	// included (default Options.Topology, which defaults to bus).
	Topology bus.TopologyKind
	// Deaths, when positive, replaces the default scenario grid with
	// the cascade family CascadeScenarios(Deaths) — sequential owner
	// deaths of increasing depth, reported as a survival curve.
	// Ignored when Scenarios is set explicitly.
	Deaths int
}

func (c FaultCampaignConfig) withDefaults(opts Options) FaultCampaignConfig {
	if len(c.Workloads) == 0 {
		c.Workloads = []string{"compress", "mgrid", "go"}
	}
	if len(c.Scenarios) == 0 {
		if c.Deaths > 0 {
			c.Scenarios = CascadeScenarios(c.Deaths)
		} else {
			c.Scenarios = DefaultFaultScenarios()
		}
	}
	if c.Seeds <= 0 {
		c.Seeds = 3
	}
	if c.Nodes <= 0 {
		c.Nodes = 2
		if c.Deaths > 0 {
			c.Nodes = c.Deaths + 1
		}
	}
	if c.MaxInstr == 0 {
		c.MaxInstr = opts.SweepInstr
	}
	if c.Topology == bus.TopoBus {
		c.Topology = opts.Topology
	}
	return c
}

// Campaign outcome classes.
const (
	// OutcomeClean: the run completed with nothing to detect left
	// undetected.
	OutcomeClean = "clean"
	// OutcomeRecovered: a node died and the machine finished degraded on
	// the survivors.
	OutcomeRecovered = "recovered"
	// OutcomeHalted: the machine stopped itself with a structured
	// fault.Report — detected, no wrong answer published.
	OutcomeHalted = "halted-clean"
	// OutcomeCorrupted: the run completed but carried injected payload
	// corruption it never detected — the silent failure the detection
	// layers exist to prevent.
	OutcomeCorrupted = "corrupted"
	// OutcomeWatchdog: the deadlock watchdog fired — the fault wedged
	// the protocol instead of being detected and explained.
	OutcomeWatchdog = "watchdog"
)

// FaultRun is one simulation of the campaign grid.
type FaultRun struct {
	Workload string      `json:"workload"`
	Scenario string      `json:"scenario"`
	Class    fault.Class `json:"class"`
	Seed     uint64      `json:"seed"`
	Outcome  string      `json:"outcome"`
	// Cycles is the run length (0 for halted/watchdog runs);
	// BaselineCycles the fault-free run of the same workload.
	Cycles         uint64 `json:"cycles"`
	BaselineCycles uint64 `json:"baseline_cycles"`
	// OverheadPct is the slowdown over the fault-free baseline, percent
	// (completed runs only).
	OverheadPct float64 `json:"overhead_pct"`
	// Injected counts detectable injected faults (drops + flips + death);
	// Detected how many of them the machine caught.
	Injected uint64 `json:"injected"`
	Detected uint64 `json:"detected"`
	// MeanDetectLatency is the mean cycles from injection to detection.
	MeanDetectLatency float64 `json:"mean_detect_latency"`
	Retries           uint64  `json:"retries"`
	// Detail is the structured failure text for halted/watchdog runs.
	Detail string       `json:"detail,omitempty"`
	Stats  *fault.Stats `json:"stats,omitempty"`
}

// FaultScenarioSummary aggregates one scenario across workloads and
// seeds.
type FaultScenarioSummary struct {
	Scenario string      `json:"scenario"`
	Class    fault.Class `json:"class"`
	Rate     float64     `json:"rate"`
	Runs     int         `json:"runs"`
	Clean    int         `json:"clean"`
	Recover  int         `json:"recovered"`
	Halted   int         `json:"halted_clean"`
	Corrupt  int         `json:"corrupted"`
	Watchdog int         `json:"watchdog"`
	// Coverage is detected/injected over the whole scenario (1 when
	// nothing detectable was injected).
	Coverage float64 `json:"coverage"`
	// MeanDetectLatency is detection-weighted, in cycles.
	MeanDetectLatency float64 `json:"mean_detect_latency"`
	// MeanOverheadPct averages the slowdown of completed runs.
	MeanOverheadPct float64 `json:"mean_overhead_pct"`
}

// SurvivalPoint is one x-position of a survival curve: of the runs
// scheduled for this many deaths, how many finished their work degraded
// instead of halting or wedging, and how fast the final survivor set
// ran.
type SurvivalPoint struct {
	// Deaths is the scheduled cascade depth (the scenario's plan), and
	// MeanDeathsSeen the mean deaths that actually landed before the
	// runs ended — lower when a run finishes ahead of a late death.
	Deaths         int     `json:"deaths"`
	MeanDeathsSeen float64 `json:"mean_deaths_seen"`
	Runs           int     `json:"runs"`
	Survived       int     `json:"survived"`
	// Rate is Survived/Runs.
	Rate float64 `json:"rate"`
	// MeanPostDeathIPC averages the survivors' throughput after the last
	// death that landed (DeathStats.PostDeathIPC), over surviving runs
	// that saw at least one death.
	MeanPostDeathIPC float64 `json:"mean_post_death_ipc"`
	// MeanOverheadPct averages the slowdown of surviving runs over the
	// fault-free baseline.
	MeanOverheadPct float64 `json:"mean_overhead_pct"`
}

// FaultCampaignResult is the whole campaign. Execution details that do
// not change the numbers (worker counts) are deliberately absent, so
// the artifact is byte-identical at any -parallel / -parallel-nodes
// setting.
type FaultCampaignResult struct {
	Nodes     int                    `json:"nodes"`
	MaxInstr  uint64                 `json:"max_instr"`
	Topology  string                 `json:"topology"`
	Runs      []FaultRun             `json:"runs"`
	Summaries []FaultScenarioSummary `json:"summaries"`
	// Survival is the survival curve over cascade scenarios (those
	// CascadeScenarios built), one point per scheduled depth; empty for
	// campaigns without cascade scenarios.
	Survival []SurvivalPoint `json:"survival,omitempty"`
}

// Table renders the per-scenario summary.
func (r FaultCampaignResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Fault campaign: %d-node DataScalar, %d runs", r.Nodes, len(r.Runs)),
		"scenario", "class", "runs", "clean", "recovered", "halted", "corrupted",
		"watchdog", "coverage", "detect lat (cyc)", "overhead")
	for _, s := range r.Summaries {
		t.AddRow(s.Scenario, s.Class.String(),
			fmt.Sprintf("%d", s.Runs), fmt.Sprintf("%d", s.Clean),
			fmt.Sprintf("%d", s.Recover), fmt.Sprintf("%d", s.Halted),
			fmt.Sprintf("%d", s.Corrupt), fmt.Sprintf("%d", s.Watchdog),
			stats.FormatPercent(s.Coverage*100),
			fmt.Sprintf("%.0f", s.MeanDetectLatency),
			stats.FormatPercent1(s.MeanOverheadPct))
	}
	return t
}

// SurvivalTable renders the survival curve; nil when the campaign had
// no cascade scenarios.
func (r FaultCampaignResult) SurvivalTable() *stats.Table {
	if len(r.Survival) == 0 {
		return nil
	}
	t := stats.NewTable(
		fmt.Sprintf("Survival curve: %d-node DataScalar on %s", r.Nodes, r.Topology),
		"deaths", "seen", "runs", "survived", "rate", "post-death IPC", "overhead")
	for _, p := range r.Survival {
		t.AddRow(fmt.Sprintf("%d", p.Deaths),
			fmt.Sprintf("%.1f", p.MeanDeathsSeen),
			fmt.Sprintf("%d", p.Runs), fmt.Sprintf("%d", p.Survived),
			stats.FormatPercent(p.Rate*100),
			fmt.Sprintf("%.3f", p.MeanPostDeathIPC),
			stats.FormatPercent1(p.MeanOverheadPct))
	}
	return t
}

// FaultCampaign runs the campaign: a fault-free baseline per workload,
// then every (workload × scenario × seed) cell with CaptureFailure so
// detected halts and watchdog aborts become classified outcomes instead
// of sweep errors. Campaigns are deterministic: seeds derive from grid
// position alone, so the same config reproduces the same table bit for
// bit, serial or parallel.
func FaultCampaign(ctx context.Context, opts Options, cc FaultCampaignConfig) (FaultCampaignResult, error) {
	opts = opts.withDefaults()
	opts.Fault = fault.Config{} // baselines must stay fault-free
	cc = cc.withDefaults(opts)

	var out FaultCampaignResult
	out.Nodes = cc.Nodes
	out.MaxInstr = cc.MaxInstr
	out.Topology = cc.Topology.String()

	ws := make([]workload.Workload, len(cc.Workloads))
	for i, name := range cc.Workloads {
		w, ok := workload.ByName(name)
		if !ok {
			return out, fmt.Errorf("sim: fault campaign: unknown workload %q", name)
		}
		ws[i] = w
	}

	// Phase 1: fault-free baselines for the overhead denominator.
	base := make([]Job, len(ws))
	for i, w := range ws {
		base[i] = Job{Workload: w, Kind: KindDS,
			Nodes: cc.Nodes, MaxInstr: cc.MaxInstr, Topology: cc.Topology}
	}
	baseRes, err := runJobs(ctx, opts, base)
	if err != nil {
		return out, err
	}

	// Phase 2: the grid.
	type cell struct {
		wi, si int
		seed   uint64
	}
	var cells []cell
	var jobs []Job
	for wi, w := range ws {
		for si, sc := range cc.Scenarios {
			for k := 0; k < cc.Seeds; k++ {
				fc := sc.Base
				fc.Seed = fault.Mix64(uint64(wi+1)<<40 | uint64(si+1)<<16 | uint64(k+1))
				cells = append(cells, cell{wi, si, fc.Seed})
				jobs = append(jobs, Job{Workload: w,
					Kind: KindDS, Nodes: cc.Nodes, MaxInstr: cc.MaxInstr,
					Topology: cc.Topology, Fault: fc, CaptureFailure: true})
			}
		}
	}
	res, err := runJobs(ctx, opts, jobs)
	if err != nil {
		return out, err
	}

	for i, c := range cells {
		sc := cc.Scenarios[c.si]
		run := FaultRun{
			Workload: ws[c.wi].Name, Scenario: sc.Name, Class: sc.Class,
			Seed:           c.seed,
			BaselineCycles: baseRes[c.wi].DS.Cycles,
			Stats:          res[i].FaultStats,
		}
		run.Outcome = classifyFaultOutcome(res[i])
		if res[i].Failure != nil {
			run.Detail = res[i].Failure.Error()
		} else {
			run.Cycles = res[i].DS.Cycles
			if run.BaselineCycles > 0 && run.Cycles > run.BaselineCycles {
				run.OverheadPct = 100 * float64(run.Cycles-run.BaselineCycles) /
					float64(run.BaselineCycles)
			}
		}
		if st := res[i].FaultStats; st != nil {
			run.Injected = st.InjectedDrops + st.InjectedFlips + uint64(len(st.Deaths))
			run.Detected = st.DetectedDrops + st.DetectedFlips
			for _, d := range st.Deaths {
				if d.Detected {
					run.Detected++
				}
			}
			run.MeanDetectLatency = st.MeanDetectLatency()
			run.Retries = st.Retries
		}
		out.Runs = append(out.Runs, run)
	}

	for si, sc := range cc.Scenarios {
		s := FaultScenarioSummary{Scenario: sc.Name, Class: sc.Class, Rate: sc.Rate}
		var injected, detected, latSum, detections uint64
		var overheadSum float64
		var completed int
		for i, c := range cells {
			if c.si != si {
				continue
			}
			run := out.Runs[i]
			s.Runs++
			switch run.Outcome {
			case OutcomeClean:
				s.Clean++
			case OutcomeRecovered:
				s.Recover++
			case OutcomeHalted:
				s.Halted++
			case OutcomeCorrupted:
				s.Corrupt++
			case OutcomeWatchdog:
				s.Watchdog++
			}
			injected += run.Injected
			detected += run.Detected
			if st := run.Stats; st != nil {
				latSum += st.DetectLatencySum
				detections += st.Detections
			}
			if run.Cycles > 0 {
				overheadSum += run.OverheadPct
				completed++
			}
		}
		s.Coverage = 1
		if injected > 0 {
			s.Coverage = float64(detected) / float64(injected)
		}
		if detections > 0 {
			s.MeanDetectLatency = float64(latSum) / float64(detections)
		}
		if completed > 0 {
			s.MeanOverheadPct = overheadSum / float64(completed)
		}
		out.Summaries = append(out.Summaries, s)
	}

	// Survival curve: one point per cascade scenario, in scenario order,
	// which CascadeScenarios emits by increasing depth.
	for si, sc := range cc.Scenarios {
		if !sc.cascade {
			continue
		}
		p := SurvivalPoint{Deaths: len(sc.Base.Deaths)}
		var seen int
		var ipcSum float64
		var ipcRuns int
		var overheadSum float64
		for i, c := range cells {
			if c.si != si {
				continue
			}
			run := out.Runs[i]
			p.Runs++
			if st := run.Stats; st != nil {
				seen += len(st.Deaths)
			}
			if run.Outcome != OutcomeClean && run.Outcome != OutcomeRecovered {
				continue
			}
			p.Survived++
			overheadSum += run.OverheadPct
			if st := run.Stats; st != nil && len(st.Deaths) > 0 {
				if ipc := st.Deaths[len(st.Deaths)-1].PostDeathIPC; ipc > 0 {
					ipcSum += ipc
					ipcRuns++
				}
			}
		}
		if p.Runs > 0 {
			p.MeanDeathsSeen = float64(seen) / float64(p.Runs)
			p.Rate = float64(p.Survived) / float64(p.Runs)
		}
		if ipcRuns > 0 {
			p.MeanPostDeathIPC = ipcSum / float64(ipcRuns)
		}
		if p.Survived > 0 {
			p.MeanOverheadPct = overheadSum / float64(p.Survived)
		}
		out.Survival = append(out.Survival, p)
	}
	return out, nil
}

// classifyFaultOutcome maps one captured job result to its campaign
// outcome class.
func classifyFaultOutcome(r JobResult) string {
	if r.Failure != nil {
		var rep *fault.Report
		if errors.As(r.Failure, &rep) {
			return OutcomeHalted
		}
		var dl *core.DeadlockError
		if errors.As(r.Failure, &dl) {
			return OutcomeWatchdog
		}
		return OutcomeWatchdog // unreachable: CaptureFailure only keeps the two
	}
	st := r.FaultStats
	if st == nil {
		return OutcomeClean
	}
	if st.InjectedFlips > 0 && st.DetectedFlips == 0 {
		return OutcomeCorrupted
	}
	// A completed run with any landed death finished degraded — even when
	// no survivor ever referenced the dead owner's pages, so detection
	// (and Degraded) never triggered.
	if st.Degraded || len(st.Deaths) > 0 {
		return OutcomeRecovered
	}
	return OutcomeClean
}
