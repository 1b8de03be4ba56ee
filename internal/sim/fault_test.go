package sim

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"github.com/wisc-arch/datascalar/internal/bus"
	"github.com/wisc-arch/datascalar/internal/fault"
)

// campaignConfig is a grid small enough for CI whose outcomes are
// nevertheless pinned: each scenario is tuned so its class resolves the
// same way on every seed (drops always detected and retried, blind
// flips always silent, death always mid-run).
func campaignConfig() FaultCampaignConfig {
	retry := fault.Config{RetryTimeoutCycles: 1_000, MaxRetries: 6}
	return FaultCampaignConfig{
		Workloads: []string{"compress", "mgrid"},
		Seeds:     2,
		Nodes:     2,
		MaxInstr:  40_000,
		Scenarios: []FaultScenario{
			{Name: "drop", Class: fault.ClassDrop, Rate: 0.05,
				Base: withRates(retry, 0.05, 0, 0)},
			{Name: "delay", Class: fault.ClassDelay, Rate: 0.2,
				Base: fault.Config{DelayRate: 0.2, DelayMaxCycles: 150}},
			{Name: "flip-fp", Class: fault.ClassFlip, Rate: 0.01,
				Base: fault.Config{FlipRate: 0.01, FingerprintInterval: 128}},
			{Name: "flip-blind", Class: fault.ClassFlip, Rate: 0.01,
				Base: fault.Config{FlipRate: 0.01}},
			{Name: "death-recover", Class: fault.ClassDeath,
				Base: fault.Config{Deaths: []fault.Death{{Node: 1, Cycle: 5_000}}, Recover: true,
					RetryTimeoutCycles: 1_000, MaxRetries: 3}},
			{Name: "death-halt", Class: fault.ClassDeath,
				Base: fault.Config{Deaths: []fault.Death{{Node: 1, Cycle: 5_000}},
					RetryTimeoutCycles: 1_000, MaxRetries: 3}},
		},
	}
}

func summaryByName(t *testing.T, r FaultCampaignResult, name string) FaultScenarioSummary {
	t.Helper()
	for _, s := range r.Summaries {
		if s.Scenario == name {
			return s
		}
	}
	t.Fatalf("no summary for scenario %q", name)
	return FaultScenarioSummary{}
}

// TestFaultCampaignOutcomes runs the pinned grid and checks each fault
// class lands in its designed outcome: no scenario may ever produce a
// silent wrong answer except the deliberately blind one, and nothing may
// wedge into the watchdog.
func TestFaultCampaignOutcomes(t *testing.T) {
	r, err := FaultCampaign(context.Background(), detOpts(0), campaignConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range r.Summaries {
		if s.Watchdog != 0 {
			t.Errorf("%s: %d runs hit the watchdog instead of detection", s.Scenario, s.Watchdog)
		}
		if s.Scenario != "flip-blind" && s.Corrupt != 0 {
			t.Errorf("%s: %d silently corrupted runs", s.Scenario, s.Corrupt)
		}
	}

	drop := summaryByName(t, r, "drop")
	if drop.Clean != drop.Runs {
		t.Errorf("drop: want all %d runs clean, got %+v", drop.Runs, drop)
	}
	if drop.Coverage <= 0 || drop.MeanDetectLatency <= 0 {
		t.Errorf("drop: no detection metrics: %+v", drop)
	}

	delay := summaryByName(t, r, "delay")
	if delay.Clean != delay.Runs {
		t.Errorf("delay: want all runs clean, got %+v", delay)
	}

	fp := summaryByName(t, r, "flip-fp")
	if fp.Halted == 0 {
		t.Errorf("flip-fp: fingerprint exchange never halted a corrupted run: %+v", fp)
	}

	blind := summaryByName(t, r, "flip-blind")
	if blind.Corrupt == 0 {
		t.Errorf("flip-blind: expected silent corruption without the exchange: %+v", blind)
	}

	rec := summaryByName(t, r, "death-recover")
	if rec.Recover != rec.Runs {
		t.Errorf("death-recover: want all %d runs recovered, got %+v", rec.Runs, rec)
	}

	halt := summaryByName(t, r, "death-halt")
	if halt.Halted != halt.Runs {
		t.Errorf("death-halt: want all %d runs halted-clean, got %+v", halt.Runs, halt)
	}

	// Per-run plausibility: recovered runs kept their baseline for the
	// overhead metric, halted runs carry the report text.
	for _, run := range r.Runs {
		switch run.Outcome {
		case OutcomeHalted, OutcomeWatchdog:
			if run.Detail == "" {
				t.Errorf("%s/%s: halted without a report", run.Workload, run.Scenario)
			}
		default:
			if run.Cycles == 0 {
				t.Errorf("%s/%s: completed run has no cycle count", run.Workload, run.Scenario)
			}
		}
		if run.Stats == nil {
			t.Errorf("%s/%s: missing fault stats", run.Workload, run.Scenario)
		}
	}
	if r.Table().NumRows() != len(r.Summaries) {
		t.Error("summary table row count mismatch")
	}
	// Single-death scenarios are not a cascade family: no survival curve.
	if len(r.Survival) != 0 {
		t.Errorf("grid without cascade scenarios produced a survival curve: %+v", r.Survival)
	}
}

// TestFaultCampaignDeterministic: the same campaign config must yield a
// byte-identical JSON artifact serially and on a 4-way pool — seeded
// fault plans may not leak any scheduling nondeterminism.
func TestFaultCampaignDeterministic(t *testing.T) {
	cc := campaignConfig()
	var artifacts [][]byte
	var results []FaultCampaignResult
	for _, par := range []int{1, 4} {
		r, err := FaultCampaign(context.Background(), detOpts(par), cc)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, r); err != nil {
			t.Fatal(err)
		}
		artifacts = append(artifacts, buf.Bytes())
		results = append(results, r)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatal("campaign results differ between -parallel 1 and 4")
	}
	if !bytes.Equal(artifacts[0], artifacts[1]) {
		t.Fatal("campaign JSON artifacts differ between -parallel 1 and 4")
	}
}

// TestFaultCampaignTopologyFromOptions: a topology chosen through
// Options, with the campaign's own left zero, is the one every run uses
// and the one the artifact and the survival table name — the same
// campaign as pinning it in FaultCampaignConfig.
func TestFaultCampaignTopologyFromOptions(t *testing.T) {
	cc := FaultCampaignConfig{Workloads: []string{"compress"}, Seeds: 1, MaxInstr: 10_000, Deaths: 1}
	viaOpts := detOpts(1)
	viaOpts.Topology = bus.TopoRing
	got, err := FaultCampaign(context.Background(), viaOpts, cc)
	if err != nil {
		t.Fatal(err)
	}
	pinned := cc
	pinned.Topology = bus.TopoRing
	want, err := FaultCampaign(context.Background(), detOpts(1), pinned)
	if err != nil {
		t.Fatal(err)
	}
	if got.Topology != "ring" {
		t.Errorf("artifact names topology %q, want ring", got.Topology)
	}
	if title := got.SurvivalTable().String(); !strings.Contains(title, "on ring") {
		t.Errorf("survival table does not name the ring:\n%s", title)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ring through Options differs from ring through the campaign config:\nopts:   %+v\nconfig: %+v", got, want)
	}
	onBus, err := FaultCampaign(context.Background(), detOpts(1), cc)
	if err != nil {
		t.Fatal(err)
	}
	if onBus.Topology != "bus" || onBus.Runs[0].Cycles == got.Runs[0].Cycles {
		t.Fatalf("bus campaign (%s, %d cycles) indistinguishable from the ring one (%d cycles)",
			onBus.Topology, onBus.Runs[0].Cycles, got.Runs[0].Cycles)
	}
}

// TestCascadeCampaign64Mesh is the scale acceptance test for graceful
// degradation: a three-deep sequential-death cascade on a 64-node mesh
// must complete degraded at every depth (a monotone survival curve at
// 100%), and -parallel-nodes 4 must not change a byte of the campaign
// JSON: fault runs always take the serial node loop, and only the
// fault-free baselines are partitioned.
func TestCascadeCampaign64Mesh(t *testing.T) {
	cc := FaultCampaignConfig{
		Workloads: []string{"compress"},
		Seeds:     1,
		Nodes:     64,
		MaxInstr:  20_000,
		Topology:  bus.TopoMesh,
		Deaths:    3,
	}
	run := func(parallelNodes int) (FaultCampaignResult, []byte) {
		opts := detOpts(1)
		opts.ParallelNodes = parallelNodes
		r, err := FaultCampaign(context.Background(), opts, cc)
		if err != nil {
			t.Fatalf("parallel-nodes=%d: %v", parallelNodes, err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, r); err != nil {
			t.Fatalf("parallel-nodes=%d: %v", parallelNodes, err)
		}
		return r, buf.Bytes()
	}

	serial, serialJSON := run(1)
	if len(serial.Survival) != 3 {
		t.Fatalf("survival curve has %d points, want 3", len(serial.Survival))
	}
	for i, p := range serial.Survival {
		if p.Deaths != i+1 || p.Runs != 1 || p.Survived != 1 || p.Rate != 1 {
			t.Errorf("survival point %d: %+v", i, p)
		}
	}
	for _, r := range serial.Runs {
		if r.Outcome != OutcomeRecovered {
			t.Errorf("%s/%s: outcome %s, want recovered (%s)",
				r.Workload, r.Scenario, r.Outcome, r.Detail)
		}
		if r.Stats == nil || len(r.Stats.Deaths) == 0 {
			t.Errorf("%s/%s: no deaths landed", r.Workload, r.Scenario)
		}
	}
	if tb := serial.SurvivalTable(); tb == nil || tb.NumRows() != 3 {
		t.Error("survival table missing or wrong size")
	}

	par, parJSON := run(4)
	if !reflect.DeepEqual(serial, par) {
		t.Fatal("parallel-nodes=4 changed the cascade campaign result")
	}
	if !bytes.Equal(serialJSON, parJSON) {
		t.Fatal("parallel-nodes=4 changed the cascade campaign JSON artifact")
	}
}
