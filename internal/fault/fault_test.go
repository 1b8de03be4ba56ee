package fault

import (
	"math"
	"reflect"
	"testing"
)

func TestZeroConfigDisabled(t *testing.T) {
	var c Config
	if c.Enabled() {
		t.Fatal("zero Config must be disabled")
	}
	c.RetryTimeoutCycles = 5 // detection knobs alone do not enable injection
	if c.Enabled() {
		t.Fatal("retry tuning alone must not enable the fault layer")
	}
	c.FingerprintInterval = 64
	if !c.Enabled() {
		t.Fatal("fingerprint exchange enables the layer")
	}
}

func TestPlanDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, DropRate: 0.3, DelayRate: 0.2, FlipRate: 0.1}.WithDefaults()
	a, b := NewPlan(cfg), NewPlan(cfg)
	for seq := uint64(0); seq < 2000; seq++ {
		addr := seq * 32
		if a.DropArrival(0, 1, addr, seq) != b.DropArrival(0, 1, addr, seq) {
			t.Fatalf("drop decision diverged at seq %d", seq)
		}
		if da, db := a.DelayExtra(0, addr, seq), b.DelayExtra(0, addr, seq); da != db {
			t.Fatalf("delay diverged at seq %d: %d vs %d", seq, da, db)
		}
		ta, oka := a.FlipArrival(0, 1, addr, seq)
		tb, okb := b.FlipArrival(0, 1, addr, seq)
		if oka != okb || ta != tb {
			t.Fatalf("flip diverged at seq %d", seq)
		}
	}
}

func TestPlanRates(t *testing.T) {
	// Empirical rates over many trials should be near the configured
	// probability: the mixing function is the only randomness source.
	cfg := Config{Seed: 7, DropRate: 0.25}.WithDefaults()
	p := NewPlan(cfg)
	const n = 50_000
	drops := 0
	for seq := uint64(0); seq < n; seq++ {
		if p.DropArrival(2, 3, seq*64, seq) {
			drops++
		}
	}
	got := float64(drops) / n
	if math.Abs(got-0.25) > 0.02 {
		t.Fatalf("empirical drop rate %.4f, want ~0.25", got)
	}
}

func TestPlanZeroRatesNeverFire(t *testing.T) {
	p := NewPlan(Config{Seed: 9, FingerprintInterval: 32}.WithDefaults())
	for seq := uint64(0); seq < 5000; seq++ {
		if p.DropArrival(0, 1, seq, seq) {
			t.Fatal("rate-0 drop fired")
		}
		if p.DelayExtra(0, seq, seq) != 0 {
			t.Fatal("rate-0 delay fired")
		}
		if _, ok := p.FlipArrival(0, 1, seq, seq); ok {
			t.Fatal("rate-0 flip fired")
		}
	}
}

func TestDelayBounded(t *testing.T) {
	cfg := Config{Seed: 3, DelayRate: 1, DelayMaxCycles: 17}.WithDefaults()
	p := NewPlan(cfg)
	for seq := uint64(0); seq < 5000; seq++ {
		d := p.DelayExtra(1, seq*32, seq)
		if d < 1 || d > 17 {
			t.Fatalf("delay %d outside [1,17]", d)
		}
	}
}

func TestSeedsIndependent(t *testing.T) {
	a := NewPlan(Config{Seed: 1, DropRate: 0.5}.WithDefaults())
	b := NewPlan(Config{Seed: 2, DropRate: 0.5}.WithDefaults())
	same := 0
	const n = 4096
	for seq := uint64(0); seq < n; seq++ {
		if a.DropArrival(0, 1, seq*32, seq) == b.DropArrival(0, 1, seq*32, seq) {
			same++
		}
	}
	// Two independent seeds agree on roughly half the decisions.
	if same < n/3 || same > 2*n/3 {
		t.Fatalf("seeds look correlated: %d/%d identical decisions", same, n)
	}
}

// TestValidate checks every structural line item individually: each
// contradictory schedule must fail with a message naming the defect.
func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error; "" = must pass
	}{
		{"ok-zero", Config{}, ""},
		{"ok-rates", Config{Seed: 1, DropRate: 0.5, DelayRate: 0.1, FlipRate: 0.01}, ""},
		{"ok-schedule", Config{Deaths: []Death{{Node: 1, Cycle: 10}, {Node: 2, Cycle: 20}}}, ""},
		{"drop-rate-high", Config{DropRate: 1.5}, "drop rate 1.5 outside [0,1]"},
		{"drop-rate-negative", Config{DropRate: -0.1}, "drop rate -0.1 outside [0,1]"},
		{"delay-rate-high", Config{DelayRate: 2}, "delay rate 2 outside [0,1]"},
		{"flip-rate-negative", Config{FlipRate: -1}, "flip rate -1 outside [0,1]"},
		{"negative-retries", Config{MaxRetries: -2}, "negative retry budget -2"},
		{"negative-quorum", Config{MinQuorum: -3}, "negative minimum quorum -3"},
		{"negative-warm-fill", Config{WarmFillMaxPages: -4}, "negative warm-fill page budget -4"},
		{"death-negative-node", Config{Deaths: []Death{{Node: -1, Cycle: 10}}},
			"deaths[0]: negative node -1"},
		{"death-cycle-zero", Config{Deaths: []Death{{Node: 1, Cycle: 0}}},
			"deaths[0]: node 1 scheduled to die at cycle 0"},
		{"death-duplicate-node", Config{Deaths: []Death{{Node: 1, Cycle: 10}, {Node: 1, Cycle: 20}}},
			"deaths[1]: node 1 already scheduled to die at cycle 10"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("want valid, got %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.want)
			}
			if !contains(err.Error(), tc.want) {
				t.Fatalf("error %q lacks %q", err, tc.want)
			}
		})
	}

	// Line-item property: a schedule with several defects reports each
	// one, not just the first.
	err := Config{
		DropRate:  2,
		MinQuorum: -1,
		Deaths:    []Death{{Node: 3, Cycle: 0}, {Node: 3, Cycle: 5}},
	}.Validate()
	if err == nil {
		t.Fatal("multi-defect config validated")
	}
	for _, want := range []string{
		"drop rate 2 outside [0,1]",
		"negative minimum quorum -1",
		"deaths[0]: node 3 scheduled to die at cycle 0",
		"deaths[1]: node 3 already scheduled to die",
	} {
		if !contains(err.Error(), want) {
			t.Errorf("joined error %q lacks line item %q", err, want)
		}
	}
}

// TestValidateFor checks the machine-shape line items: deaths of nodes
// the machine does not have and quorums the machine can never meet.
func TestValidateFor(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		nodes int
		want  string // substring of the error; "" = must pass
	}{
		{"ok", Config{Deaths: []Death{{Node: 3, Cycle: 10}}, MinQuorum: 2}, 4, ""},
		{"death-node-out-of-range", Config{Deaths: []Death{{Node: 7, Cycle: 10}}}, 4,
			"deaths[0]: node 7 outside machine of 4 nodes"},
		{"quorum-unsatisfiable", Config{MinQuorum: 5}, 4,
			"minimum quorum 5 larger than machine of 4 nodes"},
		// Running *below* quorum is legal configuration — that is the
		// runtime ClassQuorumLoss case, not a setup error.
		{"quorum-lost-at-runtime-ok",
			Config{Deaths: []Death{{Node: 1, Cycle: 10}, {Node: 2, Cycle: 20}}, MinQuorum: 3}, 4, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.ValidateFor(tc.nodes)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("want valid, got %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.want)
			}
			if !contains(err.Error(), tc.want) {
				t.Fatalf("error %q lacks %q", err, tc.want)
			}
		})
	}

	// ValidateFor folds Validate in: structural and shape defects join.
	err := Config{DropRate: -1, Deaths: []Death{{Node: 9, Cycle: 4}}}.ValidateFor(4)
	for _, want := range []string{"drop rate -1", "node 9 outside machine"} {
		if err == nil || !contains(err.Error(), want) {
			t.Errorf("joined error %v lacks %q", err, want)
		}
	}
}

// TestSchedule: the plan executes deaths sorted by (Cycle, Node)
// whatever order the config lists them in, and hands back a copy the
// config's own slice never aliases.
func TestSchedule(t *testing.T) {
	deaths := []Death{{Node: 3, Cycle: 50}, {Node: 2, Cycle: 10}, {Node: 0, Cycle: 50}, {Node: 1, Cycle: 30}}
	p := NewPlan(Config{Deaths: deaths}.WithDefaults())
	got := p.Schedule()
	want := []Death{{Node: 2, Cycle: 10}, {Node: 1, Cycle: 30}, {Node: 0, Cycle: 50}, {Node: 3, Cycle: 50}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("schedule %v, want %v", got, want)
	}
	if deaths[0] != (Death{Node: 3, Cycle: 50}) {
		t.Fatalf("sorting reordered the config's slice: %v", deaths)
	}
	got[0].Cycle = 999
	if p.Config().Deaths[1].Cycle != 10 {
		t.Fatal("schedule aliases the config's slice")
	}
	if s := NewPlan(Config{Seed: 1, DropRate: 0.5}).Schedule(); len(s) != 0 {
		t.Fatalf("death-free plan scheduled %v", s)
	}
}

func TestReportError(t *testing.T) {
	r := &Report{Class: ClassDeath, Node: 2, Cycle: 1234, Line: 0x8000, Detail: "owner unresponsive after 4 retries"}
	msg := r.Error()
	for _, want := range []string{"death", "node 2", "cycle 1234", "0x8000", "4 retries"} {
		if !contains(msg, want) {
			t.Fatalf("report %q lacks %q", msg, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
