package mmm

import (
	"testing"
	"testing/quick"
)

func TestFigure1Timeline(t *testing.T) {
	refs, owner := Figure1Reference()
	r, err := Simulate(DefaultConfig(), refs, owner)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Figure 1: w1-w4 at cycles 1-4, lead change, w5-w7 at 7-9,
	// lead change, w8-w9 at 12-13.
	want := []uint64{1, 2, 3, 4, 7, 8, 9, 12, 13}
	if len(r.Timeline) != len(want) {
		t.Fatalf("timeline length %d", len(r.Timeline))
	}
	for i, ev := range r.Timeline {
		if ev.ReceivedAt != want[i] {
			t.Errorf("w%d received at %d, want %d", i+1, ev.ReceivedAt, want[i])
		}
	}
	if r.LeadChanges != 2 {
		t.Errorf("lead changes = %d, want 2", r.LeadChanges)
	}
	if r.Datathreads != 3 {
		t.Errorf("datathreads = %d, want 3 (w1-w4, w5-w7, w8-w9)", r.Datathreads)
	}
	if r.Cycles != 13 || r.IdealCycles != 9 {
		t.Errorf("cycles = %d ideal = %d", r.Cycles, r.IdealCycles)
	}
	if got := r.MeanDatathreadLength(); got != 3 {
		t.Errorf("mean datathread = %v, want 3", got)
	}
	if r.Slowdown() <= 1 {
		t.Errorf("slowdown = %v, want > 1", r.Slowdown())
	}
}

func TestSingleOwnerNoStalls(t *testing.T) {
	refs := []uint64{1, 2, 3, 4, 5}
	owner := map[uint64]int{}
	r, err := Simulate(Config{Processors: 2, BroadcastDelay: 5}, refs, owner)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != 5 || r.LeadChanges != 0 || r.Datathreads != 1 {
		t.Fatalf("result = %+v", r)
	}
	if r.Slowdown() != 1 {
		t.Fatalf("slowdown = %v", r.Slowdown())
	}
}

func TestAlternatingOwnersWorstCase(t *testing.T) {
	refs := []uint64{0, 1, 0, 1, 0, 1}
	owner := map[uint64]int{0: 0, 1: 1}
	r, err := Simulate(Config{Processors: 2, BroadcastDelay: 2}, refs, owner)
	if err != nil {
		t.Fatal(err)
	}
	if r.LeadChanges != 5 {
		t.Fatalf("lead changes = %d", r.LeadChanges)
	}
	if r.Cycles != uint64(len(refs))+5*2 {
		t.Fatalf("cycles = %d", r.Cycles)
	}
}

func TestEmptyReferenceString(t *testing.T) {
	r, err := Simulate(DefaultConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != 0 || len(r.Timeline) != 0 || r.MeanDatathreadLength() != 0 {
		t.Fatalf("empty run = %+v", r)
	}
}

func TestErrors(t *testing.T) {
	if _, err := Simulate(Config{Processors: 0}, []uint64{1}, nil); err == nil {
		t.Error("zero processors accepted")
	}
	if _, err := Simulate(Config{Processors: 2}, []uint64{1}, map[uint64]int{1: 7}); err == nil {
		t.Error("out-of-range owner accepted")
	}
}

// Property: cycles = refs + leadChanges*delay, and timeline is strictly
// increasing.
func TestCycleAccountingQuick(t *testing.T) {
	f := func(words []uint8, delay uint8, procs uint8) bool {
		p := int(procs%4) + 1
		refs := make([]uint64, len(words))
		owner := map[uint64]int{}
		for i, w := range words {
			refs[i] = uint64(w)
			owner[uint64(w)] = int(w) % p
		}
		cfg := Config{Processors: p, BroadcastDelay: uint64(delay % 8)}
		r, err := Simulate(cfg, refs, owner)
		if err != nil {
			return false
		}
		if r.Cycles != uint64(len(refs))+uint64(r.LeadChanges)*cfg.BroadcastDelay {
			return false
		}
		var last uint64
		for _, ev := range r.Timeline {
			if ev.ReceivedAt <= last {
				return false
			}
			last = ev.ReceivedAt
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
