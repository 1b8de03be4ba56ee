package workload

import (
	"testing"

	"github.com/wisc-arch/datascalar/internal/emu"
	"github.com/wisc-arch/datascalar/internal/prog"
	"github.com/wisc-arch/datascalar/internal/trace"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 15 {
		t.Fatalf("registry has %d workloads, want 15 (14 Table-1 + go)", len(all))
	}
	if len(Table1Order()) != 14 {
		t.Fatal("Table1Order incomplete")
	}
	timing := TimingSet()
	if len(timing) != 6 {
		t.Fatalf("timing set = %d, want 6", len(timing))
	}
	for _, w := range timing {
		if !w.Timing {
			t.Errorf("%s in timing set but not flagged", w.Name)
		}
	}
	for _, w := range all {
		if w.Regime == "" {
			t.Errorf("%s has no regime documentation", w.Name)
		}
		if w.Class != Int && w.Class != FP {
			t.Errorf("%s has class %q", w.Name, w.Class)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("compress"); !ok {
		t.Fatal("compress missing")
	}
	if _, ok := ByName("doom"); ok {
		t.Fatal("phantom workload")
	}
}

// Every kernel must assemble, run to completion within a generous bound,
// touch more memory than the 16 KB L1 (except fpppp, by design), and be
// deterministic.
func TestAllKernelsExecute(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p, err := w.Program(1)
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}
			m, err := emu.New(p)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			n, err := m.Run(30_000_000)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !m.Halted() {
				t.Fatalf("did not halt within 30M instructions (ran %d)", n)
			}
			if n < 50_000 {
				t.Errorf("only %d dynamic instructions; too small to exercise the memory system", n)
			}
			t.Logf("%s: %d instructions, %d pages touched", w.Name, n, m.Mem().PageCount())
		})
	}
}

func TestKernelFootprints(t *testing.T) {
	for _, w := range All() {
		p, err := w.Program(1)
		if err != nil {
			t.Fatal(err)
		}
		dataPages := 0
		for _, pg := range p.Pages() {
			if prog.SegmentOf(pg*prog.PageSize) == prog.SegGlobal {
				dataPages++
			}
		}
		minPages := 4 // > 2x the 16 KB L1
		if w.Name == "fpppp" {
			minPages = 1 // deliberately cache-resident
		}
		if dataPages < minPages {
			t.Errorf("%s: only %d data pages; workload too small", w.Name, dataPages)
		}
	}
}

// compress must be store-rich (the property behind its Figure 7 win) and
// go must be store-poor.
func TestStoreFractions(t *testing.T) {
	frac := func(name string) float64 {
		w, ok := ByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		p, err := w.Program(1)
		if err != nil {
			t.Fatal(err)
		}
		var loads, stores uint64
		err = trace.ForEachRefFrom(p, 0, 500_000, false, func(r trace.Ref) error {
			if r.Store {
				stores++
			} else {
				loads++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if loads == 0 {
			t.Fatalf("%s: no loads", name)
		}
		return float64(stores) / float64(stores+loads)
	}
	if f := frac("compress"); f < 0.4 {
		t.Errorf("compress store fraction = %.2f, want >= 0.4", f)
	}
	if f := frac("go"); f > 0.35 {
		t.Errorf("go store fraction = %.2f, want <= 0.35", f)
	}
}

// Deterministic: two runs produce identical instruction counts and final
// memory images (same page count is a cheap proxy; full equality is
// covered by the emulator's redundancy test).
func TestKernelDeterminism(t *testing.T) {
	w, _ := ByName("wave5")
	counts := make([]uint64, 2)
	for i := range counts {
		p, err := w.Program(1)
		if err != nil {
			t.Fatal(err)
		}
		m, err := emu.New(p)
		if err != nil {
			t.Fatal(err)
		}
		n, err := m.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		counts[i] = n
	}
	if counts[0] != counts[1] {
		t.Fatalf("nondeterministic instruction counts: %v", counts)
	}
}

func TestScaleIncreasesWork(t *testing.T) {
	w, _ := ByName("swim")
	run := func(scale int) uint64 {
		p, err := w.Program(scale)
		if err != nil {
			t.Fatal(err)
		}
		m, err := emu.New(p)
		if err != nil {
			t.Fatal(err)
		}
		n, err := m.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if run(2) <= run(1) {
		t.Fatal("scale 2 not larger than scale 1")
	}
	// Scale < 1 clamps to 1.
	if run(0) != run(1) {
		t.Fatal("scale 0 did not clamp to 1")
	}
}

// FP workloads must execute FP memory operations; integer ones mostly
// integer memory operations.
func TestClassCharacter(t *testing.T) {
	for _, w := range All() {
		p, err := w.Program(1)
		if err != nil {
			t.Fatal(err)
		}
		m, err := emu.New(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(200_000); err != nil {
			t.Fatal(err)
		}
		// FP kernels leave nonzero FP register state (all use f-regs).
		anyFP := false
		for i := uint8(0); i < 32; i++ {
			if m.FReg(i) != 0 {
				anyFP = true
				break
			}
		}
		if w.Class == FP && !anyFP {
			t.Errorf("%s claims FP but no FP register state", w.Name)
		}
	}
}
