package core

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/wisc-arch/datascalar/internal/bus"
	"github.com/wisc-arch/datascalar/internal/obs"
)

// TestCycleSkipBitIdentical is the machine-level contract of the
// next-event scheduler: skipping provably idle cycles must leave the run
// bit-identical to cycle-by-cycle polling — same final cycle count, same
// value in every counter, and (with a sampler attached) the same samples
// at the same cycles with the same contents. reflect.DeepEqual over the
// full Result plus the recorded trace covers all of it.
func TestCycleSkipBitIdentical(t *testing.T) {
	kernels := []struct{ name, src string }{
		{"streamSum", streamSum},
		{"pointerChase", pointerChase},
		{"storeHeavy", storeHeavy},
	}
	topologies := []bus.TopologyKind{bus.TopoBus, bus.TopoRing, bus.TopoMesh, bus.TopoTorus}
	for _, k := range kernels {
		for _, nodes := range []int{1, 2, 4} {
			for _, topo := range topologies {
				topo := topo
				t.Run(fmt.Sprintf("%s/%dnodes/%s", k.name, nodes, topo), func(t *testing.T) {
					run := func(noSkip bool) (Result, *obs.Trace) {
						trace := obs.NewTrace()
						m := buildMachine(t, k.src, nodes, func(c *Config) {
							c.Topology.Kind = topo
							c.Core.NoCycleSkip = noSkip
							c.Observer = trace
							c.SampleInterval = 500
						})
						return mustRunMachine(t, m), trace
					}
					skipped, skippedTrace := run(false)
					polled, polledTrace := run(true)
					if !reflect.DeepEqual(skipped, polled) {
						t.Fatalf("cycle skipping changed the result:\nskip:   %+v\npolled: %+v",
							skipped, polled)
					}
					if !reflect.DeepEqual(skippedTrace, polledTrace) {
						t.Fatalf("cycle skipping changed the observation stream "+
							"(skip: %d events / %d samples, polled: %d events / %d samples)",
							skippedTrace.NumEvents(), skippedTrace.NumSamples(),
							polledTrace.NumEvents(), polledTrace.NumSamples())
					}
				})
			}
		}
	}
}

// TestCycleSkipPreservesDeadlockCycle: a wedged machine must report the
// watchdog deadlock at the identical cycle number whether or not the
// scheduler skips idle stretches.
func TestCycleSkipPreservesDeadlockCycle(t *testing.T) {
	// A single node joined by a second node whose page table entry it can
	// never satisfy would need protocol surgery to wedge; instead, wedge
	// the machine the honest way — a watchdog far shorter than the run.
	errFor := func(noSkip bool) error {
		m := buildMachine(t, pointerChase, 2, func(c *Config) {
			c.Core.NoCycleSkip = noSkip
			c.WatchdogCycles = 1 // fires on the first idle stretch
		})
		_, err := m.Run()
		return err
	}
	skipErr, polledErr := errFor(false), errFor(true)
	if skipErr == nil || polledErr == nil {
		t.Fatalf("watchdog did not fire: skip=%v polled=%v", skipErr, polledErr)
	}
	if skipErr.Error() != polledErr.Error() {
		t.Fatalf("deadlock reports differ:\nskip:   %v\npolled: %v", skipErr, polledErr)
	}
}
