package core

import (
	"errors"
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

// TestWatchdogCapsSkips: a watchdog shorter than a memory access fires
// inside the first load's stall, so the stretch the scheduler would skip
// runs past the first cycle the watchdog could fire. Drive's jump and
// the parallel barrier's jump are both capped at that cycle, so the
// serial skipped, serial polled and two-worker runs must all report the
// deadlock at the same cycle with the same snapshot, and must have
// charged every node the same cycles: an uncapped parallel jump still
// reports the capped cycle, but only after charging the stall it
// skipped.
func TestWatchdogCapsSkips(t *testing.T) {
	const twoLoads = `
        .data
arr:    .space 8192
        .text
        la   r1, arr
        ld   r2, 0(r1)
        add  r1, r1, r2
        ld   r3, 4096(r1)
        halt
`
	type abort struct {
		err    *DeadlockError
		stacks []obs.CPIStack
	}
	run := func(noSkip bool, parallel int) abort {
		m := buildMachine(t, twoLoads, 2, func(c *Config) {
			c.Core.NoCycleSkip = noSkip
			c.ParallelNodes = parallel
			c.WatchdogCycles = 3
		})
		_, err := m.Run()
		var a abort
		if !errors.As(err, &a.err) {
			t.Fatalf("noSkip=%v parallel=%d: err = %v, want a deadlock report", noSkip, parallel, err)
		}
		for _, nd := range m.nodes {
			a.stacks = append(a.stacks, *nd.core.CPIStack())
		}
		return a
	}
	polled := run(true, 1)
	for _, r := range []struct {
		name string
		abort
	}{
		{"serial skipped", run(false, 1)},
		{"parallel", run(false, 2)},
	} {
		if r.err.Cycle != polled.err.Cycle || r.err.Error() != polled.err.Error() {
			t.Errorf("%s run reports the deadlock at cycle %d, polled at %d:\n%s:\n%v\npolled:\n%v",
				r.name, r.err.Cycle, polled.err.Cycle, r.name, r.err, polled.err)
		}
		if !reflect.DeepEqual(r.stacks, polled.stacks) {
			t.Errorf("%s run charged different cycles before the abort:\n%s: %v\npolled: %v",
				r.name, r.name, r.stacks, polled.stacks)
		}
	}
}
