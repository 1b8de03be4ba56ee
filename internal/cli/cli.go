// Package cli holds the small pieces the cmd/ binaries share: the
// process exit-code convention, the fault-injection flag set, the JSON
// artifact writer and the pprof profile flags. Keeping them here means
// every binary classifies failures identically, and the in-process CLI
// tests can assert on the codes.
package cli

import (
	"errors"
	"flag"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"github.com/wisc-arch/datascalar/internal/core"
	"github.com/wisc-arch/datascalar/internal/fault"
	"github.com/wisc-arch/datascalar/internal/sim"
)

// Process exit codes (documented in README.md). Scripts drive the
// simulators, so "the machine detected a fault and halted cleanly" must
// be distinguishable from "the protocol wedged" and from "you typed the
// flags wrong" without parsing stderr.
const (
	// ExitOK: the run completed.
	ExitOK = 0
	// ExitFailure: any error without a more specific class below.
	ExitFailure = 1
	// ExitUsage: bad flags or arguments.
	ExitUsage = 2
	// ExitDeadlock: the commit-progress watchdog fired (*core.DeadlockError).
	ExitDeadlock = 3
	// ExitFault: the machine halted itself with a structured fault
	// report (*fault.Report) — detected fault, no wrong answer published.
	ExitFault = 4
)

// ExitCode classifies err under the convention above.
func ExitCode(err error) int {
	if err == nil {
		return ExitOK
	}
	var rep *fault.Report
	if errors.As(err, &rep) {
		return ExitFault
	}
	var dl *core.DeadlockError
	if errors.As(err, &dl) {
		return ExitDeadlock
	}
	return ExitFailure
}

// FaultFlags is the -fault-* flag group shared by dsrun and dstiming.
// The zero-valued defaults produce a disabled fault.Config, so binaries
// that register the group but whose users never touch it build no fault
// layer at all.
type FaultFlags struct {
	Seed         uint64
	Drop         float64
	Delay        float64
	DelayMax     uint64
	Flip         float64
	DeadNode     int
	DeathCycle   uint64
	Recover      bool
	RetryTimeout uint64
	MaxRetries   int
	FPInterval   uint64
}

// Register installs the flag group on fs.
func (f *FaultFlags) Register(fs *flag.FlagSet) {
	fs.Uint64Var(&f.Seed, "fault-seed", 1, "fault plan seed (same seed = same injected faults)")
	fs.Float64Var(&f.Drop, "fault-drop", 0, "probability a broadcast arrival is dropped")
	fs.Float64Var(&f.Delay, "fault-delay", 0, "probability a broadcast arrival is delayed")
	fs.Uint64Var(&f.DelayMax, "fault-delay-max", 0, "maximum extra delivery cycles per delayed arrival (0 = default)")
	fs.Float64Var(&f.Flip, "fault-flip", 0, "probability a broadcast payload is corrupted in flight")
	fs.IntVar(&f.DeadNode, "fault-dead-node", 1, "node killed at -fault-death-cycle")
	fs.Uint64Var(&f.DeathCycle, "fault-death-cycle", 0, "cycle at which -fault-dead-node dies permanently (0 = never)")
	fs.BoolVar(&f.Recover, "fault-recover", false, "on owner death, remap its pages and continue degraded instead of halting")
	fs.Uint64Var(&f.RetryTimeout, "fault-retry-timeout", 0, "BSHR wait cycles before a directed retry (0 = default)")
	fs.IntVar(&f.MaxRetries, "fault-retries", 0, "retries before a wait escalates to a fault report (0 = default)")
	fs.Uint64Var(&f.FPInterval, "fault-fp-interval", 0, "memory commits between commit-fingerprint broadcasts (0 = off)")
}

// Config assembles the fault.Config the flags describe; a death cycle
// becomes a one-entry death schedule.
func (f *FaultFlags) Config() fault.Config {
	c := fault.Config{
		Seed:                f.Seed,
		DropRate:            f.Drop,
		DelayRate:           f.Delay,
		DelayMaxCycles:      f.DelayMax,
		FlipRate:            f.Flip,
		Recover:             f.Recover,
		RetryTimeoutCycles:  f.RetryTimeout,
		MaxRetries:          f.MaxRetries,
		FingerprintInterval: f.FPInterval,
	}
	if f.DeathCycle != 0 {
		c.Deaths = []fault.Death{{Node: f.DeadNode, Cycle: f.DeathCycle}}
	}
	return c
}

// Active reports whether the flags request any injection at all.
func (f *FaultFlags) Active() bool { return f.Config().Enabled() }

// WriteJSON writes v as an indented JSON artifact to path, or to stdout
// when path is "-".
func WriteJSON(path string, stdout io.Writer, v any) error {
	if path == "-" {
		return sim.WriteJSON(stdout, v)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sim.WriteJSON(f, v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// StartProfiles starts CPU profiling to cpu and arranges a heap profile
// to mem (either may be empty); the returned stop function must run
// before exit (fatal-error paths skip it — a failed run's profile is not
// useful).
func StartProfiles(cpu, mem string) (func(), error) {
	var cpuF *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuF = f
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				log.Print(err)
				return
			}
			runtime.GC() // materialize the live heap before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Print(err)
			}
			f.Close()
		}
	}, nil
}
