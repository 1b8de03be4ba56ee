// Package mmm models the Massive Memory Machine, the synchronous ESP
// ancestor DataScalar builds on (paper Section 2, Figure 1): minicomputers
// in lock-step on a global broadcast bus, each owning a fraction of
// memory. The owner of each successive operand broadcasts it; when the
// next operand lives elsewhere, a *lead change* stalls every machine while
// the new lead catches up.
//
// The model reproduces Figure 1's timeline and quantifies what the
// DataScalar paper improves: synchronous ESP sustains exactly one
// datathread, so every ownership transition costs the full catch-up
// penalty, whereas asynchronous ESP (internal/core) overlaps datathreads
// across nodes.
package mmm

import "fmt"

// Config parameterizes the MMM.
type Config struct {
	// Processors is the machine count.
	Processors int
	// BroadcastDelay is the lag (in bus cycles) between the lead machine
	// and the others; a lead change stalls this many cycles while the new
	// lead catches up. Figure 1's example uses 2.
	BroadcastDelay uint64
}

// DefaultConfig returns Figure 1's parameters: 3 machines, delay 2.
func DefaultConfig() Config { return Config{Processors: 3, BroadcastDelay: 2} }

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Processors <= 0 {
		return fmt.Errorf("mmm: need at least one processor")
	}
	return nil
}

// Event records one word's broadcast in the simulated timeline.
type Event struct {
	Word       uint64
	Owner      int
	ReceivedAt uint64 // cycle at which every machine holds the word
	LeadChange bool   // this word triggered a lead change
}

// Result summarizes a run.
type Result struct {
	Timeline    []Event
	Cycles      uint64
	LeadChanges int
	// Datathreads is the number of maximal runs of consecutive
	// same-owner references (the MMM exploits exactly one at a time).
	Datathreads int
	// IdealCycles is the time with zero lead-change penalty (one word
	// per cycle): the bound asynchronous ESP approaches when datathreads
	// fully overlap.
	IdealCycles uint64
}

// Simulate runs the reference string through the machine. owner maps each
// word to its owning processor; words absent from the map default to
// processor 0.
func Simulate(cfg Config, refs []uint64, owner map[uint64]int) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	var r Result
	if len(refs) == 0 {
		return r, nil
	}
	ownerOf := func(w uint64) (int, error) {
		o := owner[w]
		if o < 0 || o >= cfg.Processors {
			return 0, fmt.Errorf("mmm: word %d owned by out-of-range processor %d", w, o)
		}
		return o, nil
	}

	lead, err := ownerOf(refs[0])
	if err != nil {
		return Result{}, err
	}
	t := uint64(0)
	r.Datathreads = 1
	for i, w := range refs {
		o, err := ownerOf(w)
		if err != nil {
			return Result{}, err
		}
		change := o != lead
		if change {
			// All machines stall while the new lead catches up.
			t += cfg.BroadcastDelay
			lead = o
			r.LeadChanges++
			r.Datathreads++
		}
		t++
		r.Timeline = append(r.Timeline, Event{Word: w, Owner: o, ReceivedAt: t, LeadChange: change})
		_ = i
	}
	r.Cycles = t
	r.IdealCycles = uint64(len(refs))
	return r, nil
}

// MeanDatathreadLength returns the mean run length of same-owner
// references in the timeline.
func (r Result) MeanDatathreadLength() float64 {
	if r.Datathreads == 0 {
		return 0
	}
	return float64(len(r.Timeline)) / float64(r.Datathreads)
}

// Slowdown returns actual cycles over the zero-penalty ideal.
func (r Result) Slowdown() float64 {
	if r.IdealCycles == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.IdealCycles)
}

// Figure1Reference returns the paper's Figure 1 example: words w1..w9
// (numbered 1-9), with w5, w6, w7 in machine 1 (zero-indexed) and all
// others in machine 0.
func Figure1Reference() (refs []uint64, owner map[uint64]int) {
	owner = make(map[uint64]int)
	for w := uint64(1); w <= 9; w++ {
		refs = append(refs, w)
		if w >= 5 && w <= 7 {
			owner[w] = 1
		} else {
			owner[w] = 0
		}
	}
	return refs, owner
}
