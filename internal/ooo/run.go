package ooo

import "errors"

// DefaultWatchdog is the commit-progress budget, in cycles, Drive uses
// when its caller passes 0.
const DefaultWatchdog = 2_000_000

// ErrNoProgress is Drive's watchdog abort: nothing committed for more
// than the watchdog budget. A firing watchdog indicates a model deadlock
// and is always a bug; each machine turns it into its own report.
var ErrNoProgress = errors.New("ooo: no commit progress")

// Clocked is a cycle-level machine Drive can run: a standalone core, the
// traditional baseline or a DataScalar machine.
type Clocked interface {
	// Step simulates cycle now and returns the machine's total committed
	// instruction count. It reports done, simulating nothing, when the
	// run is already over at the top of now.
	Step(now uint64) (committed uint64, done bool, err error)
	// NextEvent returns the first cycle at or after now at which the
	// machine can do more than stall accounting, or now when nothing can
	// be skipped (including once the run is over).
	NextEvent(now uint64) uint64
	// Skip replays the stall accounting of the cycles [now, to), which
	// NextEvent certified as no-ops.
	Skip(now, to uint64)
}

// Drive runs m cycle by cycle from cycle now until Step reports done,
// and returns the cycle at whose top it did. Unless noSkip, it jumps
// over the idle stretches NextEvent certifies; skipped and polled runs
// are bit-identical. watchdog (0 = DefaultWatchdog) aborts with
// ErrNoProgress, at the returned cycle, once no instruction has
// committed for more than that many cycles. A jump never passes the
// first cycle the watchdog could fire, so a wedged machine reports the
// same cycle either way.
func Drive(m Clocked, now uint64, noSkip bool, watchdog uint64) (cycles uint64, err error) {
	if watchdog == 0 {
		watchdog = DefaultWatchdog
	}
	lastProgress, lastCommitted := now, uint64(0)
	for {
		committed, done, err := m.Step(now)
		if done || err != nil {
			return now, err
		}
		if committed != lastCommitted {
			lastCommitted, lastProgress = committed, now
		} else if now-lastProgress > watchdog {
			return now, ErrNoProgress
		}
		now++
		if !noSkip {
			if next := min(m.NextEvent(now), lastProgress+watchdog+1); next > now {
				m.Skip(now, next)
				now = next
			}
		}
	}
}

var _ Clocked = (*Core)(nil)

// Step implements Clocked for a standalone core: one whose MemPort
// never leaves loads pending, or completes them internally.
func (c *Core) Step(now uint64) (committed uint64, done bool, err error) {
	if c.Done() {
		return 0, true, nil
	}
	c.Cycle(now)
	return c.Committed(), false, c.Err()
}

// NextEvent implements Clocked through NextEventCycle.
func (c *Core) NextEvent(now uint64) uint64 {
	if next, ok := c.NextEventCycle(now); ok && !c.Done() {
		return next
	}
	return now
}

// Skip implements Clocked through SkipCycles.
func (c *Core) Skip(now, to uint64) { c.SkipCycles(now, to-now) }
