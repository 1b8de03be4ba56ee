// Package fault is the deterministic fault-injection and resilience
// layer of the DataScalar machine. DataScalar's defining property —
// every node redundantly executes the whole program — is the classic
// substrate for fault tolerance, and this package supplies the three
// pieces the machine needs to exploit it:
//
//   - Injection: a seeded Plan decides, as a pure function of stable
//     message identity (never of wall-clock or iteration order), which
//     broadcasts are dropped, delayed, or bit-flipped at which receivers;
//     an explicit schedule says when nodes die permanently. Two runs with
//     the same seed make identical decisions regardless of worker count,
//     so fault campaigns are bit-reproducible serial or parallel.
//   - Detection: Config carries the retry/backoff parameters of the BSHR
//     timeout → re-request path and the commit-fingerprint exchange
//     interval; Stats accumulates what detection observed.
//   - Reporting: Report is the structured, typed error a machine halts
//     with when it detects a fault it cannot (or is configured not to)
//     recover from — never a silent wrong answer, never an unexplained
//     watchdog.
//
// The determinism contract (docs/ROBUSTNESS.md): every decision is
// derived by mixing the seed with a fault-class constant and the
// message's stable identity (source, destination, line address, per-node
// broadcast sequence number). Nothing depends on delivery cycles, map
// iteration order, or scheduling, so the same faults hit the same
// messages in every run of the same configuration.
package fault

import (
	"errors"
	"fmt"
	"sort"
)

// Class enumerates the injected fault classes. The set is closed: dsvet
// requires every switch over Class to cover all classes or panic in its
// default.
//
//dsvet:enum
type Class uint8

const (
	// ClassNone marks the absence of a fault (zero value).
	ClassNone Class = iota
	// ClassDrop is a transient broadcast-delivery loss at one receiver.
	ClassDrop
	// ClassDelay is a bounded extra delivery delay on one message.
	ClassDelay
	// ClassFlip is a payload bit-flip observed by one receiver.
	ClassFlip
	// ClassDeath is a permanent node failure at a configured cycle.
	ClassDeath
	// ClassDivergence is a detected cross-node commit-fingerprint
	// mismatch (the detection-side view of ClassFlip, or of a genuine
	// redundant-execution divergence bug).
	ClassDivergence
	// ClassLost marks a line whose retries exhausted against a live
	// owner — delivery could not be repaired within the retry budget.
	ClassLost
	// ClassQuorumLoss marks a death schedule that drove the machine
	// below its configured minimum quorum of live nodes: graceful
	// degradation ran out of nodes to degrade onto.
	ClassQuorumLoss
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassDrop:
		return "drop"
	case ClassDelay:
		return "delay"
	case ClassFlip:
		return "flip"
	case ClassDeath:
		return "death"
	case ClassDivergence:
		return "divergence"
	case ClassLost:
		return "lost"
	case ClassQuorumLoss:
		return "quorum-loss"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// MarshalJSON renders the class by name.
func (c Class) MarshalJSON() ([]byte, error) {
	return []byte(`"` + c.String() + `"`), nil
}

// Death is one entry in an ordered multi-death schedule: node Node
// fails permanently at cycle Cycle. A schedule of several deaths models
// the cascade regime a large machine actually operates in — each death
// remaps and re-replicates the victim's pages so the next death is
// again survivable.
type Death struct {
	Node  int    `json:"node"`
	Cycle uint64 `json:"cycle"`
}

// Config parameterizes the fault layer of one machine. The zero value
// injects nothing and enables nothing: a machine treats a zero Config
// exactly like a nil one (Enabled reports false), which is what makes
// the rate-0 differential suite meaningful.
type Config struct {
	// Seed keys every injection decision. The same seed reproduces the
	// same faults bit-for-bit, serial or parallel.
	Seed uint64

	// DropRate is the probability, per broadcast delivery at each
	// receiving node, that the delivery is silently lost.
	DropRate float64
	// DelayRate is the probability, per broadcast send, that the message
	// is held back an extra 1..DelayMaxCycles cycles before it may
	// arbitrate for the interconnect.
	DelayRate float64
	// DelayMaxCycles bounds the injected extra delay (default 200).
	DelayMaxCycles uint64
	// FlipRate is the probability, per broadcast delivery at each
	// receiving node, that the receiver observes a corrupted payload.
	// The timing model carries no payload data (the machine's one
	// emulator computes all values), so a flip perturbs the victim's
	// commit-fingerprint stream instead — detected, when the fingerprint
	// exchange is enabled, as cross-node divergence.
	FlipRate float64

	// Deaths is the permanent-failure schedule: each entry's node fails
	// at its cycle — its core freezes, its unsent messages are purged
	// from the interconnect, and it neither sends nor receives anything
	// afterwards. Entries may appear in any order and are executed
	// sorted by (Cycle, Node).
	Deaths []Death
	// MinQuorum is the minimum number of live nodes the machine may
	// degrade down to (effective minimum 1). A death that drops the live
	// count below MinQuorum halts the run with a ClassQuorumLoss Report
	// instead of continuing degraded.
	MinQuorum int
	// WarmFillMaxPages bounds the re-replication warm-fill per death:
	// after remapping a dead owner's pages onto successors, the new
	// owners push up to this many freshly inherited pages to standby
	// replicas over the broadcast network, so a subsequent death of the
	// successor finds warm copies (default 64).
	WarmFillMaxPages int
	// Recover selects the response to a detected owner death: true
	// remaps the dead node's owned pages onto a surviving successor (a
	// configurable backing copy is assumed, as every node's local memory
	// model can serve any line) and continues degraded; false halts with
	// a structured Report.
	Recover bool

	// RetryTimeoutCycles is how long a BSHR entry waits for its
	// broadcast before the node sends a directed re-request to the
	// line's owner (default 20 000 — far beyond any fault-free wait, so
	// detection never perturbs a healthy run).
	RetryTimeoutCycles uint64
	// RetryBackoffCapCycles caps the exponential backoff between
	// retries of the same line (default 8× RetryTimeoutCycles).
	RetryBackoffCapCycles uint64
	// MaxRetries bounds re-requests per line before the machine
	// escalates: a dead owner triggers recovery or a death Report, a
	// live one a lost-line Report (default 8).
	MaxRetries int

	// FingerprintInterval, when non-zero, makes every node broadcast a
	// fingerprint of its committed memory-operation stream every that
	// many commits; receivers cross-check it against their own stream,
	// turning redundant execution into N-modular divergence detection.
	FingerprintInterval uint64
}

// Enabled reports whether the configuration injects or detects
// anything. A disabled configuration is treated exactly like a nil one:
// the machine builds no fault state and touches no fault hook.
func (c Config) Enabled() bool {
	return c.DropRate > 0 || c.DelayRate > 0 || c.FlipRate > 0 ||
		len(c.Deaths) > 0 || c.FingerprintInterval != 0
}

// IsZero reports whether the configuration is the zero value. Deaths
// makes Config non-comparable, so callers that used to compare against
// Config{} (the engine's job-inheritance path) use this instead.
func (c Config) IsZero() bool {
	return c.Seed == 0 && c.DropRate == 0 && c.DelayRate == 0 &&
		c.DelayMaxCycles == 0 && c.FlipRate == 0 && c.Deaths == nil &&
		c.MinQuorum == 0 && c.WarmFillMaxPages == 0 && !c.Recover &&
		c.RetryTimeoutCycles == 0 && c.RetryBackoffCapCycles == 0 &&
		c.MaxRetries == 0 && c.FingerprintInterval == 0
}

// Validate checks structural soundness. Every defect is reported as its
// own line-item error (errors.Join), so a contradictory schedule names
// all of its contradictions at once.
func (c Config) Validate() error {
	var errs []error
	for _, r := range []struct {
		name string
		v    float64
	}{{"drop", c.DropRate}, {"delay", c.DelayRate}, {"flip", c.FlipRate}} {
		if r.v < 0 || r.v > 1 {
			errs = append(errs, fmt.Errorf("fault: %s rate %v outside [0,1]", r.name, r.v))
		}
	}
	if c.MaxRetries < 0 {
		errs = append(errs, fmt.Errorf("fault: negative retry budget %d", c.MaxRetries))
	}
	if c.MinQuorum < 0 {
		errs = append(errs, fmt.Errorf("fault: negative minimum quorum %d", c.MinQuorum))
	}
	if c.WarmFillMaxPages < 0 {
		errs = append(errs, fmt.Errorf("fault: negative warm-fill page budget %d", c.WarmFillMaxPages))
	}
	seen := map[int]uint64{}
	for i, d := range c.Deaths {
		if d.Node < 0 {
			errs = append(errs, fmt.Errorf("fault: deaths[%d]: negative node %d", i, d.Node))
		}
		if d.Cycle == 0 {
			errs = append(errs, fmt.Errorf("fault: deaths[%d]: node %d scheduled to die at cycle 0", i, d.Node))
		}
		if prev, dup := seen[d.Node]; dup {
			errs = append(errs, fmt.Errorf("fault: deaths[%d]: node %d already scheduled to die at cycle %d", i, d.Node, prev))
			continue
		}
		seen[d.Node] = d.Cycle
	}
	return errors.Join(errs...)
}

// ValidateFor layers machine-shape checks on Validate: every scheduled
// death must name a node the machine has, and the quorum must be
// satisfiable by the machine at all (a quorum larger than N can never
// be met). A schedule that merely *runs below* quorum is legal — that
// is the ClassQuorumLoss terminal case the machine reports at runtime.
func (c Config) ValidateFor(nodes int) error {
	errs := []error{c.Validate()}
	for i, d := range c.Deaths {
		if d.Node >= nodes {
			errs = append(errs, fmt.Errorf("fault: deaths[%d]: node %d outside machine of %d nodes", i, d.Node, nodes))
		}
	}
	if c.MinQuorum > nodes {
		errs = append(errs, fmt.Errorf("fault: minimum quorum %d larger than machine of %d nodes", c.MinQuorum, nodes))
	}
	return errors.Join(errs...)
}

// WithDefaults fills the detection parameters left at zero.
func (c Config) WithDefaults() Config {
	if c.DelayMaxCycles == 0 {
		c.DelayMaxCycles = 200
	}
	if c.RetryTimeoutCycles == 0 {
		c.RetryTimeoutCycles = 20_000
	}
	if c.RetryBackoffCapCycles == 0 {
		c.RetryBackoffCapCycles = 8 * c.RetryTimeoutCycles
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 8
	}
	if c.WarmFillMaxPages == 0 {
		c.WarmFillMaxPages = 64
	}
	return c
}

// Plan makes injection decisions for one machine. It is stateless: every
// method is a pure function of the configuration and its arguments, so a
// Plan may be consulted from any number of concurrently running machines
// (the engine runs jobs in parallel) without coordination.
type Plan struct {
	cfg         Config
	dropThresh  uint64
	delayThresh uint64
	flipThresh  uint64
}

// NewPlan builds a plan for cfg (defaults already applied by the
// caller). It panics on an invalid configuration: fault plans are
// experiment setup, and a bad one is a harness bug.
func NewPlan(cfg Config) *Plan {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Plan{
		cfg:         cfg,
		dropThresh:  rateThreshold(cfg.DropRate),
		delayThresh: rateThreshold(cfg.DelayRate),
		flipThresh:  rateThreshold(cfg.FlipRate),
	}
}

// Schedule returns the death schedule in execution order: a copy of
// Deaths sorted by (Cycle, Node). Validate rejects a node scheduled
// twice, so the order is total.
func (p *Plan) Schedule() []Death {
	sched := append([]Death(nil), p.cfg.Deaths...)
	sort.Slice(sched, func(i, j int) bool {
		if sched[i].Cycle != sched[j].Cycle {
			return sched[i].Cycle < sched[j].Cycle
		}
		return sched[i].Node < sched[j].Node
	})
	return sched
}

// Config returns the plan's configuration.
func (p *Plan) Config() Config { return p.cfg }

// rateThreshold converts a probability to a 64-bit comparison threshold:
// a uniformly mixed hash below the threshold means "inject".
func rateThreshold(rate float64) uint64 {
	switch {
	case rate <= 0:
		return 0
	case rate >= 1:
		return ^uint64(0)
	default:
		return uint64(rate * float64(1<<63) * 2)
	}
}

// Mix64 exposes the decision-mixing function so the machine can fold
// committed-operation identities into its commit fingerprint with the
// same well-distributed construction.
func Mix64(x uint64) uint64 { return mix64(x) }

// mix64 is the SplitMix64 finalizer: a fast, well-distributed 64-bit
// mixing function (the same construction internal/stats.RNG uses).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// key mixes the seed, a class constant, and a message's stable identity
// into one decision hash.
func (p *Plan) key(class Class, src, dst int, addr, seq uint64) uint64 {
	h := p.cfg.Seed ^ (uint64(class) * 0x9e3779b97f4a7c15)
	h = mix64(h ^ uint64(src)*0xff51afd7ed558ccd)
	h = mix64(h ^ uint64(dst)*0xc4ceb9fe1a85ec53)
	h = mix64(h ^ addr)
	return mix64(h ^ seq)
}

// DropArrival reports whether the delivery of broadcast (src, addr, seq)
// at receiver dst is lost.
func (p *Plan) DropArrival(src, dst int, addr, seq uint64) bool {
	return p.dropThresh != 0 && p.key(ClassDrop, src, dst, addr, seq) < p.dropThresh
}

// DelayExtra returns the extra cycles (0 = none) message (src, addr,
// seq) is held before it may arbitrate for the interconnect.
func (p *Plan) DelayExtra(src int, addr, seq uint64) uint64 {
	if p.delayThresh == 0 || p.key(ClassDelay, src, -1, addr, seq) >= p.delayThresh {
		return 0
	}
	// A second independent mix picks the magnitude in [1, DelayMaxCycles].
	h := mix64(p.key(ClassDelay, src, -2, addr, seq))
	return 1 + h%p.cfg.DelayMaxCycles
}

// FlipArrival returns (taint, true) when receiver dst observes a
// corrupted payload for broadcast (src, addr, seq); taint is the
// deterministic non-zero corruption signature folded into the victim's
// commit fingerprint.
func (p *Plan) FlipArrival(src, dst int, addr, seq uint64) (uint64, bool) {
	if p.flipThresh == 0 || p.key(ClassFlip, src, dst, addr, seq) >= p.flipThresh {
		return 0, false
	}
	taint := p.key(ClassFlip, src, dst, addr, seq^0xdeadbeef)
	if taint == 0 {
		taint = 1
	}
	return taint, true
}

// Stats accumulates the fault layer's injection and detection counters
// for one run; the machine surfaces it as Result.Fault. Plain integers
// (not stats.Counter) keep it trivially JSON-comparable.
type Stats struct {
	// Injection side.
	InjectedDrops  uint64 `json:"injectedDrops"`
	InjectedDelays uint64 `json:"injectedDelays"`
	InjectedFlips  uint64 `json:"injectedFlips"`
	DelayCycles    uint64 `json:"delayCycles"` // total extra cycles injected
	NodeDied       bool   `json:"nodeDied"`
	DeadNode       int    `json:"deadNode"`
	DeathCycle     uint64 `json:"deathCycle"`
	PurgedMessages int    `json:"purgedMessages"` // unsent messages lost with the dead node

	// Detection side.
	Timeouts         uint64 `json:"timeouts"`         // BSHR deadlines that fired
	Retries          uint64 `json:"retries"`          // re-requests sent
	RetriesServed    uint64 `json:"retriesServed"`    // re-requests answered by an owner
	SelfServes       uint64 `json:"selfServes"`       // retries satisfied from local memory (post-remap owner)
	DetectedDrops    uint64 `json:"detectedDrops"`    // timeouts matching an injected drop
	FPBroadcasts     uint64 `json:"fpBroadcasts"`     // fingerprints sent
	FPChecks         uint64 `json:"fpChecks"`         // pairwise fingerprint comparisons
	FPMismatches     uint64 `json:"fpMismatches"`     // comparisons that disagreed
	DetectedFlips    uint64 `json:"detectedFlips"`    // divergences matching an injected flip
	Detections       uint64 `json:"detections"`       // faults detected (drops + flips + death)
	DetectLatencySum uint64 `json:"detectLatencySum"` // cycles from injection to detection, summed

	// Recovery side. The scalar fields summarize the first death (and,
	// for RemappedPages, the total across deaths) so single-death
	// consumers keep working; Deaths carries the full per-death record.
	DeathDetected   bool         `json:"deathDetected"`
	DeathDetectedAt uint64       `json:"deathDetectedAt"`
	RemappedPages   int          `json:"remappedPages"`
	SuccessorNode   int          `json:"successorNode"`
	Degraded        bool         `json:"degraded"` // run finished without at least one dead node
	Deaths          []DeathStats `json:"deaths,omitempty"`
	WarmFillMsgs    uint64       `json:"warmFillMsgs"`  // re-replication messages sent, all deaths
	WarmFillBytes   uint64       `json:"warmFillBytes"` // re-replication traffic, all deaths
	WarmRemaps      int          `json:"warmRemaps"`    // remaps that landed on a warm standby copy
	LiveNodes       int          `json:"liveNodes"`     // nodes still live at end of run (0 = fault layer saw no death)
}

// DeathStats is the per-death entry of a multi-death schedule: when the
// node died, how long detection took, where its pages went, and what
// the warm-fill re-replication cost — the raw material of a survival
// curve.
type DeathStats struct {
	Node           int    `json:"node"`
	Cycle          uint64 `json:"cycle"`
	PurgedMessages int    `json:"purgedMessages"`
	Detected       bool   `json:"detected"`
	DetectedAt     uint64 `json:"detectedAt"`
	DetectLatency  uint64 `json:"detectLatency"`
	SuccessorNode  int    `json:"successorNode"` // first successor a page remapped onto (-1 before detection)
	RemappedPages  int    `json:"remappedPages"`
	WarmRemaps     int    `json:"warmRemaps"`     // pages whose successor already held a warm copy
	WarmFillMsgs   uint64 `json:"warmFillMsgs"`   // re-replication pushes this death triggered
	WarmFillBytes  uint64 `json:"warmFillBytes"`  // bytes of re-replication traffic
	CommitsAtDeath uint64 `json:"commitsAtDeath"` // committed instructions (first live node) when the node died
	LiveAfter      int    `json:"liveAfter"`      // live nodes remaining after this death
	// PostDeathIPC is the survivors' throughput from this death to the end
	// of the run (committed instructions per cycle over that window),
	// filled in at collection time — the y-axis of a survival curve.
	PostDeathIPC float64 `json:"postDeathIPC"`
}

// MeanDetectLatency returns the mean injection-to-detection latency in
// cycles (0 when nothing was detected).
func (s *Stats) MeanDetectLatency() float64 {
	if s.Detections == 0 {
		return 0
	}
	return float64(s.DetectLatencySum) / float64(s.Detections)
}

// Report is the structured error a machine halts with on an
// unrecoverable (or unrecovered-by-configuration) fault. It names the
// faulting node, the fault class, and the detection cycle, so a halted
// run is debuggable from the error alone.
type Report struct {
	// Class is the detected fault class (death, divergence, lost).
	Class Class `json:"class"`
	// Node is the faulting node (-1 when attribution is impossible,
	// e.g. a two-node fingerprint mismatch).
	Node int `json:"node"`
	// Cycle is the detection cycle.
	Cycle uint64 `json:"cycle"`
	// Line is the line address involved, when one is (death and lost).
	Line uint64 `json:"line,omitempty"`
	// Detail is a human-readable elaboration.
	Detail string `json:"detail,omitempty"`
}

// Error implements error.
func (r *Report) Error() string {
	s := fmt.Sprintf("fault: %s: node %d at cycle %d", r.Class, r.Node, r.Cycle)
	if r.Line != 0 {
		s += fmt.Sprintf(" line 0x%x", r.Line)
	}
	if r.Detail != "" {
		s += ": " + r.Detail
	}
	return s
}
