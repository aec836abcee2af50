// Package core implements the paper's primary contribution: bit-parallel
// test pattern generation for path delay faults.
//
// Two modes of bit parallelism are combined, exactly as in Section 3 of the
// paper:
//
//   - FPTPG (fault-parallel test pattern generation) sensitizes up to L
//     target faults simultaneously, one per bit level, and justifies them
//     with shared bit-parallel implications.  Levels that conflict before
//     any optional decision prove their fault redundant; levels whose
//     requirements become justified yield a test.
//
//   - APTPG (alternative-parallel test pattern generation) takes a single
//     hard fault, flattens it onto all L bit levels and enumerates all value
//     combinations of up to log2(L) backtrace-selected primary inputs in
//     parallel, one combination per bit level.  Further decisions are made
//     conventionally (one value for all levels) and backtracked on conflict.
//
// The combined generator starts every fault in FPTPG and dynamically passes
// faults that would need backtracking to APTPG.  Restricting the word width
// to one bit yields the single-bit baseline used for the comparison in
// Tables 5 and 6 of the paper.
package core

import (
	"fmt"
	"time"

	"repro/internal/compact"
	"repro/internal/logic"
	"repro/internal/paths"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/sensitize"
)

// Status is the final classification of a target fault.
type Status uint8

// Fault classifications.
const (
	// Pending: not yet processed.
	Pending Status = iota
	// Tested: a test pattern was generated for the fault.
	Tested
	// Redundant: the fault was proved untestable (in the selected test
	// class).
	Redundant
	// Aborted: the generator gave up within its backtrack/iteration limits.
	Aborted
	// DetectedBySim: the fault was dropped because a pattern generated for
	// another fault already detects it (found by the claim-time fault
	// simulation).
	DetectedBySim
)

// String returns a short lower-case name for the status.
func (s Status) String() string {
	switch s {
	case Pending:
		return "pending"
	case Tested:
		return "tested"
	case Redundant:
		return "redundant"
	case Aborted:
		return "aborted"
	case DetectedBySim:
		return "detected-by-simulation"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Detected reports whether the fault is covered by the generated test set
// (either by its own test or by another fault's test).
func (s Status) Detected() bool { return s == Tested || s == DetectedBySim }

// Phase identifies which part of the generator settled a fault.
type Phase uint8

// Generator phases.
const (
	PhaseNone Phase = iota
	PhaseFPTPG
	PhaseAPTPG
	PhaseSimulation
	PhasePruning
)

// String returns a short name for the phase.
func (p Phase) String() string {
	switch p {
	case PhaseFPTPG:
		return "fptpg"
	case PhaseAPTPG:
		return "aptpg"
	case PhaseSimulation:
		return "simulation"
	case PhasePruning:
		return "pruning"
	}
	return "none"
}

// Options configure the generator.
type Options struct {
	// Mode selects robust or nonrobust test generation.
	Mode sensitize.Mode
	// WordWidth is the number of bit levels L exploited
	// (1..logic.MaxWordWidth).  Widths above 64 span multiple plane words per
	// net (see internal/logic's vector types); width 1 is the single-bit
	// baseline of Tables 5 and 6.
	WordWidth int
	// UseFPTPG enables the fault-parallel first phase.
	UseFPTPG bool
	// UseAPTPG enables the alternative-parallel second phase.  With both
	// phases disabled every fault is aborted, so at least one should be on.
	UseAPTPG bool
	// MaxBacktracks bounds the conventional backtracks per fault in APTPG
	// before the fault is aborted.
	MaxBacktracks int
	// FaultSimInterval switches fault-simulation dropping: any positive
	// value turns it on, 0 turns it off, and the value sets no cadence.
	// When on, every claimed work unit is first parallel-pattern simulated
	// against the patterns that exist at claim time, and the faults they
	// detect are dropped without a search — the paper's dropping after
	// every L patterns, done per unit at every worker count, local or
	// remote.  The field stays an int because the service wire format, the
	// resume ledgers and the perfbench workloads carry it as one.
	FaultSimInterval int
	// SubpathPruning records the minimal conflicting subpath of every fault
	// proved redundant without decisions, and prunes later faults containing
	// that subpath, as described for Figure 1 of the paper.
	SubpathPruning bool
	// MaxImplySweeps bounds the forward/backward rounds of every implication
	// closure.  Small values trade implication completeness (more search)
	// for cheaper individual implications; 0 uses the implication engine's
	// default.
	MaxImplySweeps int
	// FullSweepImplic is a debug option selecting the original full-sweep
	// implication engine (from-scratch forward/backward sweeps on every
	// Imply, whole-circuit ForwardSim, rebuild-based backtracking) instead
	// of the event-driven incremental engine with its assignment trail.  It
	// is retained as the oracle the incremental engine is validated against
	// (see equiv tests); production runs leave it off.
	FullSweepImplic bool
	// Compaction selects the static compaction pass applied to a run's
	// freshly generated patterns after the (sharded) merge: compatible-pair
	// merging and/or reverse-order fault simulation (see internal/compact).
	// Compaction never changes which faults of the run are detected.
	Compaction compact.Level
	// CompactionXFill fills the don't-care positions of merged pairs during
	// compaction; nil selects compact.ZeroFill().
	CompactionXFill compact.Filler
	// EmitUnfilled records the X-preserving form of every generated pattern
	// alongside the filled one (pattern.Set.Unfilled).  Merge-level
	// compaction needs it, so normalize turns it on when Compaction is
	// compact.Full.
	EmitUnfilled bool
	// Schedule selects the fault-dispatch policy of a run: sched.Static
	// hands every worker one contiguous run of work units up front (the
	// classic shard split, now expressed inside the scheduler), sched.Steal
	// starts from the same split but lets idle workers steal queued units
	// from the most loaded peer.  With one worker the policies coincide.
	Schedule sched.Policy
	// EscalationWidth, when positive, enables two-pass adaptive grouping:
	// every fault first runs fault-serial (a width-1 group) under the cheap
	// FirstPassBacktracks budget, and only the survivors are regrouped into
	// width-EscalationWidth word-parallel groups and re-run under the full
	// MaxBacktracks budget.  Word-level sharing is thus spent only on the
	// faults whose search is expensive enough to pay for it.  Zero (the
	// default) keeps the single fixed-width pass.
	EscalationWidth int
	// FirstPassBacktracks is the APTPG backtrack budget of the cheap first
	// pass of adaptive grouping; 0 selects 1.  It is ignored while both
	// EscalationWidth and GuidedEscalation are off.
	FirstPassBacktracks int
	// GuidedEscalation turns on testability-guided search: every target
	// fault is scored with the circuit's SCOAP-style measures
	// (internal/testability), faults above the hardness threshold skip the
	// cheap first pass and go straight to the wide escalation pass, and work
	// units are ordered hardest first with cost-weighted scheduler splits.
	// With EscalationWidth 0 the escalation width is derived from the score
	// distribution (testability.AutoWidth).  Guidance reorders and routes
	// work; the per-fault search itself is unchanged.
	GuidedEscalation bool
}

// DefaultOptions returns the configuration used by the experiments: robust
// or nonrobust mode with the full word width, both phases enabled,
// claim-time fault-simulation dropping and moderate abort limits.
func DefaultOptions(mode sensitize.Mode) Options {
	return Options{
		Mode:             mode,
		WordWidth:        logic.WordWidth,
		UseFPTPG:         true,
		UseAPTPG:         true,
		MaxBacktracks:    8,
		FaultSimInterval: logic.WordWidth,
		SubpathPruning:   true,
		MaxImplySweeps:   3,
	}
}

// SingleBitOptions returns the single-bit baseline configuration: the same
// algorithm restricted to one bit level, i.e. one fault and one value
// alternative at a time, as used for the comparison in Tables 5 and 6.
func SingleBitOptions(mode sensitize.Mode) Options {
	o := DefaultOptions(mode)
	o.WordWidth = 1
	return o
}

// normalize clamps the options to legal values.
func (o Options) normalize() Options {
	if o.WordWidth < 1 {
		o.WordWidth = 1
	}
	if o.WordWidth > logic.MaxWordWidth {
		o.WordWidth = logic.MaxWordWidth
	}
	if o.MaxBacktracks <= 0 {
		o.MaxBacktracks = 8
	}
	if o.Compaction == compact.Full {
		o.EmitUnfilled = true
	}
	if o.Compaction != compact.None && o.CompactionXFill == nil {
		o.CompactionXFill = compact.ZeroFill()
	}
	if o.EscalationWidth < 0 {
		o.EscalationWidth = 0
	}
	if o.EscalationWidth > logic.MaxWordWidth {
		o.EscalationWidth = logic.MaxWordWidth
	}
	if (o.EscalationWidth > 0 || o.GuidedEscalation) && o.FirstPassBacktracks <= 0 {
		o.FirstPassBacktracks = 1
	}
	return o
}

// PassSpec describes one generation pass of the scheduler-driven pipeline:
// the word-parallel group width, the APTPG backtrack budget, and whether
// faults that exhaust the budget are final (Aborted) or left Pending for the
// escalation pass.  It is exported so the distributed service
// (internal/service) can ship the exact pass parameters to remote workers;
// local runs never need to construct one.
type PassSpec struct {
	Width  int
	Budget int
	Final  bool
}

// passes returns the pass sequence the options select: one full-width pass,
// or — with adaptive grouping or guided escalation — a cheap fault-serial
// pass followed by a wide escalation pass for its survivors.  Guided runs
// without an explicit EscalationWidth get a placeholder escalation width
// here; runPasses replaces it with the auto-tuned width once the score
// distribution of the actual target faults is known.
func (o Options) passes() []PassSpec {
	if o.EscalationWidth > 0 || o.GuidedEscalation {
		w := o.EscalationWidth
		if w == 0 {
			w = o.WordWidth
		}
		return []PassSpec{
			{Width: 1, Budget: o.FirstPassBacktracks, Final: false},
			{Width: w, Budget: o.MaxBacktracks, Final: true},
		}
	}
	return []PassSpec{{Width: o.WordWidth, Budget: o.MaxBacktracks, Final: true}}
}

// maxEnumInputs is the number of primary inputs APTPG enumerates in
// parallel: log2(WordWidth) clamped to the machine word's log2(64) = 6, the
// paper's limit.  Alternative enumeration beyond one machine word pays the
// multi-word plane cost on every implication of a single-fault search, which
// measures as a loss, so widths above 64 keep their width for the
// fault-parallel phase but enumerate alternatives one word at a time.
func (o Options) maxEnumInputs() int {
	return min(log2(o.WordWidth), log2(logic.WordWidth))
}

// maxFPTPGIterations bounds the decision rounds per FPTPG group.
const maxFPTPGIterations = 128

func log2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

// FaultResult is the outcome of the generator for one target fault.
type FaultResult struct {
	Fault  paths.Fault
	Status Status
	Phase  Phase
	// Test is the generated two-vector test (valid when Status == Tested).
	Test pattern.Pair
	// PatternIndex is the index of the detecting pattern in the test set,
	// for Tested and DetectedBySim faults; -1 otherwise.
	PatternIndex int
	// Decisions and Backtracks count the search effort spent on the fault.
	Decisions  int
	Backtracks int
	// Err records why an Aborted fault was given up before its search limits
	// were exhausted (typically the context cancellation cause); it is nil
	// for faults that ran to a regular classification.
	Err error
}

// Stats aggregates a generator run.
type Stats struct {
	Faults          int
	Tested          int
	Redundant       int
	Aborted         int
	DetectedBySim   int
	PrunedRedundant int

	Patterns     int
	FPTPGGroups  int
	APTPGFaults  int
	Decisions    int
	Backtracks   int
	Implications int

	// FirstPassSettled and Escalated summarize adaptive grouping
	// (Options.EscalationWidth): faults settled by the cheap fault-serial
	// first pass, and faults entering the wide escalation pass (first-pass
	// survivors plus, under guided escalation, the predicted-hard faults
	// that skipped the first pass).  Both stay zero while escalation is off.
	FirstPassSettled int
	Escalated        int

	// PredictedHard counts the faults guided escalation routed straight to
	// the wide pass (testability score above the hardness threshold).  It
	// stays zero while Options.GuidedEscalation is off.
	PredictedHard int

	// Sched summarizes the dispatch layer of the run(s): passes, work
	// units, steals and the idle-unit skew counter (see sched.Stats).
	Sched sched.Stats

	// Compaction summarizes the static compaction passes of the run(s):
	// pairs before/after, compatible merges, reverse-order simulation drops.
	// All counters stay zero while Options.Compaction is compact.None.
	Compaction compact.Stats

	// SensitizeTime is the time spent computing sensitization conditions
	// (the t_sens column of Tables 5 and 6); GenerateTime is the rest of the
	// generation time.
	SensitizeTime time.Duration
	GenerateTime  time.Duration
}

// Add accumulates the counters and times of another run into s.  It is the
// merge operation of the sharded engine: every worker runs with its own
// Stats, and the orchestrator folds them into the master's.  The time fields
// add up to aggregate CPU time, not wall-clock time, when the runs were
// concurrent.
func (s *Stats) Add(o Stats) {
	s.Faults += o.Faults
	s.Tested += o.Tested
	s.Redundant += o.Redundant
	s.Aborted += o.Aborted
	s.DetectedBySim += o.DetectedBySim
	s.PrunedRedundant += o.PrunedRedundant

	s.Patterns += o.Patterns
	s.FPTPGGroups += o.FPTPGGroups
	s.APTPGFaults += o.APTPGFaults
	s.Decisions += o.Decisions
	s.Backtracks += o.Backtracks
	s.Implications += o.Implications

	s.FirstPassSettled += o.FirstPassSettled
	s.Escalated += o.Escalated
	s.PredictedHard += o.PredictedHard
	s.Sched.Add(o.Sched)

	s.Compaction.Add(o.Compaction)

	s.SensitizeTime += o.SensitizeTime
	s.GenerateTime += o.GenerateTime
}

// SkipRate returns the fraction of the run's target faults that guided
// escalation routed straight to the wide pass; 0 while guidance is off.
func (s Stats) SkipRate() float64 {
	if s.Faults == 0 {
		return 0
	}
	return float64(s.PredictedHard) / float64(s.Faults)
}

// Efficiency returns the paper's efficiency metric
// (1 - aborted/faults) * 100%.
func (s Stats) Efficiency() float64 {
	if s.Faults == 0 {
		return 100
	}
	return (1 - float64(s.Aborted)/float64(s.Faults)) * 100
}

// Coverage returns the fraction of faults covered by the generated test set
// (tested directly or detected by simulation).
func (s Stats) Coverage() float64 {
	if s.Faults == 0 {
		return 0
	}
	return float64(s.Tested+s.DetectedBySim) / float64(s.Faults)
}

// String renders a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("faults=%d tested=%d redundant=%d aborted=%d sim-detected=%d patterns=%d efficiency=%.2f%%",
		s.Faults, s.Tested, s.Redundant, s.Aborted, s.DetectedBySim, s.Patterns, s.Efficiency())
}
