package atpg

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/sched"
	"repro/internal/sensitize"
)

// Mode selects the test class tests are generated for.
type Mode = sensitize.Mode

// The two test classes of the paper (Tables 3 and 4).
const (
	// Nonrobust tests only fix the final values of the off-path inputs.
	Nonrobust = sensitize.Nonrobust
	// Robust tests additionally keep off-path inputs stable where the
	// on-path input changes towards the controlling value (Lin/Reddy).
	Robust = sensitize.Robust
)

// ParseMode parses "robust" or "nonrobust".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "robust":
		return Robust, nil
	case "nonrobust":
		return Nonrobust, nil
	}
	return Nonrobust, fmt.Errorf("atpg: unknown mode %q (want robust or nonrobust)", s)
}

// MaxWordWidth is the largest word width L the generator exploits.  Widths
// above the 64-bit machine word run on multi-word plane vectors
// (structure-of-arrays storage, up to 512 bit levels); see DefaultWordWidth
// for the width engines use when none is requested.
const MaxWordWidth = logic.MaxWordWidth

// DefaultWordWidth is the width engines run at when WithWordWidth is not
// given: one machine word, 64 bit levels.  Wider planes amortize better on
// hard fault populations but cost proportionally more per implication; see
// the README performance notes before raising it.
const DefaultWordWidth = logic.WordWidth

// Schedule selects how a multi-worker engine dispatches fault groups to its
// workers (see [WithSchedule]).
type Schedule = sched.Policy

// The dispatch policies.
const (
	// ScheduleStatic hands every worker one contiguous run of fault groups
	// up front: the classic shard split, with no rebalancing.
	ScheduleStatic = sched.Static
	// ScheduleSteal starts from the same contiguous split but lets a worker
	// whose queue runs dry steal queued groups from the most loaded peer,
	// so clustered hard faults do not serialize on one worker.
	ScheduleSteal = sched.Steal
)

// ParseSchedule parses "static" or "steal".
func ParseSchedule(s string) (Schedule, error) {
	p, err := sched.ParsePolicy(s)
	if err != nil {
		return p, fmt.Errorf("atpg: unknown schedule %q (want static or steal)", s)
	}
	return p, nil
}

// Option configures an [Engine] at construction time.
type Option func(*engineConfig) error

// engineConfig accumulates the option values before they are validated and
// frozen into core options by New.
type engineConfig struct {
	opts core.Options
	// workers is the resolved worker count; 0 (option absent) means 1, the
	// sequential engine.
	workers  int
	progress func(Result)
	// remote, when set, makes the engine submit runs to an ATPG service
	// coordinator instead of generating in-process (see WithRemote).
	remote string
	// xfillSet notes an explicit WithXFill: a custom filler is an opaque
	// function and cannot be serialized to a remote coordinator.
	xfillSet bool
}

// WithMode selects robust or nonrobust test generation (default: robust).
func WithMode(m Mode) Option {
	return func(c *engineConfig) error {
		if m != Robust && m != Nonrobust {
			return fmt.Errorf("atpg: unknown mode %d", m)
		}
		c.opts.Mode = m
		return nil
	}
}

// WithWordWidth sets the number of bit levels L exploited by both forms of
// bit parallelism (default: DefaultWordWidth).  Width 1 is the single-bit
// baseline of Tables 5 and 6; widths above 64 span multiple plane words per
// net.  Widths outside 1..MaxWordWidth make New fail with ErrBadWidth.
func WithWordWidth(w int) Option {
	return func(c *engineConfig) error {
		if w < 1 || w > MaxWordWidth {
			return fmt.Errorf("%w: %d (want 1..%d)", ErrBadWidth, w, MaxWordWidth)
		}
		c.opts.WordWidth = w
		return nil
	}
}

// WithBacktrackLimit bounds the conventional backtracks APTPG spends per
// fault before aborting it (default: 8).
func WithBacktrackLimit(n int) Option {
	return func(c *engineConfig) error {
		if n < 1 {
			return fmt.Errorf("atpg: backtrack limit must be at least 1, got %d", n)
		}
		c.opts.MaxBacktracks = n
		return nil
	}
}

// WithFaultParallel toggles FPTPG, the fault-parallel first phase (default:
// on).  With both phases disabled every fault is aborted.
func WithFaultParallel(on bool) Option {
	return func(c *engineConfig) error {
		c.opts.UseFPTPG = on
		return nil
	}
}

// WithAlternativeParallel toggles APTPG, the alternative-parallel second
// phase that takes over the faults FPTPG would have to backtrack on
// (default: on).
func WithAlternativeParallel(on bool) Option {
	return func(c *engineConfig) error {
		c.opts.UseAPTPG = on
		return nil
	}
}

// WithInterleavedSim switches the interleaved fault-simulation dropping
// (default: on).  A positive interval turns it on: when a worker claims a
// unit of faults, the patterns generated so far are fault-simulated against
// them and the detected ones are dropped without a search — the paper's
// dropping after every L patterns, done per unit at every worker count,
// local or remote.  The value sets no cadence; only its sign matters.
// 0 disables the simulation and negative values fail construction.  The
// parameter stays an int because the service wire format and resume
// ledgers carry it as one.
func WithInterleavedSim(interval int) Option {
	return func(c *engineConfig) error {
		if interval < 0 {
			return fmt.Errorf("atpg: negative fault-simulation interval %d", interval)
		}
		c.opts.FaultSimInterval = interval
		return nil
	}
}

// WithWorkers sets the number of worker goroutines the engine shards the
// fault list across, stacking core-level parallelism on top of the paper's
// word-level bit parallelism: each worker owns an independent generator over
// the shared immutable circuit and processes one contiguous shard of the
// fault slice.  When the interleaved simulation is on, workers exchange
// their patterns so one shard's tests still drop detected faults on the
// others.  n = 0 selects runtime.GOMAXPROCS(0), one worker per available
// core; negative counts fail construction.  The default is 1, the
// sequential generator of the paper.
//
// Sharding never changes which faults are covered, proved redundant or
// aborted, but it can change whether a covered fault reports Tested (its
// own pattern) or DetectedBySim (dropped by another fault's pattern), since
// that depends on the cross-shard pattern arrival order.  Statistics
// aggregate over the workers, so Stats time fields become CPU time rather
// than wall-clock time.
func WithWorkers(n int) Option {
	return func(c *engineConfig) error {
		if n < 0 {
			return fmt.Errorf("atpg: negative worker count %d", n)
		}
		if n == 0 {
			n = runtime.GOMAXPROCS(0)
		}
		c.workers = n
		return nil
	}
}

// WithSchedule selects the dispatch policy of a multi-worker engine: how
// the internal scheduler hands work units (word-parallel fault groups) to
// the workers.  [ScheduleStatic] (the default) pre-assigns contiguous runs
// of groups; [ScheduleSteal] additionally lets idle workers steal queued
// groups from the most loaded peer, which evens out fault lists whose hard
// faults cluster.  The policy never changes what a run achieves: results
// stay input-ordered, the merged test set is reassembled in canonical fault
// order, and the covered/redundant/aborted classification of every fault is
// policy-independent.  With the interleaved simulation disabled
// (WithInterleavedSim(0)) the guarantee is exact — identical per-fault
// statuses and an identical test set under both policies and any worker
// count; with it enabled (the default), which of the two covered labels a
// fault gets (Tested versus DetectedBySim) and hence the exact pattern set
// still depend on cross-worker pattern arrival order, as with
// [WithWorkers].  The work distribution itself is visible in the
// Stats.Sched counters.  With one worker the policies coincide.
func WithSchedule(p Schedule) Option {
	return func(c *engineConfig) error {
		if p != ScheduleStatic && p != ScheduleSteal {
			return fmt.Errorf("atpg: unknown schedule %d", p)
		}
		c.opts.Schedule = p
		return nil
	}
}

// WithEscalation enables two-pass adaptive fault grouping with the given
// escalation width.  Every fault first runs fault-serial (a width-1 group)
// under a cheap backtrack budget (see [WithFirstPassBudget]); only the
// faults that survive this first pass are regrouped into width-wide
// word-parallel groups and re-run under the engine's full backtrack limit.
// Word-level sharing — the paper's central mechanism — is thus spent only on
// the faults whose search is expensive enough to pay for it, which on
// easy-fault workloads beats both the fixed full-width grouping and the
// pure single-bit generator.  width 0 (the default) disables escalation and
// keeps the single fixed-width pass; widths outside 0..MaxWordWidth fail
// construction with ErrBadWidth.
func WithEscalation(width int) Option {
	return func(c *engineConfig) error {
		if width < 0 || width > MaxWordWidth {
			return fmt.Errorf("%w: escalation width %d (want 0..%d)", ErrBadWidth, width, MaxWordWidth)
		}
		c.opts.EscalationWidth = width
		return nil
	}
}

// WithGuidedEscalation turns testability-guided search on or off (default:
// off).  The engine scores every target fault with SCOAP-style
// controllability/observability measures computed once per circuit; faults
// above the hardness threshold skip the cheap first pass of adaptive
// grouping and go straight to the wide escalation pass, work units are
// ordered hardest first with cost-weighted scheduler splits, and — when
// [WithEscalation] was not used — the escalation width is derived from the
// score distribution of the run's faults.  Guidance only routes and orders
// work, so which faults end up covered does not depend on it; the
// first-pass skip rate is reported by [Stats.SkipRate].
func WithGuidedEscalation(on bool) Option {
	return func(c *engineConfig) error {
		c.opts.GuidedEscalation = on
		return nil
	}
}

// WithFirstPassBudget sets the backtrack budget of the cheap fault-serial
// first pass of adaptive grouping (default: 1).  It only takes effect
// together with [WithEscalation] or [WithGuidedEscalation].
func WithFirstPassBudget(n int) Option {
	return func(c *engineConfig) error {
		if n < 1 {
			return fmt.Errorf("atpg: first-pass budget must be at least 1, got %d", n)
		}
		c.opts.FirstPassBacktracks = n
		return nil
	}
}

// WithProgress registers a callback invoked once for every fault whose
// classification becomes final, in settle order.  The callback runs on the
// generating goroutine — with several workers, on whichever worker settles
// the fault, serialized by the engine — and must not call back into the
// engine.
func WithProgress(fn func(Result)) Option {
	return func(c *engineConfig) error {
		c.progress = fn
		return nil
	}
}

// WithCompaction selects the static compaction applied to every run's test
// set once after generation (and, with several workers, after the
// deterministic merge — compaction is what claws back the size difference
// between merged sharded sets and sequential ones):
//
//   - CompactNone (the default) leaves the set as generated;
//   - CompactReverse re-simulates the pairs in reverse generation order and
//     drops every pair detecting no not-yet-detected fault;
//   - CompactFull additionally merges compatible pairs first, using the
//     don't-care information of the unfilled pairs (which the engine then
//     records automatically alongside the filled ones).
//
// Compaction never changes which faults a run detects: the compacted set's
// coverage over the run's fault list is identical, for any worker count.
// Pattern indices in Run results refer to the compacted set; Stats records
// the pairs before/after, merges and simulation drops in Stats.Compaction.
func WithCompaction(level CompactionLevel) Option {
	return func(c *engineConfig) error {
		switch level {
		case CompactNone, CompactReverse, CompactFull:
			c.opts.Compaction = level
			return nil
		}
		return fmt.Errorf("atpg: unknown compaction level %d", level)
	}
}

// WithXFill selects how the don't-care positions of pairs merged during
// compaction are filled: [XFillZero] (default), [XFillOne] or
// [XFillRandom].  It only takes effect together with
// WithCompaction(CompactFull).
func WithXFill(f XFill) Option {
	return func(c *engineConfig) error {
		if f == nil {
			return fmt.Errorf("atpg: nil X-fill strategy")
		}
		c.opts.CompactionXFill = f
		c.xfillSet = true
		return nil
	}
}
