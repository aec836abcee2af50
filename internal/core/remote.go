package core

import (
	"context"
	"sync"
	"time"

	"repro/internal/paths"
	"repro/internal/pattern"
	"repro/internal/sched"
)

// This file is the core's half of the distributed engine (internal/service):
// the worker side processes single work units shipped over the wire
// (ProcessRemoteUnit), the coordinator side drives the same pass pipeline as
// Run/RunSharded but hands the units to a dispatch callback instead of local
// goroutines (RemoteRun), and the client side folds a finished remote run
// back into a local generator (ImportRemoteRun).
//
// The determinism contract is the one RunSharded already guarantees: a unit's
// outcome under FaultSimInterval == 0 is a pure function of (circuit,
// options, pass spec, unit faults) — the search never looks at any other
// fault's state — and the merged test set is reassembled in canonical fault
// input order.  Because unit outcomes are pure, processing a unit more than
// once (a lease requeued after a worker died, with the original worker's
// result arriving late) yields the same outcome, and RemoteRun.Apply is
// first-write-wins per fault, so at-least-once dispatch cannot change any
// classification.  With the interleaved simulation on, outcomes additionally
// depend on which patterns arrived before the claim, so — exactly as across
// local workers — only the coverage class (Tested vs DetectedBySim) is
// stable, not the individual statuses.  The exception is one worker on each
// side: a local run and a remote worker drop faults by the same claim sweep
// (claimSweep, then processUnit), both see the patterns in unit order, and
// so every status matches.

// RemoteOutcome is the outcome of one fault of a remotely processed work
// unit, as reported back by a worker.  It carries everything the coordinator
// needs for the canonical merge; pattern indices are deliberately absent
// (worker-local test-set indices mean nothing on the coordinator — the
// merge assigns indices in fault input order, and simulation drops are
// reconciled against the final merged set).
type RemoteOutcome struct {
	Status Status
	Phase  Phase

	// Decisions and Backtracks are the search effort the worker spent on the
	// fault in this unit alone; across the passes of an escalating run they
	// accumulate on the coordinator's per-fault result.
	Decisions  int
	Backtracks int

	// Test is the verified two-vector test of a Tested fault.  Raw is its
	// X-preserving pre-fill form when the options track unfilled patterns
	// (Options.EmitUnfilled, needed by merge-level compaction); otherwise it
	// is empty.
	Test pattern.Pair
	Raw  pattern.Pair
}

// ProcessRemoteUnit is the worker side of a distributed run: it processes one
// work unit — the exact sched.Group cut the coordinator's pass pipeline
// produced — under the given pass spec and returns one outcome per fault, in
// unit order.  foreign carries the verified patterns published by the other
// workers of the job since this worker's previous fetch; as in a local
// sharded run they are swept against the unit's faults at claim time (and
// kept for later units), so a fault another worker's pattern already detects
// is dropped without a search.  Pending outcomes (a non-final pass whose
// budget ran out) are legal: the coordinator escalates those faults into the
// next pass.
//
// The generator must be dedicated to one job (same circuit and options as
// the coordinator's master, fresh test set): its test set accumulates the
// patterns of the units it processed, which the caller publishes to the
// other workers (TestSet), and its statistics accumulate the search effort,
// which the caller reports to the coordinator as periodic deltas
// (Stats.EffortDelta / RemoteRun.AddEffort).
func (g *Generator) ProcessRemoteUnit(ctx context.Context, faults []paths.Fault, spec PassSpec, foreign []pattern.Pair) []RemoteOutcome {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	sensAtStart := g.stats.SensitizeTime

	_, recs := newRecs(faults)
	if len(foreign) > 0 {
		g.foreign = append(g.foreign, foreign...)
	}
	g.claimSweep(recs)
	g.processUnit(ctx, recs, spec)

	g.stats.GenerateTime += time.Since(start) - (g.stats.SensitizeTime - sensAtStart)

	out := make([]RemoteOutcome, len(recs))
	for i, r := range recs {
		o := RemoteOutcome{
			Status:     r.res.Status,
			Phase:      r.res.Phase,
			Decisions:  r.res.Decisions,
			Backtracks: r.res.Backtracks,
		}
		if r.res.Status == Tested {
			o.Test = r.res.Test
			if g.opts.EmitUnfilled && r.res.PatternIndex >= 0 {
				o.Raw = g.testSet.UnfilledAt(r.res.PatternIndex)
			}
		}
		out[i] = o
	}
	return out
}

// RemoteRun is the coordinator side of a distributed run: the same pipeline
// as Run/RunSharded — pass cutting, canonical merge, drop reconciliation,
// static compaction — with the unit processing replaced by a dispatch
// callback.  The caller (internal/service) owns the transport: it leases the
// units of each pass to workers, feeds their reported outcomes to Apply, and
// returns from dispatch once every unit of the pass has been applied.
//
// Apply and AddEffort are safe for concurrent use with each other, but the
// caller must not let them race the pass transition: every Apply for a pass
// must complete (happen before) dispatch returning for that pass — the
// service coordinator serializes completions under its per-job mutex and
// acquires that mutex once more after the pass's lease queue drains, which
// is exactly that barrier.
type RemoteRun struct {
	master  *Generator
	faults  []paths.Fault
	results []FaultResult
	recs    []*rec
	base    int

	mu       sync.Mutex
	outcomes []RemoteOutcome
}

// NewRemoteRun prepares a distributed run of the faults on the master
// generator.  The master carries the circuit, the options, the accumulated
// test set and the statistics, exactly as for a local run; its OnSettle
// callback is invoked from Apply as faults settle.
func NewRemoteRun(master *Generator, faults []paths.Fault) *RemoteRun {
	results, recs := newRecs(faults)
	master.stats.Faults += len(faults)
	return &RemoteRun{
		master:   master,
		faults:   faults,
		results:  results,
		recs:     recs,
		base:     master.testSet.Len(),
		outcomes: make([]RemoteOutcome, len(faults)),
	}
}

// Apply folds one processed unit's outcomes into the run: unit holds the
// fault indices (into the run's fault slice) of the dispatched unit, and
// outcomes the worker's report in the same order.  Application is
// first-write-wins per fault — a duplicate report for an already settled
// fault (the at-least-once case: lease requeue plus a late original result)
// is a no-op, which keeps every classification the first reported one.
// Pending outcomes only accumulate the search effort; the fault stays
// pending for the escalation pass.  The master's OnSettle fires for every
// newly settled fault; the indices of those faults are returned.
func (rr *RemoteRun) Apply(unit []int, outcomes []RemoteOutcome) []int {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	m := rr.master
	var settled []int
	for i, fi := range unit {
		if i >= len(outcomes) || fi < 0 || fi >= len(rr.recs) {
			continue
		}
		o := outcomes[i]
		r := rr.recs[fi]
		if r.res.Status != Pending {
			continue // first write wins: a requeued duplicate changes nothing
		}
		r.res.Decisions += o.Decisions
		r.res.Backtracks += o.Backtracks
		if o.Status == Pending {
			continue // non-final pass, budget exhausted: escalates
		}
		r.res.Status = o.Status
		r.res.Phase = o.Phase
		if o.Status == Tested {
			r.res.Test = o.Test
		}
		rr.outcomes[fi] = o
		switch o.Status {
		case Tested:
			m.stats.Tested++
			m.stats.Patterns++
		case Redundant:
			m.stats.Redundant++
		case Aborted:
			m.stats.Aborted++
		case DetectedBySim:
			m.stats.DetectedBySim++
		}
		m.settle(r)
		settled = append(settled, fi)
	}
	return settled
}

// AddEffort folds a worker's search-effort delta (Stats.EffortDelta between
// two snapshots of the worker generator's statistics) into the master's
// statistics.  Classification counters are not touched — those are bumped by
// Apply, deduplicated per fault — so duplicated effort from an at-least-once
// requeue can at worst overstate the effort counters, never the results.
func (rr *RemoteRun) AddEffort(d Stats) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	s := &rr.master.stats
	s.FPTPGGroups += d.FPTPGGroups
	s.APTPGFaults += d.APTPGFaults
	s.Decisions += d.Decisions
	s.Backtracks += d.Backtracks
	s.Implications += d.Implications
	s.PrunedRedundant += d.PrunedRedundant
	s.SensitizeTime += d.SensitizeTime
	s.GenerateTime += d.GenerateTime
}

// Run drives the distributed run: it cuts the passes into work units exactly
// like a local run (guided routing, hardest-first ordering and cost
// weighting included) and hands each pass's units to dispatch, which must
// not return before every unit of the pass has been processed and applied
// (see the synchronization contract on RemoteRun).  After the passes it
// finishes exactly like RunSharded: pending faults are swept up (carrying
// the cancellation cause when ctx ended the run), the test set is merged in
// canonical fault order, simulation drops are reconciled against the merged
// set, and the run's patterns are statically compacted.  The results are
// input-ordered: result i belongs to fault i.
func (rr *RemoteRun) Run(ctx context.Context, dispatch func(units []sched.Unit, spec PassSpec)) []FaultResult {
	if ctx == nil {
		ctx = context.Background()
	}
	m := rr.master
	m.runPasses(rr.recs, func(units []sched.Unit, ps PassSpec) {
		if ctx.Err() != nil {
			return // canceled: skip dispatch, finish marks the rest
		}
		dispatch(units, ps)
	})
	m.finish(ctx, rr.recs)
	rr.mergeOutcomes()
	m.reconcileDrops(rr.results)
	if ctx.Err() == nil {
		m.compactRun(rr.faults, rr.results, rr.base)
	}
	return rr.results
}

// mergeOutcomes reassembles the workers' patterns on the master in canonical
// fault order: walking the results by fault input index, every Tested
// fault's pattern is appended to the master's test set, so the merged set is
// a pure function of the per-fault outcomes — independent of which worker
// processed which unit, of lease requeues and of result arrival order — and
// identical to the merged set of a local sharded run with the same
// per-fault outcomes.  DetectedBySim faults keep index -1 here and get the
// first detecting pattern of the merged set from reconcileDrops.
//
//atpgvet:deterministic
func (rr *RemoteRun) mergeOutcomes() {
	m := rr.master
	for i := range rr.results {
		r := &rr.results[i]
		if r.Status != Tested {
			continue
		}
		o := rr.outcomes[i]
		idx := m.testSet.Len()
		target := rr.faults[i].Describe(m.c)
		if m.opts.EmitUnfilled && o.Raw.Len() > 0 {
			m.testSet.AddUnfilled(o.Test, o.Raw, target)
		} else {
			m.testSet.Add(o.Test, target)
		}
		r.PatternIndex = idx
	}
}

// EffortDelta returns the search-effort counters accumulated between the
// prev snapshot and s: the fields RemoteRun.AddEffort folds into a
// coordinator's statistics.  Classification counters, dispatch and
// compaction summaries are zero in the delta — classifications travel with
// the unit outcomes, and dispatch/compaction happen on the coordinator.
func (s Stats) EffortDelta(prev Stats) Stats {
	return Stats{
		FPTPGGroups:     s.FPTPGGroups - prev.FPTPGGroups,
		APTPGFaults:     s.APTPGFaults - prev.APTPGFaults,
		Decisions:       s.Decisions - prev.Decisions,
		Backtracks:      s.Backtracks - prev.Backtracks,
		Implications:    s.Implications - prev.Implications,
		PrunedRedundant: s.PrunedRedundant - prev.PrunedRedundant,
		SensitizeTime:   s.SensitizeTime - prev.SensitizeTime,
		GenerateTime:    s.GenerateTime - prev.GenerateTime,
	}
}

// ImportRemoteRun is the client side of a distributed run: it folds the
// coordinator's final results, merged test set and statistics into this
// generator, as if the generator had run the faults itself.  The set is
// appended to the generator's accumulated test set and the returned results
// have their pattern indices rebased onto it; the input slices are not
// mutated.  Later local runs on the same generator compose as usual
// (patterns accumulate, imported patterns are never re-simulated).
func (g *Generator) ImportRemoteRun(results []FaultResult, set *pattern.Set, stats Stats) []FaultResult {
	base := g.testSet.Len()
	if set != nil {
		g.testSet.Append(set)
	}
	g.stats.Add(stats)
	out := make([]FaultResult, len(results))
	copy(out, results)
	for i := range out {
		if out[i].PatternIndex >= 0 {
			out[i].PatternIndex += base
		}
	}
	return out
}
