package core

import (
	"cmp"
	"context"
	"slices"
	"sort"
	"sync"

	"repro/internal/faultsim"
	"repro/internal/logic"
	"repro/internal/paths"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/sensitize"
	"repro/internal/testability"
)

// RunSharded generates tests for the target faults and returns one result
// per fault, in the same order: result i belongs to faults[i].  It is the
// one local run path at every worker count.  The master generator is worker
// 0 and runs on the calling goroutine; workers 1..n-1 are Forks of master —
// independent generators over the shared immutable circuit — on their own
// goroutines.  A single worker forks nothing.  The workers consume work
// units (word-parallel fault groups) from a shared scheduler
// (internal/sched).  Under Options.Schedule == sched.Static every worker
// drains one contiguous pre-assigned run of units, the classic contiguous
// shard split; under sched.Steal an idle worker steals queued units from the
// most loaded peer, so clustered hard faults no longer serialize on one
// worker.  With Options.EscalationWidth the scheduler runs the two passes of
// adaptive grouping: a cheap fault-serial pass over every fault, then wide
// word-parallel groups for the survivors.  When the interleaved fault
// simulation is enabled, workers exchange their verified patterns through a
// shared buffer, so a pattern emitted by one worker still drops detected
// faults on the others.
//
// The context bounds the run: when it is canceled or its deadline expires,
// generation stops at the next check point and every fault that has not
// settled yet is returned as Aborted with the cancellation cause in its Err
// field.  Callers tell a canceled run from a completed one by ctx.Err (or
// context.Cause) after RunSharded returns.
//
// The run ends like a distributed one (RemoteRun.Run), in endRun: the run's
// patterns are laid out in one canonical, content-derived order (mergeRun),
// faults dropped by simulation get the first detecting pattern of that set
// (reconcileDrops), and with Options.Compaction the run's patterns are
// statically compacted and every covered fault's PatternIndex remapped onto
// the compacted set (skipped for a canceled run).  With the interleaved
// simulation off the test set is therefore the same at every worker count,
// under either dispatch policy, and on the remote path.
//
// master's OnSettle callback is invoked as faults settle, serialized by a
// mutex but in a nondeterministic interleaving across workers; the
// PatternIndex it sees is pre-merge.  For the duration of the run master's
// OnPattern and ImportPatterns hooks serve the cross-worker exchange; all
// three hooks are restored when RunSharded returns.  Statistics are summed
// over the workers, so the time fields report aggregate CPU time rather than
// wall-clock time.  master may run several times, accumulating its test set
// and statistics, but must not be used concurrently with RunSharded.
func RunSharded(ctx context.Context, master *Generator, faults []paths.Fault, workers int) []FaultResult {
	if ctx == nil {
		ctx = context.Background()
	}
	workers = max(1, min(workers, len(faults)))
	base := master.testSet.Len()
	master.runBase = base
	master.foreign = nil

	settle, onPattern, importPatterns := master.OnSettle, master.OnPattern, master.ImportPatterns
	defer func() {
		master.OnSettle, master.OnPattern, master.ImportPatterns = settle, onPattern, importPatterns
	}()
	var settleMu sync.Mutex
	var x *exchange
	if master.opts.FaultSimInterval > 0 && workers > 1 {
		x = newExchange(workers)
	}
	gens := []*Generator{master}
	for w := 1; w < workers; w++ {
		gens = append(gens, master.Fork())
	}
	for w, g := range gens {
		g.OnSettle, g.OnPattern, g.ImportPatterns = nil, nil, nil
		if settle != nil {
			g.OnSettle = func(r FaultResult) {
				settleMu.Lock()
				defer settleMu.Unlock()
				settle(r)
			}
		}
		if x != nil {
			g.OnPattern = func(p pattern.Pair) { x.publish(w, p) }
			g.ImportPatterns = func() []pattern.Pair { return x.fetch(w) }
		}
	}

	results, recs := newRecs(faults)
	master.stats.Faults += len(faults)

	master.runPasses(recs, func(units []sched.Unit, ps PassSpec) {
		sc := sched.New(master.opts.Schedule, workers)
		sc.Load(units)
		var wg sync.WaitGroup
		for w := 1; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				gens[w].consume(ctx, sc, w, recs, ps)
			}()
		}
		master.consume(ctx, sc, 0, recs, ps)
		wg.Wait()
		master.stats.Sched.Add(sc.Stats())
	})

	for _, g := range gens[1:] {
		master.absorbState(g)
	}
	master.endRun(ctx, faults, results, recs, base)
	return results
}

// endRun is the tail every run shares, local (RunSharded) or distributed
// (RemoteRun.Run): faults still pending are swept up, the run's patterns are
// merged in canonical order, simulation drops are reconciled against the
// merged set, and — unless the run was cut short: a canceled run should
// return promptly, and its test set is not final anyway — the run's patterns
// are statically compacted.
func (g *Generator) endRun(ctx context.Context, faults []paths.Fault, results []FaultResult, recs []*rec, base int) {
	g.finish(ctx, recs)
	g.mergeRun(recs, base)
	g.reconcileDrops(results)
	if ctx.Err() == nil {
		g.compactRun(faults, results, base)
	}
}

// mergeRun lays the run's patterns out in one canonical, content-derived
// order: the test set is cut back to base (dropping the working copies the
// claim sweeps simulated against) and every Tested fault's test is re-added,
// with its unfilled form when one was recorded, ordered by the number of 1
// values in the filled pair (V1 plus V2), ties in fault input order.  The
// merged set is thus a pure function of the per-fault outcomes — independent
// of the worker count, the dispatch interleaving and, for a distributed run,
// of which worker processed which unit — and reverse-order compaction, which
// keeps the last patterns first, sees the same input however the run was
// dispatched.  Tested faults get their position in the merged set;
// DetectedBySim faults lose their pre-merge index and get the first
// detecting pattern of the merged set from reconcileDrops.
//
//atpgvet:deterministic
func (g *Generator) mergeRun(recs []*rec, base int) {
	type keyed struct {
		r    *rec
		ones int
	}
	var tested []keyed
	for _, r := range recs {
		switch r.res.Status {
		case Tested:
			tested = append(tested, keyed{r, onesCount(r.res.Test)})
		case DetectedBySim:
			r.res.PatternIndex = -1
		}
	}
	slices.SortStableFunc(tested, func(a, b keyed) int { return cmp.Compare(a.ones, b.ones) })
	g.testSet.Truncate(base)
	for _, t := range tested {
		r := t.r
		r.res.PatternIndex = g.testSet.Len()
		if r.raw.Len() > 0 {
			g.testSet.AddUnfilled(r.res.Test, r.raw, r.fault.Describe(g.c))
		} else {
			g.testSet.Add(r.res.Test, r.fault.Describe(g.c))
		}
	}
}

// onesCount is mergeRun's ordering key: the number of 1 values in V1 and V2.
func onesCount(p pattern.Pair) int {
	n := 0
	for i := range p.V1 {
		if p.V1[i] == logic.One3 {
			n++
		}
		if p.V2[i] == logic.One3 {
			n++
		}
	}
	return n
}

// runPasses executes the pass sequence the options select — one fixed-width
// pass, or the cheap fault-serial pass plus the wide escalation pass of
// adaptive grouping — over the records.  For each pass it groups the
// still-pending faults into work units and hands them to drain together with
// the pass spec; drain owns the dispatch (a local scheduler, or the lease
// queue of a distributed run) and must not return before every unit of the
// pass has been fully processed.  Escalation counters accumulate into the
// master's stats.
//
// With Options.GuidedEscalation the passes are testability-guided: every
// fault is scored up front (testability.FaultScore on the circuit's cached
// measures), predicted-hard faults skip the cheap first pass and enter the
// wide pass directly, each pass processes its faults hardest first in
// cost-weighted units, and — when no explicit EscalationWidth is set — the
// escalation width is derived from the size of the predicted-hard tail.
// Guidance only routes and orders work: which searches run, under which
// budgets and at which widths is decided by the same pass specs, so its
// effect is wall-clock, not coverage (see docs/ARCHITECTURE.md).
func (g *Generator) runPasses(recs []*rec, drain func(units []sched.Unit, ps PassSpec)) {
	opts := g.opts
	passes := opts.passes()

	// Guided routing: score the targets once and flag the hard tail.
	var hard []bool
	var scores []int
	if opts.GuidedEscalation && len(passes) > 1 {
		hard, scores = g.predictHard(recs)
		nHard := 0
		for _, h := range hard {
			if h {
				nHard++
			}
		}
		g.stats.PredictedHard += nHard
		if opts.EscalationWidth == 0 {
			passes[len(passes)-1].Width = testability.AutoWidth(nHard)
		}
	}

	var firstPass []int
	for pi := range passes {
		ps := passes[pi]
		idx := make([]int, 0, len(recs))
		for i, r := range recs {
			if r.res.Status != Pending {
				continue
			}
			if !ps.Final && hard != nil && hard[i] {
				continue // predicted hard: no cheap pass, escalate directly
			}
			idx = append(idx, i)
		}
		if pi == 0 && len(passes) > 1 {
			firstPass = idx
		}
		if pi > 0 {
			settled := 0
			for _, i := range firstPass {
				if recs[i].res.Status != Pending {
					settled++
				}
			}
			g.stats.FirstPassSettled += settled
			g.stats.Escalated += len(idx)
		}
		if len(idx) == 0 {
			continue
		}
		if scores != nil {
			sortHardestFirst(idx, scores)
		}
		units := sched.Group(idx, ps.Width)
		if scores != nil {
			for ui := range units {
				cost := 0
				for _, fi := range units[ui].Faults {
					// The +1 keeps zero-score faults from producing weightless
					// units the balancing split cannot account.
					cost += 1 + scores[fi]
				}
				units[ui].Cost = cost
			}
		}
		drain(units, ps)
	}
}

// predictHard scores every target fault with the circuit's cached
// testability measures and flags the ones above the hardness threshold
// (twice the median score of this fault population).
func (g *Generator) predictHard(recs []*rec) (hard []bool, scores []int) {
	scores = make([]int, len(recs))
	for i, r := range recs {
		scores[i] = g.tm.FaultScore(g.c, r.fault, g.opts.Mode)
	}
	thr := testability.HardThreshold(scores)
	hard = make([]bool, len(recs))
	for i, s := range scores {
		hard[i] = s > thr
	}
	return hard, scores
}

// sortHardestFirst orders the fault indices by descending score, ties by
// ascending input index: hard faults start (and finish) first, so the
// stealing scheduler rebalances a genuine tail instead of discovering the
// hard cluster last, and the order is a pure function of the scores.
func sortHardestFirst(idx []int, scores []int) {
	sort.Slice(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] > scores[idx[b]]
		}
		return idx[a] < idx[b]
	})
}

// reconcileDrops resolves the classifications that depend on the run's
// final test set, with one parallel-pattern simulation pass:
//
//   - Faults dropped by simulation carry no index after mergeRun (their
//     pre-merge index pointed into a worker's working set, or nowhere for
//     a foreign pattern); they get the index of the first pattern of the
//     merged set that detects them.
//
//   - While the interleaved simulation is active, faults the search proved
//     Redundant but the final set demonstrably detects are reported
//     DetectedBySim.  The two classifications can genuinely coexist: the
//     search's sensitization conditions under-approximate the simulator's
//     detection criterion (e.g. XOR-rich paths, where the search fixes the
//     transition polarity along the path while the simulator accepts any
//     polarity), so whether such a fault was dropped or searched first used
//     to depend on pattern arrival order — across workers, a race.  Anchoring
//     the class to the final set makes the outcome independent of the
//     dispatch interleaving; the evidence (a concrete detecting pattern)
//     takes precedence over the narrower proof.  OnSettle may have reported
//     such a fault Redundant when it settled; the returned results are the
//     authoritative classification, as with the post-settle pattern-index
//     remapping of compaction.
func (g *Generator) reconcileDrops(results []FaultResult) {
	var idx []int
	for i := range results {
		switch {
		case results[i].Status == DetectedBySim:
			idx = append(idx, i)
		case results[i].Status == Redundant && g.opts.FaultSimInterval > 0:
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 || g.testSet.Len() == 0 {
		return
	}
	checked := make([]paths.Fault, len(idx))
	for i, j := range idx {
		checked[i] = results[j].Fault
	}
	sim, err := faultsim.Run(g.c, g.testSet.Pairs, checked,
		g.opts.Mode == sensitize.Robust)
	if err != nil {
		return
	}
	for i, j := range idx {
		r := &results[j]
		if r.Status == Redundant {
			if sim.DetectedBy[i] >= 0 {
				r.Status = DetectedBySim
				r.Phase = PhaseSimulation
				r.PatternIndex = sim.DetectedBy[i]
				g.stats.Redundant--
				g.stats.DetectedBySim++
			}
			continue
		}
		r.PatternIndex = sim.DetectedBy[i]
	}
}

// exchange is the cross-worker pattern buffer: every worker publishes its
// verified patterns and periodically fetches the patterns the other workers
// published since its last fetch, so DetectedBySim drops happen across
// workers regardless of the dispatch policy.
type exchange struct {
	mu      sync.Mutex
	entries []exchangeEntry
	cursors []int
}

type exchangeEntry struct {
	from int
	pair pattern.Pair
}

func newExchange(workers int) *exchange {
	return &exchange{cursors: make([]int, workers)}
}

func (x *exchange) publish(from int, p pattern.Pair) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.entries = append(x.entries, exchangeEntry{from: from, pair: p})
}

// fetch returns the patterns published by other workers since worker w's
// previous fetch.
func (x *exchange) fetch(w int) []pattern.Pair {
	x.mu.Lock()
	defer x.mu.Unlock()
	var out []pattern.Pair
	for _, e := range x.entries[x.cursors[w]:] {
		if e.from != w {
			out = append(out, e.pair)
		}
	}
	x.cursors[w] = len(x.entries)
	return out
}
