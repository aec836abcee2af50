package core

import (
	"context"
	"sort"
	"sync"
	"time"

	"repro/internal/faultsim"
	"repro/internal/paths"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/sensitize"
	"repro/internal/testability"
)

// RunSharded generates tests for the faults like Generator.Run, but spreads
// the work across workers goroutines, multiplying the paper's word-level bit
// parallelism by core-level parallelism.  Each worker is a Fork of master —
// an independent generator over the shared immutable circuit — consuming
// work units (word-parallel fault groups) from a shared scheduler
// (internal/sched).  Under Options.Schedule == sched.Static every worker
// drains one contiguous pre-assigned run of units, reproducing the classic
// contiguous shard split; under sched.Steal an idle worker steals queued
// units from the most loaded peer, so clustered hard faults no longer
// serialize on one worker.  With Options.EscalationWidth the scheduler runs
// the two passes of adaptive grouping: a cheap fault-serial pass over every
// fault, then wide word-parallel groups for the survivors.  When the
// interleaved fault simulation is enabled, workers exchange their verified
// patterns through a shared buffer, so a pattern emitted by one worker still
// drops detected faults on the others.
//
// The merged result slice is deterministic and input-ordered: result i
// belongs to faults[i].  Pattern indices refer to the merged test set, which
// is reassembled in canonical fault order — the pattern of a Tested fault
// appears at the position its fault's input index dictates, regardless of
// which worker generated it or in which order — so the merged set does not
// depend on the dispatch policy or the steal interleaving.  Faults dropped
// by a foreign worker's pattern get the index of the first pattern of the
// merged set that detects them.  master's OnSettle callback is invoked as
// faults settle, serialized by a mutex but in a nondeterministic
// interleaving across workers; its OnPattern and ImportPatterns hooks are
// not used.  Statistics are summed over the workers, so the time fields
// report aggregate CPU time rather than wall-clock time.
//
// When Options.Compaction is enabled, the merged test set of the run is
// statically compacted once after the deterministic merge (reverse-order
// fault simulation and, at compact.Full, compatible-pair merging), and the
// PatternIndex of every covered fault is remapped onto the compacted set.
// Compaction applies equally to the workers <= 1 path, so the sequential
// and sharded engines stay comparable.
//
// With workers <= 1 (or a single fault) the call is exactly master.Run.
// master must not be used concurrently with RunSharded.
func RunSharded(ctx context.Context, master *Generator, faults []paths.Fault, workers int) []FaultResult {
	if workers > len(faults) {
		workers = len(faults)
	}
	base := master.testSet.Len()
	if workers <= 1 {
		results := master.Run(ctx, faults)
		if ctx == nil || ctx.Err() == nil {
			master.compactRun(faults, results, base)
		}
		return results
	}
	if ctx == nil {
		ctx = context.Background()
	}

	var settleMu sync.Mutex
	settle := master.OnSettle

	var x *exchange
	if master.opts.FaultSimInterval > 0 {
		x = newExchange(workers)
	}

	gens := make([]*Generator, workers)
	for w := 0; w < workers; w++ {
		g := master.Fork()
		if settle != nil {
			g.OnSettle = func(r FaultResult) {
				settleMu.Lock()
				defer settleMu.Unlock()
				settle(r)
			}
		}
		if x != nil {
			id := w
			g.OnPattern = func(p pattern.Pair) { x.publish(id, p) }
			g.ImportPatterns = func() []pattern.Pair { return x.fetch(id) }
		}
		gens[w] = g
	}

	results, recs := newRecs(faults)
	master.stats.Faults += len(faults)

	master.runPasses(recs, func(units []sched.Unit, ps PassSpec) {
		sc := sched.New(master.opts.Schedule, workers)
		sc.Load(units)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				g := gens[w]
				start := time.Now()
				sensAtStart := g.stats.SensitizeTime
				g.consume(ctx, sc, w, recs, ps)
				g.stats.GenerateTime += time.Since(start) - (g.stats.SensitizeTime - sensAtStart)
			}(w)
		}
		wg.Wait()
		master.stats.Sched.Add(sc.Stats())
	})

	master.finish(ctx, recs)
	mergeResults(master, gens, recs, results)
	master.reconcileDrops(results)

	// Static compaction of the merged set, once, after the deterministic
	// merge (skipped when the run was cut short: a canceled run should
	// return promptly, and its test set is not final anyway).
	if ctx.Err() == nil {
		master.compactRun(faults, results, base)
	}
	return results
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

// mergeResults reassembles the workers' output on the master, in canonical
// fault order: walking the results by fault input index, every Tested
// fault's pattern is appended to the master set (so the merged set's order
// is a pure function of the per-fault outcomes, independent of the dispatch
// interleaving), and the worker-local PatternIndex of every covered fault is
// remapped onto the merged set.  Cross-worker simulation drops keep index -1
// here and are reconciled by reconcileDrops.  Worker statistics and
// learned redundant subpaths are absorbed into the master.
//
//atpgvet:deterministic
func mergeResults(master *Generator, gens []*Generator, recs []*rec, results []FaultResult) {
	type patKey struct{ worker, index int }
	remap := make(map[patKey]int)
	for i := range results {
		r := &results[i]
		if r.Status == Tested && r.PatternIndex >= 0 {
			k := patKey{recs[i].worker, r.PatternIndex}
			mi := master.testSet.AddFrom(gens[k.worker].testSet, k.index)
			remap[k] = mi
			r.PatternIndex = mi
		}
	}
	for i := range results {
		r := &results[i]
		if r.Status != DetectedBySim || r.PatternIndex < 0 {
			continue
		}
		if mi, ok := remap[patKey{recs[i].worker, r.PatternIndex}]; ok {
			r.PatternIndex = mi
		} else {
			// Unreachable while every worker pattern belongs to a Tested
			// fault; fail safe to the foreign-drop reconciliation.
			r.PatternIndex = -1
		}
	}
	for _, g := range gens {
		master.absorbState(g)
	}
}

// reconcileDrops resolves the classifications that depend on the run's
// final test set, with one parallel-pattern simulation pass:
//
//   - Faults dropped by a foreign worker's pattern carry no index into any
//     worker-local set; they get the index of the first pattern of the
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
		case results[i].Status == DetectedBySim && results[i].PatternIndex < 0:
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
