package core

import (
	"repro/internal/compact"
	"repro/internal/faultsim"
	"repro/internal/paths"
	"repro/internal/sensitize"
)

// compactRun statically compacts the patterns this run appended to the test
// set (indices base and up) against the run's fault list, when the options
// ask for it: compatible-pair merging and/or reverse-order fault
// simulation, followed by a PatternIndex remap of the run's results onto
// the compacted set.  Earlier runs' patterns are never touched — their
// faults are not in scope, so dropping or merging them could lose coverage.
//
// Compaction is coverage-exact (see internal/compact): the compacted set
// detects exactly the faults of this run the uncompacted set detected, so
// every result with a Detected() status keeps a valid detecting pattern.
// The Test field of a Tested result still holds the pattern as generated,
// which after merging is subsumed by (but no longer literally present in)
// the set; PatternIndex always points at a pattern of the compacted set
// that detects the fault.
func (g *Generator) compactRun(faults []paths.Fault, results []FaultResult, base int) {
	if g.opts.Compaction == compact.None || g.testSet.Len()-base < 2 {
		return
	}
	robust := g.opts.Mode == sensitize.Robust
	sub := g.testSet.Slice(base)
	compacted, st, err := compact.Compact(g.c, sub, faults, robust, g.opts.Compaction, g.opts.CompactionXFill)
	if err != nil {
		// The run keeps its uncompacted set, which is still valid; the
		// failure is counted so it does not pass for "nothing to compact".
		g.stats.Compaction.Failed++
		return
	}
	g.stats.Compaction.Add(st)
	if st.PairsAfter >= st.PairsBefore {
		return
	}
	g.testSet.Truncate(base)
	g.testSet.Append(compacted)

	// Remap the run's pattern indices onto the compacted set.  One more
	// parallel-pattern pass; detection of every covered fault is guaranteed
	// (every recorded pattern was verified against its fault, and compaction
	// is coverage-exact), so a miss would be a bug.  Neither a miss nor a
	// simulation error may leave an index pointing into the replaced window:
	// both fail safe to -1.  Indices below base (an earlier run's pattern,
	// untouched by this compaction) stay valid and are kept.
	sim, simErr := faultsim.Run(g.c, compacted.Pairs, faults, robust)
	for i := range results {
		if !results[i].Status.Detected() {
			continue
		}
		switch {
		case simErr == nil && sim.DetectedBy[i] >= 0:
			results[i].PatternIndex = base + sim.DetectedBy[i]
		case results[i].PatternIndex >= base:
			results[i].PatternIndex = -1
		}
	}
}
