// Package atpg is the public API of the HenftlingW95 reproduction: a
// bit-parallel automatic test pattern generator (ATPG) for path delay
// faults, as described in "A Single-Path-Oriented Fault-Efficient ATPG for
// Standard Scan Designs" (Henftling & Wittmann, EDAC 1995 / DATE).
//
// Everything an external program needs lives in this package: circuit
// loading ([LoadBench], [Builtin], [Synthesize]), fault selection
// ([AllFaults], [SampleFaults], [LongestPaths]), the generator itself
// ([Engine], built with [New] and functional options), fault simulation
// ([Simulate], [FaultCoverage], [EstimateFaultCoverage]) and the paper's
// experiment harness (RunTable3 … RunTable8).  The repro/internal packages
// are implementation detail and not importable.
//
// # Quickstart
//
//	c, err := atpg.Builtin("c17")
//	if err != nil { ... }
//	e, err := atpg.New(c, atpg.WithMode(atpg.Robust))
//	if err != nil { ... }
//	results, err := e.Run(context.Background(), atpg.AllFaults(c, 0))
//	for _, r := range results {
//		fmt.Println(c.Describe(r.Fault), r.Status)
//	}
//
// Results can also be consumed as they are produced, via the streaming
// iterator [Engine.Stream]:
//
//	for r := range e.Stream(ctx, faults) {
//		if r.Status == atpg.Tested { persist(r.Test) }
//	}
//
// # How the options map onto the paper
//
// The paper combines two forms of bit parallelism over the L bit levels of
// a machine word (Section 3); each option controls one published knob:
//
//   - [WithWordWidth] sets L, the number of bit levels exploited
//     (1..[MaxWordWidth], Section 3; Tables 3-6 use 64, Tables 7-8 use 32).
//     L = 1 is the single-bit baseline of Tables 5 and 6; L > 64 extends the
//     paper's machine word to multi-word plane vectors.
//   - [WithMode] selects the test class: [Robust] (Lin/Reddy robust path
//     delay tests) or [Nonrobust], the two classes of Tables 3 and 4.
//   - [WithFaultParallel] toggles FPTPG (fault-parallel test pattern
//     generation, Section 3.1): up to L target faults are sensitized
//     simultaneously, one per bit level, and justified with shared
//     bit-parallel implications.
//   - [WithAlternativeParallel] toggles APTPG (alternative-parallel test
//     pattern generation, Section 3.2): a single hard fault is flattened
//     onto all L bit levels and all value combinations of up to log2(L)
//     backtrace-selected inputs are examined in parallel.
//   - [WithBacktrackLimit] bounds the conventional backtracks APTPG spends
//     per fault before aborting it (the abort limit behind the efficiency
//     column of Tables 3 and 4).
//   - [WithInterleavedSim] switches the fault-simulation dropping: the
//     paper simulates the pending faults after every L generated patterns
//     and drops the detected ones.  The engine simulates each work unit's
//     faults against the existing patterns when the unit is claimed, at
//     every worker count; a positive value turns this on and sets no
//     cadence (the int type stays for the wire format and ledgers).
//   - [WithProgress] registers a callback invoked as each fault settles;
//     it observes the same stream [Engine.Stream] yields.
//
// # Beyond the paper: scheduling, work-stealing, adaptive grouping
//
// The paper's parallelism lives inside one machine word; [WithWorkers]
// multiplies it by core-level parallelism.  All fault dispatch goes
// through one scheduling layer: the fault list is cut into work units
// (word-parallel fault groups) that n worker goroutines claim from
// per-worker queues, each worker running an independent generator over
// the shared immutable circuit.  [WithSchedule] selects the dispatch
// policy — [ScheduleStatic] pre-assigns contiguous runs of units, the
// classic shard split, while [ScheduleSteal] additionally lets an idle
// worker steal queued units from the most loaded peer, so clustered hard
// faults do not serialize on one worker.  The workers cooperate: patterns
// emitted by one are fault-simulated against the others' pending faults,
// so the interleaved-simulation dropping of the paper keeps working
// across workers.  Results merge into the same deterministic,
// input-ordered slice [Engine.Run] always returns — the merged test set
// is reassembled in canonical fault order, so with the interleaved
// simulation disabled it is identical for every worker count and dispatch
// policy (with it enabled, which covered fault contributes a pattern still
// depends on cross-worker drop timing) — and the test set, statistics and
// learned redundant subpaths accumulate in the engine exactly as in a
// sequential run.
//
// [WithEscalation] enables two-pass adaptive fault grouping: every fault
// first runs fault-serial (width 1) under a cheap backtrack budget
// ([WithFirstPassBudget]), and only the survivors are regrouped into wide
// word-parallel groups under the full budget — word-level sharing is
// spent where the search is expensive enough to pay for it.  See
// docs/ARCHITECTURE.md ("Scheduling") for the design.
//
// Generation honors context cancellation and deadlines: a canceled run
// returns early with an error matching [ErrCanceled], and every fault that
// had not settled yet is reported as [Aborted] with the cancellation cause
// in its Err field.
package atpg
