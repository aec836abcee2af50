package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/compact"
	"repro/internal/faultsim"
	"repro/internal/paths"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/sensitize"
)

// detectedVector fault-simulates the pairs over the faults and returns the
// per-fault detection vector.
func detectedVector(t *testing.T, c *circuit.Circuit, pairs []pattern.Pair, faults []paths.Fault) []bool {
	t.Helper()
	res, err := faultsim.Run(c, pairs, faults, true)
	if err != nil {
		t.Fatal(err)
	}
	return res.Detected
}

// classOf collapses a status to its coverage class: Tested and DetectedBySim
// both mean "the merged test set covers the fault", and which of the two a
// fault gets depends on the worker interleaving when the cross-worker
// pattern exchange is active.
func classOf(s Status) string {
	if s.Detected() {
		return "detected"
	}
	return s.String()
}

// TestShardedMatchesSequential checks the cornerstone of the scheduler-driven
// engine on several circuits and modes: any worker count, under either
// dispatch policy, must classify every fault the same as the sequential
// generator.  With the interleaved simulation disabled every fault's search
// is independent, so the statuses must match exactly; with it enabled,
// Tested and DetectedBySim may swap (coverage class equality), but
// redundancy proofs and the merged coverage must not move.
func TestShardedMatchesSequential(t *testing.T) {
	for _, name := range []string{"c17", "paper", "redundant", "adder8", "cmp8"} {
		c, err := bench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		faults := paths.EnumerateFaults(c, 0)
		for _, mode := range []sensitize.Mode{sensitize.Robust, sensitize.Nonrobust} {
			for _, simInterval := range []int{0, 4} {
				for _, schedule := range []sched.Policy{sched.Static, sched.Steal} {
					opts := DefaultOptions(mode)
					opts.FaultSimInterval = simInterval
					opts.Schedule = schedule
					seq := New(c, opts)
					want := RunSharded(context.Background(), seq, faults, 1)
					for _, workers := range []int{2, 3, 8} {
						g := New(c, opts)
						got := RunSharded(context.Background(), g, faults, workers)
						if len(got) != len(want) {
							t.Fatalf("%s: %d sharded results for %d faults", name, len(got), len(faults))
						}
						for i := range got {
							if got[i].Fault.Key() != want[i].Fault.Key() {
								t.Fatalf("%s workers=%d %v: result %d is for fault %s, want %s (merge order broken)",
									name, workers, schedule, i, got[i].Fault.Key(), want[i].Fault.Key())
							}
							if simInterval == 0 {
								if got[i].Status != want[i].Status {
									t.Errorf("%s workers=%d mode=%v %v: fault %s is %v, sequential says %v",
										name, workers, mode, schedule, got[i].Fault.Key(), got[i].Status, want[i].Status)
								}
							} else if classOf(got[i].Status) != classOf(want[i].Status) {
								t.Errorf("%s workers=%d mode=%v sim=%d %v: fault %s is %v, sequential says %v",
									name, workers, mode, simInterval, schedule, got[i].Fault.Key(), got[i].Status, want[i].Status)
							}
						}
						gs, ss := g.Stats(), seq.Stats()
						if gs.Faults != ss.Faults || gs.Redundant != ss.Redundant ||
							gs.Tested+gs.DetectedBySim != ss.Tested+ss.DetectedBySim ||
							gs.Aborted != ss.Aborted {
							t.Errorf("%s workers=%d %v: sharded stats %v disagree with sequential %v",
								name, workers, schedule, gs, ss)
						}
					}
				}
			}
		}
	}
}

// TestShardedPatternIndices checks that every merged result's PatternIndex
// points at a pattern of the merged test set that actually detects the
// fault, for tested and simulation-dropped faults alike, under both
// dispatch policies.
func TestShardedPatternIndices(t *testing.T) {
	c, err := bench.Get("adder8")
	if err != nil {
		t.Fatal(err)
	}
	faults := paths.EnumerateFaults(c, 0)
	for _, schedule := range []sched.Policy{sched.Static, sched.Steal} {
		opts := DefaultOptions(sensitize.Robust)
		opts.FaultSimInterval = 2 // aggressive dropping to exercise the exchange
		opts.Schedule = schedule
		g := New(c, opts)
		results := RunSharded(context.Background(), g, faults, 4)
		set := g.TestSet()
		if set.Len() == 0 {
			t.Fatal("no patterns generated")
		}
		sim := New(c, opts).sim
		for _, r := range results {
			if !r.Status.Detected() {
				continue
			}
			if r.PatternIndex < 0 || r.PatternIndex >= set.Len() {
				t.Errorf("%v: fault %s (%v) has pattern index %d outside the merged set (len %d)",
					schedule, r.Fault.Key(), r.Status, r.PatternIndex, set.Len())
				continue
			}
			if _, err := sim.Load([]pattern.Pair{set.Pairs[r.PatternIndex]}); err != nil {
				t.Fatal(err)
			}
			if sim.Detects(r.Fault, true) == 0 {
				t.Errorf("%v: pattern %d does not detect fault %s it is recorded for",
					schedule, r.PatternIndex, r.Fault.Key())
			}
		}
	}
}

// TestShardedSettleCallback checks that the serialized OnSettle callback
// fires exactly once per fault across all workers.
func TestShardedSettleCallback(t *testing.T) {
	c, err := bench.Get("cmp8")
	if err != nil {
		t.Fatal(err)
	}
	faults := paths.EnumerateFaults(c, 0)
	var mu sync.Mutex
	seen := make(map[string]int)
	g := New(c, DefaultOptions(sensitize.Nonrobust))
	g.OnSettle = func(r FaultResult) {
		mu.Lock()
		defer mu.Unlock()
		seen[r.Fault.Key()]++
	}
	RunSharded(context.Background(), g, faults, 4)
	if len(seen) != len(faults) {
		t.Fatalf("OnSettle saw %d distinct faults, want %d", len(seen), len(faults))
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("fault %s settled %d times", k, n)
		}
	}
}

// sortedPatterns renders a test set as a sorted multiset of pattern strings:
// the canonical form for comparing what was generated regardless of order.
func sortedPatterns(set *pattern.Set) []string {
	out := make([]string, set.Len())
	for i, p := range set.Pairs {
		out[i] = p.String()
	}
	sort.Strings(out)
	return out
}

// TestSchedulerDeterminism is the determinism matrix of the dispatch layer:
// with the interleaved simulation off, every combination of workers in
// {1,2,4,8}, schedule in {static, steal}, escalation on/off and guidance
// on/off must produce identical per-fault classifications and an identical
// pattern multiset — the outcome may not depend on how work was spread over
// cores.  On top of the per-configuration matrix, prediction must not touch
// outcomes: the guided adaptive run must reproduce the unguided adaptive
// run's per-fault statuses exactly (hence coverage and aborts bit-identical)
// and generate the same number of patterns.  The patterns themselves may
// differ: a predicted-hard fault that would have settled in the width-1
// first pass takes its (equally valid) pattern from the width-W APTPG run
// instead, and APTPG enumerates alternatives across bit levels, so its
// pattern choice is width-dependent by design.  Pattern *multiset* equality
// is therefore guaranteed per configuration (the matrix above), not across
// the prediction dimension.
func TestSchedulerDeterminism(t *testing.T) {
	c, err := bench.Get("adder8")
	if err != nil {
		t.Fatal(err)
	}
	faults := paths.EnumerateFaults(c, 0)
	type config struct {
		escalate int
		guided   bool
	}
	statuses := make(map[config][]Status)
	patterns := make(map[config][]string)
	predicted := make(map[config]int)
	for _, cfg := range []config{{0, false}, {8, false}, {0, true}, {8, true}} {
		base := DefaultOptions(sensitize.Robust)
		base.FaultSimInterval = 0
		base.EscalationWidth = cfg.escalate
		base.GuidedEscalation = cfg.guided

		ref := New(c, base)
		want := RunSharded(context.Background(), ref, faults, 1)
		wantPatterns := sortedPatterns(ref.TestSet())
		statuses[cfg] = make([]Status, len(want))
		for i := range want {
			statuses[cfg][i] = want[i].Status
		}
		patterns[cfg] = wantPatterns
		predicted[cfg] = ref.Stats().PredictedHard

		for _, workers := range []int{1, 2, 4, 8} {
			for _, schedule := range []sched.Policy{sched.Static, sched.Steal} {
				opts := base
				opts.Schedule = schedule
				g := New(c, opts)
				got := RunSharded(context.Background(), g, faults, workers)
				tag := fmt.Sprintf("workers=%d schedule=%v escalate=%d guided=%v",
					workers, schedule, cfg.escalate, cfg.guided)
				for i := range got {
					if got[i].Status != want[i].Status {
						t.Errorf("%s: fault %s is %v, reference says %v",
							tag, got[i].Fault.Key(), got[i].Status, want[i].Status)
					}
				}
				gotPatterns := sortedPatterns(g.TestSet())
				if len(gotPatterns) != len(wantPatterns) {
					t.Fatalf("%s: %d patterns, reference has %d", tag, len(gotPatterns), len(wantPatterns))
				}
				for i := range gotPatterns {
					if gotPatterns[i] != wantPatterns[i] {
						t.Fatalf("%s: pattern multiset differs from the reference at %d:\n  %s\n  %s",
							tag, i, gotPatterns[i], wantPatterns[i])
					}
				}
			}
		}
	}

	// The guided dimension must actually be exercised, not vacuously equal.
	guidedAdaptive := config{8, true}
	if predicted[guidedAdaptive] == 0 {
		t.Fatal("guided adaptive run predicted no hard faults; the matrix does not exercise guidance")
	}
	t.Logf("guided adaptive: %d/%d faults predicted hard", predicted[guidedAdaptive], len(faults))

	// Prediction invariance: guided adaptive classifies every fault exactly
	// as unguided adaptive and emits one pattern per tested fault.
	unguided := config{8, false}
	for i, s := range statuses[guidedAdaptive] {
		if s != statuses[unguided][i] {
			t.Errorf("prediction changed fault %s: guided %v, unguided %v",
				faults[i].Key(), s, statuses[unguided][i])
		}
	}
	if len(patterns[guidedAdaptive]) != len(patterns[unguided]) {
		t.Fatalf("prediction changed the pattern count: guided %d, unguided %d",
			len(patterns[guidedAdaptive]), len(patterns[unguided]))
	}
}

// TestWidthDeterminism is the width dimension of the determinism matrix:
// with the interleaved simulation off, the per-fault classification may not
// depend on the word width — the single-bit baseline, the one-word width and
// the multi-word widths must produce bit-identical statuses, sequential or
// sharded.  (Patterns may differ across widths: APTPG enumerates alternatives
// across bit levels, so its pattern choice is width-dependent by design.)
func TestWidthDeterminism(t *testing.T) {
	c, err := bench.Get("adder8")
	if err != nil {
		t.Fatal(err)
	}
	faults := paths.EnumerateFaults(c, 0)
	var want []Status
	for _, width := range []int{1, 64, 128, 512} {
		opts := DefaultOptions(sensitize.Robust)
		opts.WordWidth = width
		opts.FaultSimInterval = 0
		g := New(c, opts)
		res := RunSharded(context.Background(), g, faults, 1)
		got := make([]Status, len(res))
		for i := range res {
			if res[i].Status == Aborted {
				t.Fatalf("width %d: fault %s aborted; the matrix needs complete searches",
					width, res[i].Fault.Key())
			}
			got[i] = res[i].Status
		}
		if want == nil {
			want = got
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("width %d: fault %s is %v, width 1 says %v",
					width, res[i].Fault.Key(), got[i], want[i])
			}
		}
		for _, workers := range []int{2, 8} {
			gs := New(c, opts)
			sharded := RunSharded(context.Background(), gs, faults, workers)
			for i := range sharded {
				if sharded[i].Status != want[i] {
					t.Errorf("width %d workers %d: fault %s is %v, reference says %v",
						width, workers, sharded[i].Fault.Key(), sharded[i].Status, want[i])
				}
			}
		}
	}
}

// TestSchedulerCompactedCoverage completes the determinism matrix on the
// compaction layer: with full compaction and the interleaved simulation on,
// the post-compaction coverage over the complete fault list must be
// bit-identical for every workers x schedule x escalation combination.
func TestSchedulerCompactedCoverage(t *testing.T) {
	c, err := bench.Get("c432")
	if err != nil {
		t.Fatal(err)
	}
	faults := paths.SampleFaults(c, 96, 11)

	for _, cfg := range []struct {
		escalate int
		guided   bool
	}{{0, false}, {16, false}, {16, true}} {
		// The coverage baseline is per grouping setting: adaptive grouping
		// legitimately generates different patterns than the fixed-width run
		// (and guided routing different ones than unguided, since APTPG
		// pattern choice is width-dependent), but within one setting the
		// dispatch dimensions must not matter.
		var want []bool
		for _, workers := range []int{1, 4} {
			for _, schedule := range []sched.Policy{sched.Static, sched.Steal} {
				opts := DefaultOptions(sensitize.Robust)
				opts.Compaction = compact.Full
				opts.Schedule = schedule
				opts.EscalationWidth = cfg.escalate
				opts.GuidedEscalation = cfg.guided
				g := New(c, opts)
				RunSharded(context.Background(), g, faults, workers)
				detected := detectedVector(t, c, g.TestSet().Pairs, faults)
				if want == nil {
					want = detected
					continue
				}
				for f := range want {
					if want[f] != detected[f] {
						t.Fatalf("workers=%d schedule=%v escalate=%d guided=%v: post-compaction coverage differs at fault %d",
							workers, schedule, cfg.escalate, cfg.guided, f)
					}
				}
			}
		}
	}
}

// TestWorkStealingBeatsStaticOnSkew is the shard-skew regression test: a
// fault ordering whose hard faults are clustered at the front must leave the
// static contiguous split with idle workers (queued units they are barred
// from taking), while the work-stealing policy rebalances them — asserted
// through the scheduler's steal/idle counters rather than wall clock.
func TestWorkStealingBeatsStaticOnSkew(t *testing.T) {
	c := bench.MustSynthesize(bench.Profile{
		Name: "skew", Inputs: 14, Outputs: 6, Gates: 170, Depth: 13, Seed: 71,
		InputFaninBias: 0.35, WideFaninFraction: 0.25, InverterFraction: 0.45,
	})
	opts := DefaultOptions(sensitize.Robust)
	opts.UseFPTPG = false // every fault pays the full backtracking search
	opts.WordWidth = 4    // small units, so the scheduler has something to balance
	opts.FaultSimInterval = 0
	opts.SubpathPruning = false
	opts.MaxBacktracks = 64

	// Probe a sample for the most and least expensive faults.
	sample := paths.SampleFaults(c, 96, 7)
	probe := New(c, opts)
	res := RunSharded(context.Background(), probe, sample, 1)
	hard, easy, hardCost, easyCost := 0, 0, -1, int(^uint(0)>>1)
	for i, r := range res {
		cost := r.Decisions + 16*r.Backtracks
		if cost > hardCost {
			hardCost, hard = cost, i
		}
		if cost < easyCost {
			easyCost, easy = cost, i
		}
	}
	if hardCost <= easyCost {
		t.Skipf("no cost skew in the sample (hard=%d easy=%d)", hardCost, easyCost)
	}
	t.Logf("hard fault cost %d (%v), easy fault cost %d", hardCost, res[hard].Status, easyCost)

	// Cluster 48 instances of the hard fault at the front, then 144 easy
	// ones: the static contiguous split gives the whole cluster to the first
	// worker.
	var faults []paths.Fault
	for i := 0; i < 48; i++ {
		faults = append(faults, sample[hard])
	}
	for i := 0; i < 144; i++ {
		faults = append(faults, sample[easy])
	}

	stats := make(map[sched.Policy]sched.Stats)
	for _, schedule := range []sched.Policy{sched.Static, sched.Steal} {
		o := opts
		o.Schedule = schedule
		g := New(c, o)
		RunSharded(context.Background(), g, faults, 4)
		stats[schedule] = g.Stats().Sched
		t.Logf("%v: %v", schedule, g.Stats().Sched)
	}

	if s := stats[sched.Steal]; s.Steals == 0 {
		t.Error("work-stealing run recorded no steals on a skewed ordering")
	}
	if s := stats[sched.Steal]; s.IdleUnits != 0 {
		t.Errorf("work-stealing run left %d queued units behind idle workers, want 0", s.IdleUnits)
	}
	if s := stats[sched.Static]; s.IdleUnits == 0 {
		t.Error("static run shows no idle skew; the regression scenario is not exercising the imbalance")
	}
	if stats[sched.Steal].IdleUnits >= stats[sched.Static].IdleUnits {
		t.Errorf("stealing did not beat static on idle units: steal=%d static=%d",
			stats[sched.Steal].IdleUnits, stats[sched.Static].IdleUnits)
	}
}

// TestEscalationAdaptiveGrouping pins the semantics of two-pass adaptive
// grouping: the cheap fault-serial pass settles the easy faults, only the
// survivors are escalated, and — since the escalation pass re-runs survivors
// at full width and budget — coverage never drops and aborts never grow
// relative to the fixed-width run.
func TestEscalationAdaptiveGrouping(t *testing.T) {
	for _, name := range []string{"c432", "cmp8"} {
		c, err := bench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		faults := paths.SampleFaults(c, 96, 5)
		fixed := DefaultOptions(sensitize.Robust)
		fixed.FaultSimInterval = 0
		gf := New(c, fixed)
		RunSharded(context.Background(), gf, faults, 1)

		adaptive := fixed
		adaptive.EscalationWidth = 32
		ga := New(c, adaptive)
		RunSharded(context.Background(), ga, faults, 1)

		sf, sa := gf.Stats(), ga.Stats()
		if sa.FirstPassSettled+sa.Escalated != sa.Faults {
			t.Errorf("%s: first-pass %d + escalated %d != faults %d",
				name, sa.FirstPassSettled, sa.Escalated, sa.Faults)
		}
		if sa.Escalated > 0 && sa.Sched.Passes != 2 {
			t.Errorf("%s: expected 2 scheduler passes with survivors, got %d", name, sa.Sched.Passes)
		}
		coverageF := sf.Tested + sf.DetectedBySim
		coverageA := sa.Tested + sa.DetectedBySim
		if coverageA < coverageF {
			t.Errorf("%s: adaptive grouping lost coverage: %d < %d", name, coverageA, coverageF)
		}
		if sa.Aborted > sf.Aborted {
			t.Errorf("%s: adaptive grouping aborted more faults (%d) than fixed width (%d)",
				name, sa.Aborted, sf.Aborted)
		}
		t.Logf("%s: first-pass settled %d/%d, escalated %d, sched %v",
			name, sa.FirstPassSettled, sa.Faults, sa.Escalated, sa.Sched)

		// The guided variant routes predicted-hard faults straight to the
		// wide pass.  The accounting invariant is unchanged (skipped faults
		// are escalated without a first-pass attempt), predictions are
		// reported, and the acceptance bar of every routing heuristic holds:
		// coverage never drops and aborts never grow relative to unguided
		// adaptive grouping.
		guided := adaptive
		guided.GuidedEscalation = true
		gg := New(c, guided)
		RunSharded(context.Background(), gg, faults, 1)
		sg := gg.Stats()
		if sg.FirstPassSettled+sg.Escalated != sg.Faults {
			t.Errorf("%s guided: first-pass %d + escalated %d != faults %d",
				name, sg.FirstPassSettled, sg.Escalated, sg.Faults)
		}
		// c432's reconvergent control logic has a genuine hard tail; cmp8's
		// score population is uniform (every path crosses the same XNOR/AND
		// reduction), and a uniform population must predict *nothing* hard —
		// the threshold policy's graceful degradation to unguided behavior.
		if name == "c432" && sg.PredictedHard == 0 {
			t.Errorf("%s guided: no fault predicted hard; the scenario does not exercise routing", name)
		}
		if name == "cmp8" && sg.PredictedHard != 0 {
			t.Errorf("%s guided: %d faults predicted hard on a uniform score population, want 0",
				name, sg.PredictedHard)
		}
		if sg.Escalated < sg.PredictedHard {
			t.Errorf("%s guided: escalated %d below the %d predicted-hard faults routed to the wide pass",
				name, sg.Escalated, sg.PredictedHard)
		}
		if want := float64(sg.PredictedHard) / float64(sg.Faults); sg.SkipRate() != want {
			t.Errorf("%s guided: SkipRate() = %v, want %v", name, sg.SkipRate(), want)
		}
		coverageG := sg.Tested + sg.DetectedBySim
		if coverageG < coverageA {
			t.Errorf("%s: guided routing lost coverage: %d < %d", name, coverageG, coverageA)
		}
		if sg.Aborted > sa.Aborted {
			t.Errorf("%s: guided routing aborted more faults (%d) than unguided adaptive (%d)",
				name, sg.Aborted, sa.Aborted)
		}
		t.Logf("%s guided: predicted hard %d/%d (skip rate %.1f%%), first-pass settled %d, escalated %d",
			name, sg.PredictedHard, sg.Faults, 100*sg.SkipRate(), sg.FirstPassSettled, sg.Escalated)
	}
}

// TestCancellationDrainsQueue cancels a multi-worker steal-scheduled
// escalating run mid-flight: RunSharded must return promptly with every
// fault settled (canceled ones Aborted with the cause), and the scheduler
// queues must not wedge any worker.
func TestCancellationDrainsQueue(t *testing.T) {
	c, err := bench.Get("c432")
	if err != nil {
		t.Fatal(err)
	}
	faults := paths.SampleFaults(c, 256, 9)
	opts := DefaultOptions(sensitize.Robust)
	opts.Schedule = sched.Steal
	opts.EscalationWidth = 16

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	settled := 0
	g := New(c, opts)
	var mu sync.Mutex
	g.OnSettle = func(FaultResult) {
		mu.Lock()
		defer mu.Unlock()
		settled++
		if settled == 4 {
			cancel()
		}
	}
	results := RunSharded(ctx, g, faults, 4)
	if len(results) != len(faults) {
		t.Fatalf("got %d results for %d faults", len(results), len(faults))
	}
	canceled := 0
	for _, r := range results {
		if r.Status == Pending {
			t.Fatalf("fault %s left Pending after cancellation", r.Fault.Key())
		}
		if r.Err != nil {
			canceled++
			if r.Status != Aborted {
				t.Errorf("canceled fault %s has status %v, want Aborted", r.Fault.Key(), r.Status)
			}
		}
	}
	if canceled == 0 {
		t.Error("no fault was cut short: cancellation did not interrupt the run")
	}
	st := g.Stats()
	if got := st.Tested + st.Redundant + st.Aborted + st.DetectedBySim; got != st.Faults {
		t.Errorf("statuses sum to %d, want %d", got, st.Faults)
	}
}

// TestRunLeavesMasterClean runs one generator twice — two workers with the
// interleaved simulation on, then one worker — and checks that a run leaves
// no run-scoped state behind on the master: its OnSettle, OnPattern and
// ImportPatterns hooks are back to their pre-run values after each run, and
// the second run's claim sweeps see none of the foreign patterns the master
// imported from the other worker during the first.
func TestRunLeavesMasterClean(t *testing.T) {
	c, err := bench.Get("c432")
	if err != nil {
		t.Fatal(err)
	}
	faults := paths.SampleFaults(c, 256, 3)
	// Escalation makes the foreign import deterministic: the escalation
	// pass starts after the first pass has finished on both workers, so the
	// master's first claim in it imports the other worker's first-pass
	// patterns whatever the goroutine interleaving.
	opts := DefaultOptions(sensitize.Robust)
	opts.EscalationWidth = 8
	g := New(c, opts)

	// The caller's hooks count their calls.  In the second (one-worker) run
	// OnSettle also checks the master's foreign buffer: with one worker the
	// callback runs on the master's goroutine.
	var mu sync.Mutex
	var calls [3]int
	count := func(i int) { mu.Lock(); calls[i]++; mu.Unlock() }
	checkForeign := false
	base := 0
	g.OnSettle = func(r FaultResult) {
		count(0)
		if !checkForeign {
			return
		}
		if len(g.foreign) != 0 {
			t.Fatalf("second run sees %d foreign patterns from the first", len(g.foreign))
		}
		if r.Status == DetectedBySim && r.PatternIndex < base {
			t.Errorf("fault %s dropped by pattern %d, not one of this run's (from %d)",
				r.Fault.Key(), r.PatternIndex, base)
		}
	}
	g.OnPattern = func(pattern.Pair) { count(1) }
	g.ImportPatterns = func() []pattern.Pair { count(2); return nil }
	hooksRestored := func(run string) {
		t.Helper()
		if g.OnSettle == nil || g.OnPattern == nil || g.ImportPatterns == nil {
			t.Fatalf("%s: a master hook was left nil", run)
		}
		before := calls
		g.OnSettle(FaultResult{})
		g.OnPattern(pattern.Pair{})
		g.ImportPatterns()
		for i, name := range []string{"OnSettle", "OnPattern", "ImportPatterns"} {
			if calls[i] != before[i]+1 {
				t.Errorf("%s: master %s is not the caller's hook after the run", run, name)
			}
		}
	}

	RunSharded(context.Background(), g, faults, 2)
	if calls[0] != len(faults) {
		t.Fatalf("first run settled %d faults through OnSettle, want %d", calls[0], len(faults))
	}
	if calls[1] != 0 || calls[2] != 0 {
		t.Errorf("the run called the caller's OnPattern %d and ImportPatterns %d times; the exchange must replace them",
			calls[1], calls[2])
	}
	if len(g.foreign) == 0 {
		t.Fatal("the master imported no foreign pattern in the two-worker run; the scenario does not exercise the reset")
	}
	hooksRestored("two workers")

	checkForeign, base = true, g.TestSet().Len()
	RunSharded(context.Background(), g, faults, 1)
	hooksRestored("one worker")
}
