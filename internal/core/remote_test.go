package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/compact"
	"repro/internal/paths"
	"repro/internal/sched"
	"repro/internal/sensitize"
)

// dispatchInProcess runs a RemoteRun with an in-process transport: workers
// goroutines over forked generators pull whole units from a channel, process
// them with ProcessRemoteUnit, exchange verified patterns through the same
// exchange buffer the local sharded engine uses, and apply outcomes and
// effort deltas back onto the run.  It is the loopback model of the service
// coordinator/worker pair, minus HTTP.
func dispatchInProcess(ctx context.Context, rr *RemoteRun, master *Generator, faults []paths.Fault, workers int) []FaultResult {
	wks := make([]*Generator, workers)
	for i := range wks {
		wks[i] = master.Fork()
	}
	x := newExchange(workers)
	published := make([]int, workers) // per-worker test-set length already published
	return rr.Run(ctx, func(units []sched.Unit, spec PassSpec) {
		ch := make(chan sched.Unit)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				g := wks[w]
				for u := range ch {
					ufaults := make([]paths.Fault, len(u.Faults))
					for i, fi := range u.Faults {
						ufaults[i] = faults[fi]
					}
					prev := g.Stats()
					outs := g.ProcessRemoteUnit(ctx, ufaults, spec, x.fetch(w))
					for _, p := range g.TestSet().Pairs[published[w]:] {
						x.publish(w, p)
					}
					published[w] = g.TestSet().Len()
					rr.Apply(u.Faults, outs)
					rr.AddEffort(g.Stats().EffortDelta(prev))
				}
			}(w)
		}
		for _, u := range units {
			ch <- u
		}
		close(ch)
		wg.Wait()
	})
}

// TestRemoteRunMatchesLocal is the distributed counterpart of
// TestShardedMatchesSequential: a RemoteRun dispatched to in-process remote
// workers must classify every fault like the local sharded engine with the
// same options and worker count.  With the fault simulation off, unit
// outcomes are pure per-fault functions, so statuses, pattern indices, the
// serialized test set and the deterministic statistics must all be
// bit-identical.  With it on, outcomes depend on pattern arrival order: at
// two workers — as across local workers — only the coverage class and the
// redundancy proofs must match, but at one worker both sides drop faults by
// the same claim sweep in unit order and end in the same canonical merge,
// so every status, pattern index, classification counter and the
// serialized test set must match too.
func TestRemoteRunMatchesLocal(t *testing.T) {
	configs := []struct{ workers, sim, escalate int }{
		{2, 0, 8}, {2, 8, 8},
		{1, 8, 0}, {1, 8, 8}, {1, 64, 0}, {1, 64, 8},
	}
	for _, name := range []string{"c17", "paper", "redundant", "adder8", "c432"} {
		c, err := bench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		faults := paths.EnumerateFaults(c, 0)
		if len(faults) > 512 {
			faults = paths.SampleFaults(c, 512, 1995)
		}
		for _, cfg := range configs {
			id := fmt.Sprintf("%s workers=%d sim=%d escalate=%d", name, cfg.workers, cfg.sim, cfg.escalate)
			opts := DefaultOptions(sensitize.Robust)
			opts.FaultSimInterval = cfg.sim
			opts.Schedule = sched.Steal
			opts.EscalationWidth = cfg.escalate
			opts.Compaction = compact.Reverse

			local := New(c, opts)
			want := RunSharded(context.Background(), local, faults, cfg.workers)

			master := New(c, opts)
			rr := NewRemoteRun(master, faults)
			got := dispatchInProcess(context.Background(), rr, master, faults, cfg.workers)

			if len(got) != len(want) {
				t.Fatalf("%s: %d remote results for %d faults", id, len(got), len(faults))
			}
			exact := cfg.sim == 0 || cfg.workers == 1
			for i := range got {
				switch {
				case exact && got[i].Status != want[i].Status:
					t.Errorf("%s: fault %s is %v remote, %v local",
						id, got[i].Fault.Key(), got[i].Status, want[i].Status)
				case classOf(got[i].Status) != classOf(want[i].Status):
					t.Errorf("%s: fault %s is %v remote, %v local (coverage class moved)",
						id, got[i].Fault.Key(), got[i].Status, want[i].Status)
				}
				if exact && got[i].PatternIndex != want[i].PatternIndex {
					t.Errorf("%s: fault %s pattern index %d remote, %d local",
						id, got[i].Fault.Key(), got[i].PatternIndex, want[i].PatternIndex)
				}
			}
			ls, rs := local.Stats(), master.Stats()
			if exact && (ls.Tested != rs.Tested || ls.DetectedBySim != rs.DetectedBySim ||
				ls.Redundant != rs.Redundant || ls.Aborted != rs.Aborted ||
				ls.Patterns != rs.Patterns || ls.FirstPassSettled != rs.FirstPassSettled ||
				ls.Escalated != rs.Escalated) {
				t.Errorf("%s: classification stats differ: local %+v remote %+v", id, ls, rs)
			}
			if exact {
				var lb, rb strings.Builder
				if err := local.TestSet().Write(&lb); err != nil {
					t.Fatal(err)
				}
				if err := master.TestSet().Write(&rb); err != nil {
					t.Fatal(err)
				}
				if lb.String() != rb.String() {
					t.Errorf("%s: merged test sets differ:\nlocal:\n%s\nremote:\n%s",
						id, lb.String(), rb.String())
				}
				if ls.Decisions != rs.Decisions || ls.Backtracks != rs.Backtracks {
					t.Errorf("%s: search effort differs: local %+v remote %+v", id, ls, rs)
				}
			}
			if lc, rc := ls.Coverage(), rs.Coverage(); lc != rc {
				t.Errorf("%s: coverage %v remote, %v local", id, rc, lc)
			}
		}
	}
}

// TestRemoteApplyDuplicateIsNoop models the at-least-once path: a unit whose
// lease timed out is processed by a second worker, and the first worker's
// result still arrives.  Applying the same outcomes twice must not change
// any result, statistic or the merged test set.
func TestRemoteApplyDuplicateIsNoop(t *testing.T) {
	c, err := bench.Get("c17")
	if err != nil {
		t.Fatal(err)
	}
	faults := paths.EnumerateFaults(c, 0)
	opts := DefaultOptions(sensitize.Robust)
	opts.FaultSimInterval = 0

	master := New(c, opts)
	rr := NewRemoteRun(master, faults)
	results := rr.Run(context.Background(), func(units []sched.Unit, spec PassSpec) {
		wk := master.Fork()
		for _, u := range units {
			ufaults := make([]paths.Fault, len(u.Faults))
			for i, fi := range u.Faults {
				ufaults[i] = faults[fi]
			}
			outs := wk.ProcessRemoteUnit(context.Background(), ufaults, spec, nil)
			if settled := rr.Apply(u.Faults, outs); len(settled) == 0 {
				t.Errorf("unit %v settled no faults", u.Faults)
			}
			// The duplicate: same unit, same outcomes, must settle nothing.
			if settled := rr.Apply(u.Faults, outs); len(settled) != 0 {
				t.Errorf("duplicate apply settled %v", settled)
			}
		}
	})
	st := master.Stats()
	if st.Tested+st.Redundant+st.Aborted+st.DetectedBySim != len(faults) {
		t.Errorf("classifications sum to %d, want %d (duplicate apply double-counted)",
			st.Tested+st.Redundant+st.Aborted+st.DetectedBySim, len(faults))
	}
	if st.Patterns != st.Tested || master.TestSet().Len() != st.Tested {
		t.Errorf("patterns=%d set=%d tested=%d: merged set inconsistent",
			st.Patterns, master.TestSet().Len(), st.Tested)
	}
	seq := New(c, opts)
	want := RunSharded(context.Background(), seq, faults, 1)
	for i := range results {
		if results[i].Status != want[i].Status {
			t.Errorf("fault %s: %v remote, %v sequential", results[i].Fault.Key(), results[i].Status, want[i].Status)
		}
	}
}

// TestRemoteRunCanceled checks cancellation: a run whose context dies
// mid-pass must stop dispatching, mark every unsettled fault Aborted with
// the cancellation cause, and skip compaction.
func TestRemoteRunCanceled(t *testing.T) {
	c, err := bench.Get("c432")
	if err != nil {
		t.Fatal(err)
	}
	faults := paths.SampleFaults(c, 64, 1995)
	opts := DefaultOptions(sensitize.Robust)
	opts.FaultSimInterval = 0
	opts.WordWidth = 8 // several units per pass, so the cancel lands mid-pass

	ctx, cancel := context.WithCancel(context.Background())
	master := New(c, opts)
	rr := NewRemoteRun(master, faults)
	applied := 0
	results := rr.Run(ctx, func(units []sched.Unit, spec PassSpec) {
		wk := master.Fork()
		for i, u := range units {
			if i == 2 {
				cancel() // the coordinator lost the job mid-pass
				return
			}
			ufaults := make([]paths.Fault, len(u.Faults))
			for j, fi := range u.Faults {
				ufaults[j] = faults[fi]
			}
			rr.Apply(u.Faults, wk.ProcessRemoteUnit(ctx, ufaults, spec, nil))
			applied += len(u.Faults)
		}
	})
	if applied == 0 {
		t.Fatal("no units applied before cancellation")
	}
	aborted := 0
	for i := range results {
		if results[i].Status == Pending {
			t.Errorf("fault %s still pending after canceled run", results[i].Fault.Key())
		}
		if results[i].Status == Aborted && results[i].Err != nil {
			aborted++
		}
	}
	if aborted == 0 {
		t.Error("canceled run reported no fault with a cancellation cause")
	}
}

// TestImportRemoteRun checks the client-side fold: importing a finished
// remote run into a fresh generator must reproduce the coordinator's test
// set, rebased pattern indices and statistics.
func TestImportRemoteRun(t *testing.T) {
	c, err := bench.Get("adder8")
	if err != nil {
		t.Fatal(err)
	}
	faults := paths.EnumerateFaults(c, 0)
	opts := DefaultOptions(sensitize.Robust)
	opts.FaultSimInterval = 0

	master := New(c, opts)
	rr := NewRemoteRun(master, faults)
	results := dispatchInProcess(context.Background(), rr, master, faults, 2)

	client := New(c, opts)
	imported := client.ImportRemoteRun(results, master.TestSet(), master.Stats())
	if client.TestSet().Len() != master.TestSet().Len() {
		t.Fatalf("client set has %d pairs, coordinator %d", client.TestSet().Len(), master.TestSet().Len())
	}
	for i := range imported {
		if imported[i].Status != results[i].Status {
			t.Errorf("fault %s: status changed on import", imported[i].Fault.Key())
		}
		if results[i].PatternIndex >= 0 && imported[i].PatternIndex != results[i].PatternIndex {
			t.Errorf("fault %s: index %d imported, %d original (empty client set: rebase must be identity)",
				imported[i].Fault.Key(), imported[i].PatternIndex, results[i].PatternIndex)
		}
	}
	if client.Stats().Tested != master.Stats().Tested {
		t.Errorf("imported stats tested=%d, want %d", client.Stats().Tested, master.Stats().Tested)
	}
	// A second import on a non-empty set must rebase the indices.
	again := client.ImportRemoteRun(results, master.TestSet(), master.Stats())
	base := master.TestSet().Len()
	for i := range again {
		if results[i].PatternIndex >= 0 && again[i].PatternIndex != results[i].PatternIndex+base {
			t.Errorf("fault %s: second import index %d, want %d",
				again[i].Fault.Key(), again[i].PatternIndex, results[i].PatternIndex+base)
		}
	}
}
