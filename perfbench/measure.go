package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// measureRun is the untraced run: it repeats the workload until the time
// budget is spent (at least minReps times), checks every repetition, and
// reports the end-to-end metrics as medians over the repetitions.
func measureRun(ctx context.Context, w workload, in input, seed int64, scratch string, budget time.Duration) (result, error) {
	res := result{Correct: true}
	r := newRunner(w, seed, scratch, nil)
	defer r.close()
	ord := newOrders(w, seed)

	// Set-up is measured on its own, back to back before the repetitions,
	// each sample after a garbage collection, so every sample meets the same
	// conditions however many repetitions the budget then allows.
	var setups []float64
	for len(setups) < setupSamples {
		runtime.GC()
		d, err := r.setup(in.withOrder(seed), nil, 0)
		if err != nil {
			return res, err
		}
		setups = append(setups, d.Seconds())
	}

	var fps, cpu, eff, cov, pats, rss, alloc []float64
	same := repeats{on: w.sameInput()}
	start := time.Now()
	for i := 0; ; i++ {
		rin := in.withOrder(ord.next())
		if _, err := r.setup(rin, nil, 0); err != nil {
			return res, err
		}
		rp, err := checkedRep(ctx, r, nil, 0, w, rin, &res)
		if err != nil {
			return res, err
		}
		if rp.results != nil {
			fps = append(fps, float64(rp.settled())/rp.win.wall.Seconds())
			cpu = append(cpu, rp.win.cpu.Seconds())
			eff = append(eff, rp.verdict.efficiencyPct())
			cov = append(cov, rp.verdict.coveragePct())
			pats = append(pats, float64(rp.tests.Len()))
			rss = append(rss, rp.win.rssBytes/1e6)
			alloc = append(alloc, float64(rp.win.allocB)/1e6)
			same.check(rp, &res, i)
		}
		elapsed := time.Since(start)
		if i+1 >= minReps && elapsed+rp.win.wall/2 >= budget {
			break
		}
	}
	if len(fps) == 0 {
		return res, fmt.Errorf("no repetition completed")
	}
	res.set("setup_s", "s", setups)
	res.set("faults_per_s", "faults/s", fps)
	res.set("cpu_s", "s", cpu)
	res.set("efficiency_pct", "%", eff)
	res.set("coverage_pct", "%", cov)
	res.set("patterns", "pairs", pats)
	res.set("peak_rss_mb", "MB", rss)
	res.set("alloc_mb", "MB", alloc)
	return res, nil
}

// repeats checks that the repetitions of a single-worker workload, which all
// run the same input, report identical statuses and test-set sizes.
type repeats struct {
	on       bool
	seen     bool
	statuses string
	patterns int
}

func (r *repeats) check(rp checkedResult, res *result, i int) {
	if !r.on || rp.results == nil {
		return
	}
	sv := statusVector(rp.results)
	if !r.seen {
		r.seen, r.statuses, r.patterns = true, sv, rp.tests.Len()
		return
	}
	if sv != r.statuses || rp.tests.Len() != r.patterns {
		res.Correct = false
		res.note("repetition %d: statuses or pattern count differ from the first repetition (%d vs %d patterns)", i, rp.tests.Len(), r.patterns)
	}
}

// checkedResult is a repetition with its output check.
type checkedResult struct {
	rep
	verdict verdict
}

// checkedRep runs one repetition and checks it, tallying the verdict into
// res.  A service job that ends in an error fails all its faults and makes
// the run incorrect; it returns a rep without results.  Errors of a local
// run are returned: the workload cannot run.
func checkedRep(ctx context.Context, r runner, tr *tracer, parent int64, w workload, in input, res *result) (checkedResult, error) {
	rp, err := r.run(ctx, tr, parent)
	if err != nil {
		if !w.service {
			return checkedResult{}, err
		}
		res.tally(failJob(in))
		res.Correct = false
		res.note("service job failed: %v", err)
		return checkedResult{}, nil
	}
	var v verdict
	tr.within("faultsim.verify", parent, func(int64) { v, err = check(in, w.robust(), rp.results, rp.tests) })
	if err != nil {
		return checkedResult{}, err
	}
	res.tally(v)
	if v.failed() > 0 {
		res.Correct = false
		res.note("output check: %s", v)
	}
	return checkedResult{rep: rp, verdict: v}, nil
}

// traceRun is the traced run.  It first repeats the workload untraced for
// half the budget, for the overhead baseline, then traces repetitions for
// the rest (at least one), each followed by the replay probes, and reports
// every per-layer metric as a median over the traced repetitions.  The spans
// are written to buildDir/traces.
func traceRun(ctx context.Context, w workload, in input, seed int64, scratch string, budget time.Duration) (result, error) {
	res := result{Correct: true}
	tr := newTracer()
	r := newRunner(w, seed, scratch, tr)
	defer r.close()
	ord := newOrders(w, seed)

	start := time.Now()
	same := repeats{on: w.sameInput()}
	var base []float64
	for len(base) == 0 || time.Since(start) < budget/2 {
		rin := in.withOrder(ord.next())
		if _, err := r.setup(rin, nil, 0); err != nil {
			return res, err
		}
		rp, err := checkedRep(ctx, r, nil, 0, w, rin, &res)
		if err != nil {
			return res, err
		}
		if rp.results == nil {
			return res, fmt.Errorf("untraced baseline repetition failed")
		}
		same.check(rp, &res, len(base))
		base = append(base, rp.win.wall.Seconds())
	}
	baseWall := median(base)

	layers := make(map[string][]float64)
	for i := 0; i == 0 || time.Since(start) < budget; i++ {
		runID := fmt.Sprintf("rep%d", i)
		tr.setRun(runID)
		rin := in.withOrder(ord.next())
		root := tr.start("run", 0)
		s := tr.start("setup", root.ID())
		_, err := r.setup(rin, tr, s.ID())
		s.end()
		if err != nil {
			return res, err
		}
		rp, err := checkedRep(ctx, r, tr, root.ID(), w, rin, &res)
		if err != nil {
			return res, err
		}
		if rp.results == nil {
			return res, fmt.Errorf("traced repetition failed")
		}
		// The traced run calls the layers under the facade directly; on one
		// worker it must still reproduce the untraced run exactly.
		same.check(rp, &res, len(base)+i)
		var probe probeResults
		tr.within("replay", root.ID(), func(id int64) { probe, err = runProbes(tr, id, w, rin, rp.results, scratch) })
		root.end()
		if err != nil {
			return res, err
		}
		var spans []span
		for _, s := range tr.snapshot() {
			if s.Run == runID {
				spans = append(spans, s)
			}
		}
		lm, err := layerMetrics(w, rp, probe, spans, baseWall)
		if err != nil {
			return res, err
		}
		for k, v := range lm {
			layers[k] = append(layers[k], v)
		}
	}
	for _, d := range layerDefs {
		res.set(d.name, d.unit, layers[d.name])
	}
	res.note("tracing overhead: traced window vs untraced median %.4fs over %d untraced repetitions", baseWall, len(base))
	if err := writeTrace(filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.json", w.name, seed)), tr.snapshot()); err != nil {
		return res, err
	}
	return res, nil
}
