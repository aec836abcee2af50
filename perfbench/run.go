package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/atpg"
	"repro/internal/circuit"
	"repro/internal/compact"
	"repro/internal/core"
	"repro/internal/paths"
	"repro/internal/pattern"
	"repro/internal/service"
	"repro/internal/testability"
)

// rep is one timed repetition of a workload.
type rep struct {
	win     window
	results []core.FaultResult
	tests   *pattern.Set
	stats   core.Stats
	compact compact.Stats // what compaction did, when the workload compacts

	// Traced local runs: when each fault settled (offset from the start of
	// generation) and with which status.
	settles []settle

	svc *serviceRep // service workload only
}

type settle struct {
	at     time.Duration
	status core.Status
}

// serviceRep holds what the service layer reported about one job.
type serviceRep struct {
	status                 service.JobStatus
	idlePolls              int64
	backoff                time.Duration
	cacheHits, cacheMisses int
}

// settled counts results that reached a final classification.
func (r rep) settled() int {
	n := 0
	for _, res := range r.results {
		if res.Status != core.Pending {
			n++
		}
	}
	return n
}

// runner drives one workload.  setup prepares the next repetition for the
// given input and returns how long that took; run performs the timed
// repetition.  A nil tracer selects the untraced path, which goes through the
// public entry points exactly as a user's program would.
type runner interface {
	setup(in input, tr *tracer, parent int64) (time.Duration, error)
	run(ctx context.Context, tr *tracer, parent int64) (rep, error)
	close()
}

func newRunner(w workload, seed int64, scratch string, tr *tracer) runner {
	if w.service {
		return &serviceRunner{w: w, seed: seed, scratch: scratch, tr: tr}
	}
	return &localRunner{w: w}
}

// localRunner runs the workload on an in-process engine.
type localRunner struct {
	w workload

	// Untraced: the facade engine.
	eng    *atpg.Engine
	faults []atpg.Fault

	// Traced: the layers under the facade, called directly so each one
	// gets its own span.
	c   *circuit.Circuit
	gen *core.Generator
}

func (r *localRunner) setup(in input, tr *tracer, parent int64) (time.Duration, error) {
	t0 := time.Now()
	if tr == nil {
		c, err := atpg.ParseBench(in.name, strings.NewReader(in.bench))
		if err != nil {
			return 0, fmt.Errorf("parse: %w", err)
		}
		r.faults = selectFaults(atpg.SampleFaults(c, r.w.faults, poolSeed), in.order)
		if r.eng, err = atpg.New(c, r.w.options()...); err != nil {
			return 0, fmt.Errorf("new engine: %w", err)
		}
		return time.Since(t0), nil
	}
	var err error
	tr.within("circuit.parse", parent, func(int64) {
		r.c, err = circuit.ParseBench(in.name, strings.NewReader(in.bench))
	})
	if err != nil {
		return 0, fmt.Errorf("parse: %w", err)
	}
	tr.within("paths.select", parent, func(int64) {
		r.faults = selectFaults(paths.SampleFaults(r.c, r.w.faults, poolSeed), in.order)
	})
	// atpg.New computes the same measures once per circuit; computing them
	// first gives the analysis its own span and lets the engine reuse them.
	tr.within("testability.analyze", parent, func(int64) { testability.For(r.c) })
	opts := r.w.coreOptions()
	if opts.Compaction != compact.None {
		// Compaction is split out of the traced run: generate the unfilled
		// pairs it needs, then call compact.Compact under its own span.
		opts.Compaction = compact.None
		opts.EmitUnfilled = true
	}
	tr.within("atpg.new", parent, func(int64) { r.gen = core.New(r.c, opts) })
	return time.Since(t0), nil
}

func (r *localRunner) run(ctx context.Context, tr *tracer, parent int64) (rep, error) {
	var out rep
	if tr == nil {
		var err error
		out.win = measure(func() { out.results, err = r.eng.Run(ctx, r.faults) })
		if err != nil {
			return out, fmt.Errorf("run: %w", err)
		}
		out.tests, out.stats = r.eng.Tests(), r.eng.Stats()
		out.compact = out.stats.Compaction
		return out, nil
	}
	var err error
	var t0 time.Time
	r.gen.OnSettle = func(res core.FaultResult) { // serialized by the engine
		out.settles = append(out.settles, settle{time.Since(t0), res.Status})
	}
	out.win = measure(func() {
		tr.within("core.generate", parent, func(int64) {
			t0 = time.Now()
			out.results = core.RunSharded(ctx, r.gen, r.faults, r.w.workers)
		})
		out.tests = r.gen.TestSet()
		if r.w.compaction == compact.None {
			return
		}
		tr.within("compact", parent, func(int64) {
			var set *pattern.Set
			set, out.compact, err = compact.Compact(r.c, out.tests, r.faults, r.w.robust(), r.w.compaction, compact.ZeroFill())
			if err == nil {
				out.tests = set
			}
		})
	})
	r.gen.OnSettle = nil
	if err != nil {
		return out, fmt.Errorf("compact: %w", err)
	}
	if ctx.Err() != nil {
		return out, fmt.Errorf("run: %w", context.Cause(ctx))
	}
	out.stats = r.gen.Stats()
	return out, nil
}

func (r *localRunner) close() {}

// serviceRunner runs the workload as a job on the in-process service.
type serviceRunner struct {
	w       workload
	seed    int64 // pins the workers' jitter
	scratch string
	tr      *tracer // wired into the harness's transports and handler

	h    *harness
	cin  input // the client's own parse and fault selection
	wire []service.WireFault
}

// setup parses the circuit and selects the faults on the client side, as
// atpgctl does, and starts the coordinator and workers.  A previous
// deployment is shut down first, outside the timed part.
func (r *serviceRunner) setup(in input, tr *tracer, parent int64) (time.Duration, error) {
	if r.h != nil {
		r.h.stop()
		r.h = nil
	}
	t0 := time.Now()
	var err error
	cin := input{name: in.name, bench: in.bench}
	tr.within("circuit.parse", parent, func(int64) {
		cin.c, err = circuit.ParseBench(in.name, strings.NewReader(in.bench))
	})
	if err != nil {
		return 0, fmt.Errorf("parse: %w", err)
	}
	tr.within("paths.select", parent, func(int64) {
		cin.faults = selectFaults(paths.SampleFaults(cin.c, r.w.faults, poolSeed), in.order)
		r.wire = service.EncodeFaults(cin.c, cin.faults)
	})
	tr.within("service.start", parent, func(int64) { r.h, err = startHarness(r.scratch, r.seed, r.tr) })
	if err != nil {
		return 0, err
	}
	r.cin = cin
	return time.Since(t0), nil
}

func (r *serviceRunner) run(ctx context.Context, tr *tracer, parent int64) (rep, error) {
	var out rep
	before := r.counters()
	job := tr.start("service.job", parent)
	if tr != nil {
		tr.current.Store(job.ID())
		r.h.tracing.Store(true)
	}
	var jo jobOutcome
	var err error
	out.win = measure(func() { jo, err = r.h.runJob(ctx, r.w, r.cin, r.wire) })
	if tr != nil {
		r.h.tracing.Store(false)
		tr.current.Store(0)
	}
	job.end()
	if err != nil {
		return out, err
	}
	after := r.counters()
	st, err := r.h.client.Status(ctx, jo.id)
	if err != nil {
		return out, fmt.Errorf("status: %w", err)
	}
	out.results, out.tests, out.stats = jo.results, jo.tests, jo.stats
	out.compact = jo.stats.Compaction
	out.svc = &serviceRep{
		status:      st,
		idlePolls:   after.idlePolls - before.idlePolls,
		backoff:     after.backoff,
		cacheHits:   after.cacheHits - before.cacheHits,
		cacheMisses: after.cacheMisses - before.cacheMisses,
	}
	return out, nil
}

// counters snapshots the workers' loop counters and the coordinator's
// compiled-circuit cache.
func (r *serviceRunner) counters() serviceRep {
	var s serviceRep
	for _, wk := range r.h.workers {
		c := wk.Counters()
		s.idlePolls += c.IdlePolls
		s.backoff += c.Backoff
	}
	s.cacheHits, s.cacheMisses = r.h.co.Cache().Stats()
	return s
}

func (r *serviceRunner) close() {
	if r.h != nil {
		r.h.stop()
		r.h = nil
	}
}
