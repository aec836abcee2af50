package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/backtrace"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/implic"
	"repro/internal/logic"
	"repro/internal/paths"
	"repro/internal/sensitize"
	"repro/internal/service"
	"repro/internal/testability"
)

// The replay probes time layers a run cannot expose from outside.  Each one
// drives only the package's exported functions, on the workload's own
// circuit, word width and faults, and reports a median over batches so a
// scheduling hiccup does not decide the number.

const (
	probeBudget  = 150 * time.Millisecond // minimum time per timed probe measurement
	probeBatches = 7                      // minimum timed batches per probe
)

// timeBatches calls step for batches of n calls until the probe budget is
// spent (and at least probeBatches batches ran), returning the median
// nanoseconds per call.
func timeBatches(n int, step func(i int)) float64 {
	var perCall []float64
	start := time.Now()
	i := 0
	for len(perCall) < probeBatches || time.Since(start) < probeBudget {
		t0 := time.Now()
		for j := 0; j < n; j++ {
			step(i)
			i++
		}
		perCall = append(perCall, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(perCall)
}

// loadedState builds an implication state of the workload's width loaded
// with the sensitization requirements of one target fault per bit level,
// implied and simulated: the generator's state when it starts deciding.
func loadedState(w workload, in input) *implic.State {
	st := implic.NewStateWidth(in.c, w.width)
	st.MaxSweeps = w.coreOptions().MaxImplySweeps
	st.Reset(logic.LevelsMask(w.width))
	for lvl := 0; lvl < w.width; lvl++ {
		f := in.faults[lvl%len(in.faults)]
		cond, err := sensitize.Sensitize(in.c, f, w.mode)
		if err != nil {
			continue // a statically unsensitizable fault leaves its level free
		}
		for _, a := range cond.Assignments {
			st.AddRequirement(a.Net, a.Value, logic.BitMask(lvl))
		}
	}
	st.Imply()
	st.ForwardSim()
	return st
}

// implicProbe times one framed decision — Assign, AssignPI on every active
// level, Imply, optionally ForwardSim, Undo — as the implic micro-benchmarks
// do, and returns ns per decision without and with ForwardSim.
func implicProbe(w workload, in input) (implyNS, fwdNS float64) {
	st := loadedState(w, in)
	inputs := in.c.Inputs()
	decide := func(i int, sim bool) {
		v := logic.Stable1
		if i%2 == 1 {
			v = logic.Stable0
		}
		st.Assign()
		st.AssignPI(inputs[i%len(inputs)], v, st.Active())
		st.Imply()
		if sim {
			st.ForwardSim()
		}
		st.Undo()
	}
	for i := 0; i < 256; i++ {
		decide(i, true) // warm trail and queue capacities
	}
	implyNS = timeBatches(64, func(i int) { decide(i, false) })
	fwdNS = timeBatches(64, func(i int) { decide(i, true) })
	return implyNS, fwdNS
}

// backtraceProbe times backtrace.Backtrace from every unjustified
// requirement of the loaded state, as the generator's objective selection
// calls it, and returns ns per call (0 when nothing is unjustified).
func backtraceProbe(w workload, in input) float64 {
	st := loadedState(w, in)
	m := testability.For(in.c)
	type objective struct {
		net   circuit.NetID
		want  logic.Value7
		level int
	}
	var objs []objective
	for lvl := 0; lvl < w.width; lvl++ {
		for _, net := range st.Unjustified(lvl) {
			objs = append(objs, objective{net, st.ReqGet(net, lvl), lvl})
		}
	}
	if len(objs) == 0 {
		return 0
	}
	return timeBatches(len(objs), func(i int) {
		o := objs[i%len(objs)]
		backtrace.Backtrace(st, m, o.net, o.want, o.level)
	})
}

// sensitizeProbe computes the sensitization conditions of every target
// fault, the work the generator does before searching.
func sensitizeProbe(w workload, in input) (busy time.Duration, calls, errs int) {
	t0 := time.Now()
	for _, f := range in.faults {
		if _, err := sensitize.Sensitize(in.c, f, w.mode); err != nil {
			errs++
		}
	}
	return time.Since(t0), len(in.faults), errs
}

// outcomesOf converts results into the outcomes a worker would post.
func outcomesOf(results []core.FaultResult) []core.RemoteOutcome {
	outs := make([]core.RemoteOutcome, len(results))
	for i, r := range results {
		outs[i] = core.RemoteOutcome{Status: r.Status, Phase: r.Phase, Decisions: r.Decisions, Backtracks: r.Backtracks, Test: r.Test}
	}
	return outs
}

// wireProbe replays the service wire codec over the run's data: the fault
// list both ways and every outcome both ways.  It returns the median time of
// one full pass.
func wireProbe(in input, results []core.FaultResult) (time.Duration, error) {
	outs := outcomesOf(results)
	wire := make([]service.WireOutcome, len(outs))
	var passes []float64
	for rep := 0; rep < probeBatches; rep++ {
		t0 := time.Now()
		wfs := service.EncodeFaults(in.c, in.faults)
		if _, err := service.DecodeFaults(in.c, wfs); err != nil {
			return 0, fmt.Errorf("decode faults: %w", err)
		}
		for i, o := range outs {
			wire[i] = service.EncodeOutcome(o)
		}
		if _, err := service.DecodeOutcomes(wire); err != nil {
			return 0, fmt.Errorf("decode outcomes: %w", err)
		}
		passes = append(passes, float64(time.Since(t0)))
	}
	return time.Duration(median(passes)), nil
}

// ledgerProbe replays a job ledger in a scratch directory: the job record,
// one pass cut into one-fault units, and one unit record per target fault
// with its outcome.  It returns the median time of one RecordUnit and the
// journal's final size.
func ledgerProbe(dir string, w workload, in input, results []core.FaultResult) (appendUS float64, bytes int64, err error) {
	tmp, err := os.MkdirTemp(dir, "ledger-probe-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(tmp)
	l, err := service.OpenLedger(tmp, "probe")
	if err != nil {
		return 0, 0, err
	}
	defer l.Close()
	wfs := service.EncodeFaults(in.c, in.faults)
	l.RecordJob("probe", in.name, service.HashBench(in.bench), in.bench, w.jobOptions(), wfs)
	units := make([][]int, len(in.faults))
	for i := range units {
		units[i] = []int{i}
	}
	l.RecordPass(0, service.WireSpec{Width: 1, Budget: w.backtracks, Final: true}, units)
	outs := outcomesOf(results)
	perUnit := make([]float64, len(units))
	for i := range units {
		wo := []service.WireOutcome{service.EncodeOutcome(outs[i])}
		t0 := time.Now()
		l.RecordUnit(0, i, "probe", units[i], wo)
		perUnit[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return median(perUnit), l.Size(), nil
}

// faultsOK reports whether results line up with the target faults, which
// the probes replaying outcomes rely on.
func faultsOK(faults []paths.Fault, results []core.FaultResult) bool {
	if len(results) != len(faults) {
		return false
	}
	for i := range faults {
		if results[i].Fault.Key() != faults[i].Key() {
			return false
		}
	}
	return true
}
