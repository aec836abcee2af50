package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/testability"
)

// layerDef is one per-layer metric.  perfbench/README.md says which
// end-to-end metric each is expected to move, and on which workload.
type layerDef struct{ name, unit string }

// endpoints are the coordinator endpoints reported one by one.
var endpoints = []string{"lease", "results", "patterns", "events", "status"}

// selfSpans are the span names whose self time is reported; the service's
// client and handler spans are summed over their endpoints.
var selfSpans = []string{
	"run", "setup", "circuit.parse", "paths.select", "testability.analyze", "atpg.new", "service.start",
	"core.generate", "service.job", "service.client", "service.handler", "compact", "faultsim.verify",
	"replay", "sensitize", "implic", "backtrace", "service.wire", "service.ledger",
}

var layerDefs = func() []layerDef {
	defs := []layerDef{
		{"circuit.parse_s", "s"}, {"paths.select_s", "s"}, {"testability.analyze_s", "s"},
		{"atpg.new_s", "s"}, {"service.start_s", "s"},
		{"sensitize.busy_s", "s"}, {"sensitize.calls", "count"}, {"sensitize.errors", "count"},
		{"core.generate_s", "s"}, {"core.fptpg_groups", "count"}, {"core.settled.fptpg", "count"},
		{"core.aptpg_faults", "count"}, {"core.settled.aptpg", "count"}, {"core.aptpg_yield", "ratio"},
		{"core.decisions", "count"}, {"core.backtracks", "count"}, {"core.implications", "count"},
		{"core.aborted", "count"}, {"core.abort_wall_s", "s"},
		{"core.settled.sim", "count"}, {"core.settled.pruning", "count"},
		{"sched.passes", "count"}, {"sched.units", "count"}, {"sched.steals", "count"}, {"sched.idle_units", "count"},
		{"implic.imply_ns", "ns"}, {"implic.forwardsim_ns", "ns"}, {"backtrace.objective_ns", "ns"},
		{"faultsim.verify_s", "s"}, {"faultsim.pairs", "pairs"},
		{"compact.busy_s", "s"}, {"compact.pairs_before", "pairs"}, {"compact.pairs_after", "pairs"},
		{"compact.reduction", "ratio"},
	}
	for _, ep := range endpoints {
		defs = append(defs,
			layerDef{"service." + ep + ".calls", "count"},
			layerDef{"service." + ep + ".p50_ms", "ms"},
			layerDef{"service." + ep + ".tail_ms", "ms"},
			layerDef{"service." + ep + ".tail_q", "quantile"},
			layerDef{"service." + ep + ".server_s", "s"},
		)
	}
	defs = append(defs,
		layerDef{"service.leases", "count"}, layerDef{"service.requeues", "count"},
		layerDef{"service.duplicates", "count"},
		layerDef{"service.ledger_bytes", "bytes"}, layerDef{"service.ledger.append_us", "us"},
		layerDef{"service.wire.codec_s", "s"},
		layerDef{"service.cache.hits", "count"}, layerDef{"service.cache.misses", "count"},
		layerDef{"service.worker.idle_polls", "count"}, layerDef{"service.worker.backoff_s", "s"},
		layerDef{"trace.overhead_pct", "%"}, layerDef{"trace.spans", "count"},
	)
	for _, s := range selfSpans {
		defs = append(defs, layerDef{"self." + s + "_s", "s"})
	}
	return defs
}()

// probeResults are the replay probes' measurements.
type probeResults struct {
	sensBusy            time.Duration
	sensCalls, sensErrs int
	implyNS, fwdNS      float64
	objectiveNS         float64
	codec               time.Duration
	ledgerUS            float64
	ledgerBytes         int64
}

// runProbes runs every replay probe, each under its own span.
func runProbes(tr *tracer, parent int64, w workload, in input, results []core.FaultResult, scratch string) (probeResults, error) {
	var probe probeResults
	if !faultsOK(in.faults, results) {
		return probe, fmt.Errorf("replay probes: results do not line up with the target faults")
	}
	if w.service {
		// The client never analyzes testability; time the coordinator's
		// per-circuit analysis here instead.
		tr.within("testability.analyze", parent, func(int64) { testability.Analyze(in.c) })
	}
	tr.within("sensitize", parent, func(int64) { probe.sensBusy, probe.sensCalls, probe.sensErrs = sensitizeProbe(w, in) })
	tr.within("implic", parent, func(int64) { probe.implyNS, probe.fwdNS = implicProbe(w, in) })
	tr.within("backtrace", parent, func(int64) { probe.objectiveNS = backtraceProbe(w, in) })
	var err error
	tr.within("service.wire", parent, func(int64) { probe.codec, err = wireProbe(in, results) })
	if err != nil {
		return probe, err
	}
	tr.within("service.ledger", parent, func(int64) { probe.ledgerUS, probe.ledgerBytes, err = ledgerProbe(scratch, w, in, results) })
	return probe, err
}

// layerMetrics computes every per-layer metric of one traced repetition
// from its spans, the engine's own counters and the probes.
func layerMetrics(w workload, rp checkedResult, probe probeResults, spans []span, baseWall float64) (map[string]float64, error) {
	m := make(map[string]float64)
	durs := make(map[string]time.Duration)
	clientMS := make(map[string][]float64)
	for _, s := range spans {
		durs[s.Name] += s.dur()
		if ep, ok := strings.CutPrefix(s.Name, "service.client."); ok {
			clientMS[ep] = append(clientMS[ep], float64(s.dur().Nanoseconds())/1e6)
		}
	}
	sec := func(name string) float64 { return durs[name].Seconds() }

	m["circuit.parse_s"] = sec("circuit.parse")
	m["paths.select_s"] = sec("paths.select")
	m["testability.analyze_s"] = sec("testability.analyze")
	m["atpg.new_s"] = sec("atpg.new")
	m["service.start_s"] = sec("service.start")

	m["sensitize.busy_s"] = probe.sensBusy.Seconds()
	m["sensitize.calls"] = float64(probe.sensCalls)
	m["sensitize.errors"] = float64(probe.sensErrs)

	st := rp.stats
	phase := make(map[core.Phase]int)
	aptpgDone, aborted := 0, 0
	for _, r := range rp.results {
		phase[r.Phase]++
		if r.Phase == core.PhaseAPTPG && (r.Status == core.Tested || r.Status == core.Redundant) {
			aptpgDone++
		}
		if r.Status == core.Aborted {
			aborted++
		}
	}
	m["core.generate_s"] = sec("core.generate") + sec("service.job")
	m["core.fptpg_groups"] = float64(st.FPTPGGroups)
	m["core.settled.fptpg"] = float64(phase[core.PhaseFPTPG])
	m["core.aptpg_faults"] = float64(st.APTPGFaults)
	m["core.settled.aptpg"] = float64(phase[core.PhaseAPTPG])
	m["core.aptpg_yield"] = 0
	if st.APTPGFaults > 0 {
		m["core.aptpg_yield"] = float64(aptpgDone) / float64(st.APTPGFaults)
	}
	m["core.decisions"] = float64(st.Decisions)
	m["core.backtracks"] = float64(st.Backtracks)
	m["core.implications"] = float64(st.Implications)
	m["core.aborted"] = float64(aborted)
	m["core.abort_wall_s"] = abortWall(w, rp.settles).Seconds()
	m["core.settled.sim"] = float64(phase[core.PhaseSimulation])
	m["core.settled.pruning"] = float64(phase[core.PhasePruning])

	m["sched.passes"] = float64(st.Sched.Passes)
	m["sched.units"] = float64(st.Sched.Units)
	m["sched.steals"] = float64(st.Sched.Steals)
	m["sched.idle_units"] = float64(st.Sched.IdleUnits)

	m["implic.imply_ns"] = probe.implyNS
	m["implic.forwardsim_ns"] = probe.fwdNS
	m["backtrace.objective_ns"] = probe.objectiveNS

	m["faultsim.verify_s"] = sec("faultsim.verify")
	m["faultsim.pairs"] = float64(rp.tests.Len())

	before, after := rp.compact.PairsBefore, rp.compact.PairsAfter
	if before == 0 { // no compaction ran: the set is what generation emitted
		before, after = rp.tests.Len(), rp.tests.Len()
	}
	m["compact.busy_s"] = sec("compact")
	m["compact.pairs_before"] = float64(before)
	m["compact.pairs_after"] = float64(after)
	m["compact.reduction"] = 0
	if before > 0 {
		m["compact.reduction"] = 1 - float64(after)/float64(before)
	}

	for _, ep := range endpoints {
		xs := clientMS[ep]
		q, t := tail(xs)
		m["service."+ep+".calls"] = float64(len(xs))
		m["service."+ep+".p50_ms"] = median(xs)
		m["service."+ep+".tail_ms"] = t
		m["service."+ep+".tail_q"] = q
		m["service."+ep+".server_s"] = sec("service.handler." + ep)
	}
	var svc serviceRep
	if rp.svc != nil {
		svc = *rp.svc
	}
	m["service.leases"] = float64(svc.status.Leases)
	m["service.requeues"] = float64(svc.status.Requeues)
	m["service.duplicates"] = float64(svc.status.Duplicates)
	m["service.ledger_bytes"] = float64(probe.ledgerBytes)
	m["service.ledger.append_us"] = probe.ledgerUS
	m["service.wire.codec_s"] = probe.codec.Seconds()
	m["service.cache.hits"] = float64(svc.cacheHits)
	m["service.cache.misses"] = float64(svc.cacheMisses)
	m["service.worker.idle_polls"] = float64(svc.idlePolls)
	m["service.worker.backoff_s"] = svc.backoff.Seconds()

	m["trace.overhead_pct"] = (rp.win.wall.Seconds() - baseWall) / baseWall * 100
	m["trace.spans"] = float64(len(spans))

	self := make(map[string]time.Duration)
	for name, d := range selfTimes(spans) {
		switch {
		case strings.HasPrefix(name, "service.client."):
			name = "service.client"
		case strings.HasPrefix(name, "service.handler."):
			name = "service.handler"
		}
		self[name] += d
	}
	for _, s := range selfSpans {
		m["self."+s+"_s"] = self[s].Seconds()
	}

	if len(m) != len(layerDefs) {
		return nil, fmt.Errorf("computed %d per-layer metrics, defined %d", len(m), len(layerDefs))
	}
	for _, d := range layerDefs {
		if _, ok := m[d.name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s not computed", d.name)
		}
	}
	return m, nil
}

// abortWall sums the settle gaps that end at an Aborted fault: the wall
// time the generator spent on faults it then gave up.  It is defined for
// single-worker local runs only, where settles are strictly sequential.
func abortWall(w workload, settles []settle) time.Duration {
	if w.workers != 1 || w.service {
		return 0
	}
	var total, prev time.Duration
	for _, s := range settles {
		if s.status == core.Aborted {
			total += s.at - prev
		}
		prev = s.at
	}
	return total
}
