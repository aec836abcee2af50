package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faultsim"
	"repro/internal/pattern"
)

// verdict is the output check of one run.  An operation is one target
// fault.  It fails when its answer is wrong or missing.  Aborted faults are
// the engine's honest "don't know": they are counted apart, in aborted and
// in efficiency_pct, and do not fail the operation.
type verdict struct {
	attempted int
	aborted   int
	// missing: no result, a result for another fault, or still Pending.
	missing int
	// unconfirmed: claimed Tested or DetectedBySim, but the returned test
	// set does not detect the fault when re-simulated.
	unconfirmed int
	// redundantDetected: claimed Redundant, but the returned test set
	// detects the fault.
	redundantDetected int
	// jobFailed counts faults of a job that ended in an error.
	jobFailed int

	tested, simDetected int
}

// failed counts correctness failures: wrong or missing answers.
func (v verdict) failed() int {
	return v.missing + v.unconfirmed + v.redundantDetected + v.jobFailed
}

func (v verdict) efficiencyPct() float64 {
	return (1 - float64(v.aborted)/float64(v.attempted)) * 100
}

func (v verdict) coveragePct() float64 {
	return float64(v.tested+v.simDetected) / float64(v.attempted) * 100
}

func (v verdict) String() string {
	return fmt.Sprintf("attempted=%d failed=%d (missing=%d unconfirmed=%d redundant-but-detected=%d job-failed=%d) aborted=%d",
		v.attempted, v.failed(), v.missing, v.unconfirmed, v.redundantDetected, v.jobFailed, v.aborted)
}

// check re-simulates the returned test set against the benchmark's own
// target faults with faultsim, independently of the engine's internal test
// verification, and classifies every target fault's reported status.
func check(in input, robust bool, results []core.FaultResult, tests *pattern.Set) (verdict, error) {
	v := verdict{attempted: len(in.faults)}
	var pairs []pattern.Pair
	if tests != nil {
		pairs = tests.Pairs
	}
	sim, err := faultsim.Run(in.c, pairs, in.faults, robust)
	if err != nil {
		return v, fmt.Errorf("re-simulate test set: %w", err)
	}
	for i, f := range in.faults {
		if i >= len(results) || results[i].Fault.Key() != f.Key() {
			v.missing++
			continue
		}
		detected := sim.Detected[i]
		switch results[i].Status {
		case core.Tested:
			v.tested++
			if !detected {
				v.unconfirmed++
			}
		case core.DetectedBySim:
			v.simDetected++
			if !detected {
				v.unconfirmed++
			}
		case core.Redundant:
			if detected {
				v.redundantDetected++
			}
		case core.Aborted:
			v.aborted++
		default:
			v.missing++
		}
	}
	return v, nil
}

// failJob is the verdict of a job that returned an error: every fault fails.
func failJob(in input) verdict {
	return verdict{attempted: len(in.faults), jobFailed: len(in.faults)}
}

// statusVector renders the per-fault statuses, for the exact-repeat check
// of single-worker runs.
func statusVector(results []core.FaultResult) string {
	b := make([]byte, len(results))
	for i, r := range results {
		b[i] = '0' + byte(r.Status)
	}
	return string(b)
}
