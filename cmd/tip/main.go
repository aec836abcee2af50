// Command tip is the bit-parallel path delay fault test pattern generator
// (named after the paper's tool).  It reads a benchmark circuit, selects a
// set of target path delay faults, generates robust or nonrobust two-vector
// tests for them and reports the per-fault outcome.
//
// Usage:
//
//	tip -circuit c432 -mode robust -faults 256
//	tip -bench mydesign.bench -mode nonrobust -faults 1000 -out tests.txt
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/atpg"
)

func main() {
	var (
		circuitName = flag.String("circuit", "", "built-in circuit name (see cmd/circgen -list)")
		benchFile   = flag.String("bench", "", "path to an ISCAS .bench file")
		mode        = flag.String("mode", "robust", "test class: robust or nonrobust")
		numFaults   = flag.Int("faults", 256, "number of target faults (0 = all structural faults; beware of path explosion)")
		seed        = flag.Int64("seed", 1995, "seed for fault sampling")
		width       = flag.Int("width", atpg.DefaultWordWidth, fmt.Sprintf("word width L (1..%d); 1 is the single-bit baseline, widths above 64 use multi-word planes", atpg.MaxWordWidth))
		workers     = flag.Int("workers", 1, "worker goroutines to shard the fault list across (0 = one per core)")
		schedule    = flag.String("schedule", "static", "multi-worker dispatch policy: static (contiguous pre-split) or steal (work-stealing)")
		escalate    = flag.Int("escalate", 0, "adaptive grouping escalation width W: run every fault fault-serial first, escalate survivors into W-wide groups (0 = off)")
		guided      = flag.Bool("guided", false, "testability-guided search: predicted-hard faults skip the first pass, hardest-first unit ordering, auto-tuned escalation width when -escalate is 0")
		backtracks  = flag.Int("backtracks", 64, "backtrack limit per fault")
		noFPTPG     = flag.Bool("no-fptpg", false, "disable fault-parallel generation")
		noAPTPG     = flag.Bool("no-aptpg", false, "disable alternative-parallel generation")
		compactStr  = flag.String("compact", "none", "static test-set compaction: none, reverse (reverse-order sim dropping) or full (+ compatible-pair merging)")
		xfill       = flag.String("xfill", "zero", "don't-care fill for merged pairs: zero, one or random")
		xfillSeed   = flag.Int64("xfill-seed", 1995, "seed for -xfill random")
		sim         = flag.Int("sim", -1, "fault-simulation dropping at unit claim: any positive value = on (sets no cadence; an integer so existing -sim N invocations keep working), 0 = off, -1 = default (on)")
		out         = flag.String("out", "", "write the generated test set to this file")
		statuses    = flag.String("statuses", "", "write one 'fault<TAB>status' line per target fault (input order) to this file")
		verbose     = flag.Bool("v", false, "print one line per fault")
		cpuprofile  = flag.String("cpuprofile", "", "write a pprof CPU profile of the generation run to this file")
		memprofile  = flag.String("memprofile", "", "write a pprof heap profile (taken after the run) to this file")
	)
	flag.Parse()

	c, err := atpg.LoadCircuit(*circuitName, *benchFile)
	if err != nil {
		fail(err)
	}
	m, err := atpg.ParseMode(*mode)
	if err != nil {
		fail(err)
	}
	level, err := atpg.ParseCompaction(*compactStr)
	if err != nil {
		fail(err)
	}
	fill, err := atpg.ParseXFill(*xfill, *xfillSeed)
	if err != nil {
		fail(err)
	}
	sched, err := atpg.ParseSchedule(*schedule)
	if err != nil {
		fail(err)
	}

	fmt.Printf("circuit: %s\n", c)
	fmt.Printf("structural paths: %s, path delay faults: %s\n",
		c.PathCount().String(), c.FaultCount().String())

	var faults []atpg.Fault
	if *numFaults <= 0 {
		faults = atpg.AllFaults(c, 0)
	} else {
		faults = atpg.SampleFaults(c, *numFaults, *seed)
	}
	fmt.Printf("target faults: %d (%s)\n", len(faults), m)

	engineOpts := []atpg.Option{
		atpg.WithMode(m),
		atpg.WithWordWidth(*width),
		atpg.WithWorkers(*workers),
		atpg.WithSchedule(sched),
		atpg.WithEscalation(*escalate),
		atpg.WithGuidedEscalation(*guided),
		atpg.WithBacktrackLimit(*backtracks),
		atpg.WithFaultParallel(!*noFPTPG),
		atpg.WithAlternativeParallel(!*noAPTPG),
		atpg.WithCompaction(level),
		atpg.WithXFill(fill),
	}
	if *sim >= 0 {
		engineOpts = append(engineOpts, atpg.WithInterleavedSim(*sim))
	}
	e, err := atpg.New(c, engineOpts...)
	if errors.Is(err, atpg.ErrBadWidth) {
		fail(fmt.Errorf("invalid width: %v (valid: -width 1..%d, -escalate 0..%d)",
			err, atpg.MaxWordWidth, atpg.MaxWordWidth))
	}
	if err != nil {
		fail(err)
	}
	if e.Workers() != 1 {
		fmt.Printf("workers: %d (schedule %s)\n", e.Workers(), sched)
	}
	switch {
	case *guided:
		fmt.Printf("testability-guided adaptive grouping, escalation width %s\n",
			widthLabel(*escalate))
	case *escalate > 0:
		fmt.Printf("adaptive grouping: fault-serial first pass, escalation width %d\n", *escalate)
	}

	var results []atpg.Result
	profiled := atpg.ExperimentConfig{CPUProfile: *cpuprofile, MemProfile: *memprofile}
	if err := profiled.Profiled(func() error {
		var runErr error
		results, runErr = e.Run(context.Background(), faults)
		return runErr
	}); err != nil {
		fail(err)
	}

	if *verbose {
		for _, r := range results {
			fmt.Printf("  %-60s %-12s %s\n", c.Describe(r.Fault), r.Status, r.Phase)
		}
	}
	st := e.Stats()
	fmt.Printf("result: %s\n", st)
	fmt.Printf("sensitization time: %s, generation time: %s\n", st.SensitizeTime, st.GenerateTime)
	if *escalate > 0 || *guided {
		fmt.Printf("escalation: %d faults settled fault-serial, %d escalated to width %s\n",
			st.FirstPassSettled, st.Escalated, widthLabel(*escalate))
	}
	if *guided {
		fmt.Printf("guided routing: %d/%d faults predicted hard, first-pass skip rate %.1f%%\n",
			st.PredictedHard, st.Faults, 100*st.SkipRate())
	}
	if e.Workers() != 1 {
		fmt.Printf("scheduling: %s\n", st.Sched)
	}
	if level != atpg.CompactNone {
		fmt.Printf("compaction: %s\n", st.Compaction)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := e.Tests().Write(f); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %d test pairs to %s\n", e.Tests().Len(), *out)
	}
	if *statuses != "" {
		f, err := os.Create(*statuses)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		// Status only, not phase: which phase settles a fault can shift with
		// worker interleaving, the classification cannot.
		for _, r := range results {
			fmt.Fprintf(f, "%s\t%s\n", c.Describe(r.Fault), r.Status)
		}
		fmt.Printf("wrote %d fault statuses to %s\n", len(results), *statuses)
	}
}

// widthLabel names an escalation width: the explicit value, or "auto" when
// guided escalation derives it from the score distribution.
func widthLabel(escalate int) string {
	if escalate > 0 {
		return fmt.Sprintf("%d", escalate)
	}
	return "auto"
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tip:", err)
	os.Exit(1)
}
