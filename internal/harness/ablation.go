package harness

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/compact"
	"repro/internal/core"
	"repro/internal/faultsim"
	"repro/internal/sensitize"
)

// AblationRow is one configuration of an ablation sweep on a single circuit.
type AblationRow struct {
	Label    string
	Tested   int
	Aborted  int
	Patterns int
	Time     time.Duration
	Err      error
}

// runAblation runs the generator on the circuit/fault list with the given
// options and records the outcome.
func runAblation(label string, cfg Config, p bench.Profile, mutate func(*core.Options)) AblationRow {
	row := AblationRow{Label: label}
	c, err := cfg.circuitFor(p)
	if err != nil {
		row.Err = err
		return row
	}
	faults := cfg.sampleFaults(c)
	opts := cfg.generatorOptions()
	if mutate != nil {
		mutate(&opts)
	}
	start := time.Now()
	g := cfg.runGenerator(c, opts, faults)
	row.Time = time.Since(start)
	st := g.Stats()
	row.Tested = st.Tested + st.DetectedBySim
	row.Aborted = st.Aborted
	// The test-set size, which compaction can make smaller than the number
	// of generated patterns (st.Patterns).
	row.Patterns = g.TestSet().Len()
	return row
}

// ablationProfile is the mid-size circuit used for the ablation studies.
func ablationProfile() bench.Profile {
	p, _ := bench.ProfileByName("s1423")
	return p
}

// RunWordWidthAblation sweeps the word width L: the central design parameter
// of the paper.
func RunWordWidthAblation(cfg Config, widths []int) []AblationRow {
	cfg = cfg.normalize()
	if len(widths) == 0 {
		widths = []int{1, 8, 16, 32, 64, 128, 256, 512}
	}
	p := ablationProfile()
	var rows []AblationRow
	for _, w := range widths {
		width := w
		rows = append(rows, runAblation(fmt.Sprintf("L=%d", width), cfg, p, func(o *core.Options) {
			o.WordWidth = width
		}))
	}
	return rows
}

// RunModeAblation compares FPTPG-only, APTPG-only and the combined
// generator (Section 3.3 of the paper).
func RunModeAblation(cfg Config) []AblationRow {
	cfg = cfg.normalize()
	p := ablationProfile()
	return []AblationRow{
		runAblation("combined", cfg, p, nil),
		runAblation("fptpg-only", cfg, p, func(o *core.Options) { o.UseAPTPG = false }),
		runAblation("aptpg-only", cfg, p, func(o *core.Options) { o.UseFPTPG = false }),
	}
}

// RunFaultSimAblation compares generation with and without the
// parallel-pattern fault-simulation dropping.
func RunFaultSimAblation(cfg Config) []AblationRow {
	cfg = cfg.normalize()
	p := ablationProfile()
	return []AblationRow{
		runAblation("faultsim-every-L", cfg, p, nil),
		runAblation("faultsim-off", cfg, p, func(o *core.Options) { o.FaultSimInterval = 0 }),
	}
}

// RunWorkerAblation sweeps the worker count of the sharded engine on the
// ablation circuit: the same fault list generated sequentially and sharded
// across 2..N goroutines, the core-level counterpart of the word-width
// sweep.  counts defaults to {1, 2, runtime.GOMAXPROCS(0)}; the reported
// times are wall-clock, so on a multi-core machine the tested/aborted
// columns should hold steady while time drops.
func RunWorkerAblation(cfg Config, counts []int) []AblationRow {
	cfg = cfg.normalize()
	if len(counts) == 0 {
		counts = []int{1, 2, runtime.GOMAXPROCS(0)}
	}
	p := ablationProfile()
	var rows []AblationRow
	seen := make(map[int]bool)
	for _, n := range counts {
		if seen[n] {
			continue // e.g. the default {1, 2, GOMAXPROCS} on a 1- or 2-core host
		}
		seen[n] = true
		workerCfg := cfg
		workerCfg.Workers = n
		rows = append(rows, runAblation(fmt.Sprintf("workers=%d", n), workerCfg, p, nil))
	}
	return rows
}

// RunCompactionAblation compares the test-set size and run time without
// compaction, with reverse-order simulation dropping only, and with full
// (merge + reverse-order) compaction.  Tested/aborted counts must hold
// steady across the rows — compaction never changes what is detected —
// while the pattern counts shrink.
func RunCompactionAblation(cfg Config) []AblationRow {
	cfg = cfg.normalize()
	p := ablationProfile()
	var rows []AblationRow
	for _, level := range []compact.Level{compact.None, compact.Reverse, compact.Full} {
		l := level
		levelCfg := cfg
		levelCfg.Compact = l
		rows = append(rows, runAblation(fmt.Sprintf("compact=%s", l), levelCfg, p, nil))
	}
	return rows
}

// RunPruningAblation compares generation with and without subpath redundancy
// pruning.
func RunPruningAblation(cfg Config) []AblationRow {
	cfg = cfg.normalize()
	p := ablationProfile()
	return []AblationRow{
		runAblation("subpath-pruning", cfg, p, nil),
		runAblation("pruning-off", cfg, p, func(o *core.Options) { o.SubpathPruning = false }),
	}
}

// FormatAblationTable renders ablation rows.
func FormatAblationTable(title string, rows []AblationRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "%-20s %10s %10s %10s %12s\n", "configuration", "#tested", "#aborted", "#patterns", "time")
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(&sb, "%-20s error: %v\n", r.Label, r.Err)
			continue
		}
		fmt.Fprintf(&sb, "%-20s %10d %10d %10d %12s\n", r.Label, r.Tested, r.Aborted, r.Patterns, r.Time.Round(time.Millisecond))
	}
	return sb.String()
}

// CoverageEstimate reports a sample-based path delay fault coverage estimate
// of the test set produced for a circuit (the NEST-style experiment
// mentioned in Section 5 of the paper): it generates tests for a sample of
// faults and then estimates the coverage of the resulting test set over an
// independent fault sample.
type CoverageEstimate struct {
	Circuit   string
	Patterns  int
	Sampled   int
	Estimated float64
	Time      time.Duration
	Err       error
}

// RunCoverageEstimate produces the coverage-estimation experiment for the
// named profile circuit.
func RunCoverageEstimate(cfg Config, profileName string, sampleSize int) CoverageEstimate {
	cfg = cfg.normalize()
	est := CoverageEstimate{Circuit: profileName}
	p, ok := bench.ProfileByName(profileName)
	if !ok {
		est.Err = fmt.Errorf("unknown profile %q", profileName)
		return est
	}
	c, err := cfg.circuitFor(p)
	if err != nil {
		est.Err = err
		return est
	}
	if sampleSize <= 0 {
		sampleSize = 500
	}
	start := time.Now()
	g := cfg.runGenerator(c, cfg.generatorOptions(), cfg.sampleFaults(c))
	est.Patterns = g.TestSet().Len()
	cov, n, err := faultsim.EstimateCoverage(c, g.TestSet().Pairs, sampleSize, cfg.Seed+1,
		cfg.Mode == sensitize.Robust)
	est.Time = time.Since(start)
	if err != nil {
		est.Err = err
		return est
	}
	est.Sampled = n
	est.Estimated = cov
	return est
}
