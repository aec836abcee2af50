// Package harness reproduces the experiments of the paper: it runs the
// bit-parallel generator (and its baselines) over the benchmark circuit
// suites and produces the rows of Tables 3 through 8.
//
// The original ISCAS netlists, the DECstation hardware and the proprietary
// comparison tools are unavailable, so the harness substitutes synthetic
// circuits with matching structural profiles, a selectable word width, and a
// conventional structural single-fault generator as the stand-in comparator
// (see DESIGN.md).  Absolute numbers therefore differ from the paper; the
// quantities that are expected to reproduce are the *shapes*: complete or
// near-complete efficiency, bit-parallel speed-ups over the single-bit
// generator, and a reduction of aborted faults.
package harness

import (
	"context"
	"fmt"
	"math/big"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/compact"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/paths"
	"repro/internal/sched"
	"repro/internal/sensitize"
)

// Config controls the size and word width of an experiment run.
type Config struct {
	// Mode selects robust or nonrobust generation.
	Mode sensitize.Mode
	// WordWidth is the machine word length L exploited by the bit-parallel
	// generator (the paper uses 64 for Tables 3-6 and 32 for Tables 7-8).
	WordWidth int
	// FaultsPerCircuit bounds the number of target faults sampled per
	// circuit.  The ISCAS circuits have up to tens of millions of paths; the
	// paper runs for days on them, so the reproduction targets a uniform
	// sample.  0 means 256.
	FaultsPerCircuit int
	// Scale shrinks the synthetic circuit profiles (1.0 = full published
	// size).  0 means 1.0.
	Scale float64
	// Seed makes fault sampling deterministic.
	Seed int64
	// MaxBacktracks is passed to the generator (0 = default).
	MaxBacktracks int
	// Workers shards every generator run across this many goroutines
	// (core-level parallelism on top of the word-level bit parallelism).
	// 0 or 1 runs the sequential generator of the paper.
	Workers int
	// Schedule selects the dispatch policy of the sharded runs: static
	// contiguous pre-assignment or work-stealing (see internal/sched).
	Schedule sched.Policy
	// Escalate, when positive, enables two-pass adaptive fault grouping
	// with the given escalation width: a cheap fault-serial first pass,
	// then wide word-parallel groups for the survivors only.
	Escalate int
	// Guided enables testability-guided search (core.Options.
	// GuidedEscalation): predicted-hard faults skip the cheap first pass,
	// work is ordered hardest first, and — when Escalate is 0 — the
	// escalation width is derived from the score distribution.
	Guided bool
	// Compact selects the static test-set compaction applied after every
	// generator run (compact.None disables it, the default).
	Compact compact.Level
	// XFill fills the don't cares of pairs merged during compaction; nil
	// selects compact.ZeroFill().
	XFill compact.Filler
	// CPUProfile and MemProfile, when non-empty, are the pprof output paths
	// used by Config.Profiled (and by the -cpuprofile/-memprofile flags of
	// the command-line tools).
	CPUProfile string
	MemProfile string
}

// DefaultConfig returns the configuration used by cmd/experiments: full-size
// profiles, 256 sampled faults per circuit.
func DefaultConfig(mode sensitize.Mode) Config {
	return Config{Mode: mode, WordWidth: logic.WordWidth, FaultsPerCircuit: 256, Scale: 1.0, Seed: 1995}
}

// QuickConfig returns a reduced configuration suitable for unit tests and
// Go benchmarks: scaled-down circuits and few faults per circuit.
func QuickConfig(mode sensitize.Mode) Config {
	return Config{Mode: mode, WordWidth: logic.WordWidth, FaultsPerCircuit: 48, Scale: 0.12, Seed: 1995}
}

func (cfg Config) normalize() Config {
	if cfg.WordWidth <= 0 {
		cfg.WordWidth = logic.WordWidth
	}
	if cfg.FaultsPerCircuit <= 0 {
		cfg.FaultsPerCircuit = 256
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1995
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	return cfg
}

// runGenerator builds a generator and runs it over the faults, sharded
// across cfg.Workers goroutines (1 = the plain sequential run).
func (cfg Config) runGenerator(c *circuit.Circuit, opts core.Options, faults []paths.Fault) *core.Generator {
	g := core.New(c, opts)
	core.RunSharded(context.Background(), g, faults, cfg.Workers)
	return g
}

// circuitFor synthesizes the (possibly scaled) stand-in for a profile.
func (cfg Config) circuitFor(p bench.Profile) (*circuit.Circuit, error) {
	if cfg.Scale != 1.0 {
		p = p.Scaled(cfg.Scale)
	}
	return bench.Synthesize(p)
}

// sampleFaults draws the bounded target fault list for a circuit.
func (cfg Config) sampleFaults(c *circuit.Circuit) []paths.Fault {
	total := paths.CountFaults(c)
	if total.Cmp(big.NewInt(int64(cfg.FaultsPerCircuit))) <= 0 {
		return paths.EnumerateFaults(c, 0)
	}
	return paths.SampleFaults(c, cfg.FaultsPerCircuit, cfg.Seed)
}

// generatorOptions builds the core options for the bit-parallel generator.
func (cfg Config) generatorOptions() core.Options {
	o := core.DefaultOptions(cfg.Mode)
	o.WordWidth = cfg.WordWidth
	if cfg.MaxBacktracks > 0 {
		o.MaxBacktracks = cfg.MaxBacktracks
	}
	o.Compaction = cfg.Compact
	o.CompactionXFill = cfg.XFill
	o.Schedule = cfg.Schedule
	o.EscalationWidth = cfg.Escalate
	o.GuidedEscalation = cfg.Guided
	return o
}

// singleBitOptions builds the options of the single-bit restriction used in
// Tables 5 and 6.
func (cfg Config) singleBitOptions() core.Options {
	o := cfg.generatorOptions()
	o.WordWidth = 1
	o.EscalationWidth = 0 // escalating into wide groups would defeat the baseline
	o.GuidedEscalation = false
	return o
}

// structuralBaselineOptions builds the options of the conventional
// structural single-fault generator used as the stand-in for the comparison
// tools of Tables 7 and 8: one fault at a time, conventional backtracking
// only, no fault-simulation dropping and no subpath pruning.
func (cfg Config) structuralBaselineOptions() core.Options {
	o := cfg.generatorOptions()
	o.WordWidth = 1
	o.UseFPTPG = false
	o.FaultSimInterval = 0
	o.SubpathPruning = false
	o.EscalationWidth = 0
	o.GuidedEscalation = false
	return o
}

// ---------------------------------------------------------------------------
// Tables 3 and 4: full ATPG over the ISCAS85 suite.
// ---------------------------------------------------------------------------

// ATPGRow is one row of Table 3 (robust) or Table 4 (nonrobust).
type ATPGRow struct {
	Circuit    string
	NumFaults  *big.Int // total path delay faults of the circuit (# faults)
	Targeted   int      // faults actually targeted (sampled)
	Tested     int      // faults covered by the generated test set
	Redundant  int
	Aborted    int
	Efficiency float64 // (1 - aborted/targeted) * 100 %
	Patterns   int
	Time       time.Duration
	Err        error
}

// RunISCAS85 produces the rows of Table 3 (mode Robust) or Table 4 (mode
// Nonrobust): full ATPG over the ISCAS85-class circuits.  The c6288-class
// multiplier is skipped exactly as in the paper.
func RunISCAS85(cfg Config) []ATPGRow {
	cfg = cfg.normalize()
	var rows []ATPGRow
	for _, p := range bench.ISCAS85Profiles() {
		if p.Name == "c6288" {
			continue // "except circuit c6288, containing 10^20 functional paths"
		}
		rows = append(rows, cfg.runATPGRow(p))
	}
	return rows
}

// RunTable3 is RunISCAS85 in robust mode.
func RunTable3(cfg Config) []ATPGRow {
	cfg.Mode = sensitize.Robust
	return RunISCAS85(cfg)
}

// RunTable4 is RunISCAS85 in nonrobust mode.
func RunTable4(cfg Config) []ATPGRow {
	cfg.Mode = sensitize.Nonrobust
	return RunISCAS85(cfg)
}

func (cfg Config) runATPGRow(p bench.Profile) ATPGRow {
	row := ATPGRow{Circuit: p.Name}
	c, err := cfg.circuitFor(p)
	if err != nil {
		row.Err = err
		return row
	}
	row.NumFaults = paths.CountFaults(c)
	faults := cfg.sampleFaults(c)
	row.Targeted = len(faults)

	start := time.Now()
	g := cfg.runGenerator(c, cfg.generatorOptions(), faults)
	row.Time = time.Since(start)

	st := g.Stats()
	row.Tested = st.Tested + st.DetectedBySim
	row.Redundant = st.Redundant
	row.Aborted = st.Aborted
	row.Efficiency = st.Efficiency()
	row.Patterns = st.Patterns
	return row
}

// FormatATPGTable renders rows in the layout of Tables 3/4.
func FormatATPGTable(title string, rows []ATPGRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "%-10s %14s %10s %10s %10s %10s %12s %10s\n",
		"Circuit", "#faults", "#targeted", "#tested", "#redund", "#aborted", "efficiency", "time")
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(&sb, "%-10s error: %v\n", r.Circuit, r.Err)
			continue
		}
		fmt.Fprintf(&sb, "%-10s %14s %10d %10d %10d %10d %11.2f%% %10s\n",
			r.Circuit, r.NumFaults.String(), r.Targeted, r.Tested, r.Redundant, r.Aborted,
			r.Efficiency, r.Time.Round(time.Millisecond))
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Tables 5 and 6: bit-parallel versus single-bit generation.
// ---------------------------------------------------------------------------

// SpeedupRow is one row of Table 5 (robust) or Table 6 (nonrobust).
type SpeedupRow struct {
	Circuit         string
	SensTime        time.Duration // t_sens: path sensitization (identical for both generators)
	SingleTime      time.Duration // t_single
	ParallelTime    time.Duration // t_parallel
	Speedup         float64       // t_single / t_parallel
	AbortedSingle   int
	AbortedParallel int
	Err             error
}

// table56Circuits lists the circuits of Tables 5 and 6 in the paper's order.
var table56Circuits = []string{
	"s713", "s838", "s938", "s991", "s1269", "s1423", "s3271", "s5378", "s9234", "s13207", "s15850",
}

// RunSpeedup produces the rows of Table 5 (robust) or Table 6 (nonrobust):
// the bit-parallel generator against the generator restricted to one bit
// level, on the ISCAS89-class circuits.
func RunSpeedup(cfg Config) []SpeedupRow {
	cfg = cfg.normalize()
	var rows []SpeedupRow
	for _, name := range table56Circuits {
		p, ok := bench.ProfileByName(name)
		if !ok {
			rows = append(rows, SpeedupRow{Circuit: name, Err: fmt.Errorf("unknown profile %q", name)})
			continue
		}
		rows = append(rows, cfg.runSpeedupRow(p))
	}
	return rows
}

// RunTable5 is RunSpeedup in robust mode.
func RunTable5(cfg Config) []SpeedupRow {
	cfg.Mode = sensitize.Robust
	return RunSpeedup(cfg)
}

// RunTable6 is RunSpeedup in nonrobust mode.
func RunTable6(cfg Config) []SpeedupRow {
	cfg.Mode = sensitize.Nonrobust
	return RunSpeedup(cfg)
}

func (cfg Config) runSpeedupRow(p bench.Profile) SpeedupRow {
	row := SpeedupRow{Circuit: p.Name}
	c, err := cfg.circuitFor(p)
	if err != nil {
		row.Err = err
		return row
	}
	faults := cfg.sampleFaults(c)

	// Bit-parallel run.
	start := time.Now()
	gp := cfg.runGenerator(c, cfg.generatorOptions(), faults)
	parallelTotal := time.Since(start)
	row.AbortedParallel = gp.Stats().Aborted

	// Single-bit run.
	start = time.Now()
	gs := cfg.runGenerator(c, cfg.singleBitOptions(), faults)
	singleTotal := time.Since(start)
	row.AbortedSingle = gs.Stats().Aborted

	// The paper reports the sensitization time separately (it is identical
	// for both generators) and compares the remaining generation time.
	row.SensTime = gp.Stats().SensitizeTime
	row.ParallelTime = parallelTotal - gp.Stats().SensitizeTime
	row.SingleTime = singleTotal - gs.Stats().SensitizeTime
	if row.ParallelTime <= 0 {
		row.ParallelTime = time.Microsecond
	}
	if row.SingleTime <= 0 {
		row.SingleTime = time.Microsecond
	}
	row.Speedup = float64(row.SingleTime) / float64(row.ParallelTime)
	return row
}

// FormatSpeedupTable renders rows in the layout of Tables 5/6.
func FormatSpeedupTable(title string, rows []SpeedupRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "%-10s %12s %12s %12s %10s %14s %14s\n",
		"Circuit", "t_sens", "t_single", "t_parallel", "speedup", "aborted(1bit)", "aborted(par)")
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(&sb, "%-10s error: %v\n", r.Circuit, r.Err)
			continue
		}
		fmt.Fprintf(&sb, "%-10s %12s %12s %12s %9.1fx %14d %14d\n",
			r.Circuit, r.SensTime.Round(time.Microsecond), r.SingleTime.Round(time.Microsecond),
			r.ParallelTime.Round(time.Microsecond), r.Speedup, r.AbortedSingle, r.AbortedParallel)
	}
	return sb.String()
}

// SpeedupSummary returns the average and maximum speed-up of a table, the
// two headline numbers of the paper ("average acceleration is about five",
// "speedup of up to nine").
func SpeedupSummary(rows []SpeedupRow) (avg, max float64) {
	n := 0
	for _, r := range rows {
		if r.Err != nil || r.Speedup <= 0 {
			continue
		}
		avg += r.Speedup
		if r.Speedup > max {
			max = r.Speedup
		}
		n++
	}
	if n > 0 {
		avg /= float64(n)
	}
	return avg, max
}

// ---------------------------------------------------------------------------
// Tables 7 and 8: comparison against a conventional structural generator.
// ---------------------------------------------------------------------------

// CompareRow is one row of Table 7 (nonrobust) or Table 8 (robust): the
// bit-parallel generator (TIP) against the structural single-fault baseline
// standing in for the unavailable TSUNAMI-D and DYNAMITE tools.
type CompareRow struct {
	Circuit        string
	Targeted       int
	TIPTested      int
	TIPTime        time.Duration
	BaselineTested int
	BaselineTime   time.Duration
	Err            error
}

// table78Circuits lists the circuits of Tables 7 and 8 in the paper's order.
var table78Circuits = []string{
	"s641", "s713", "s1196", "s1238", "s1423", "s1494", "s5378", "s13207", "s15850", "s38584",
}

// RunComparison produces the rows of Table 7 (nonrobust) or Table 8
// (robust).  The paper uses a 32-bit machine for these tables; the word
// width of cfg is used as given, so pass 32 to match.
func RunComparison(cfg Config) []CompareRow {
	cfg = cfg.normalize()
	var rows []CompareRow
	for _, name := range table78Circuits {
		p, ok := bench.ProfileByName(name)
		if !ok {
			rows = append(rows, CompareRow{Circuit: name, Err: fmt.Errorf("unknown profile %q", name)})
			continue
		}
		rows = append(rows, cfg.runCompareRow(p))
	}
	return rows
}

// RunTable7 is RunComparison in nonrobust mode with L=32.
func RunTable7(cfg Config) []CompareRow {
	cfg.Mode = sensitize.Nonrobust
	cfg.WordWidth = 32
	return RunComparison(cfg)
}

// RunTable8 is RunComparison in robust mode with L=32.
func RunTable8(cfg Config) []CompareRow {
	cfg.Mode = sensitize.Robust
	cfg.WordWidth = 32
	return RunComparison(cfg)
}

func (cfg Config) runCompareRow(p bench.Profile) CompareRow {
	row := CompareRow{Circuit: p.Name}
	c, err := cfg.circuitFor(p)
	if err != nil {
		row.Err = err
		return row
	}
	faults := cfg.sampleFaults(c)
	row.Targeted = len(faults)

	start := time.Now()
	tip := cfg.runGenerator(c, cfg.generatorOptions(), faults)
	row.TIPTime = time.Since(start)
	row.TIPTested = tip.Stats().Tested + tip.Stats().DetectedBySim

	start = time.Now()
	base := cfg.runGenerator(c, cfg.structuralBaselineOptions(), faults)
	row.BaselineTime = time.Since(start)
	row.BaselineTested = base.Stats().Tested + base.Stats().DetectedBySim
	return row
}

// FormatCompareTable renders rows in the layout of Tables 7/8.
func FormatCompareTable(title string, rows []CompareRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "%-10s %10s | %10s %12s | %10s %12s\n",
		"Circuit", "#targeted", "TIP #tst", "TIP time", "base #tst", "base time")
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(&sb, "%-10s error: %v\n", r.Circuit, r.Err)
			continue
		}
		fmt.Fprintf(&sb, "%-10s %10d | %10d %12s | %10d %12s\n",
			r.Circuit, r.Targeted, r.TIPTested, r.TIPTime.Round(time.Millisecond),
			r.BaselineTested, r.BaselineTime.Round(time.Millisecond))
	}
	return sb.String()
}
