package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/atpg"
	"repro/internal/circuit"
	"repro/internal/compact"
	"repro/internal/core"
	"repro/internal/paths"
	"repro/internal/sched"
	"repro/internal/sensitize"
	"repro/internal/service"
)

// workload is one pinned benchmark configuration.  Every engine option is
// set explicitly here rather than taken from library defaults, so a change
// of a default shows as a program change, not as a workload change.
type workload struct {
	name    string
	profile string // synthesized ISCAS-class circuit profile
	faults  int    // size of the seeded random fault sample
	mode    atpg.Mode

	width       int // word width L
	workers     int
	backtracks  int
	simInterval int // interleaved fault simulation every simInterval patterns
	schedule    atpg.Schedule
	escalate    int // adaptive-grouping escalation width; 0 = one fixed-width pass
	firstPass   int // first-pass backtrack budget (used only with escalate > 0)
	guided      bool
	compaction  atpg.CompactionLevel

	// service routes the job through an in-process coordinator and
	// workers over loopback HTTP instead of a local engine.
	service bool
}

// workloads are the named benchmark workloads; BENCHMARK.json and
// perfbench/README.md give the reasons for each choice.
var workloads = []workload{
	{
		// The paper's hard case: APTPG search and implication dominate,
		// about a tenth of the faults abort.  One worker keeps statuses and
		// counts exactly repeatable.
		name: "search-c7552", profile: "c7552", faults: 512, mode: atpg.Robust,
		width: 64, workers: 1, backtracks: 64, simInterval: 64,
		schedule: atpg.ScheduleStatic, firstPass: 1, compaction: atpg.CompactNone,
	},
	{
		// Wide and shallow, mostly testable: thousands of patterns, so
		// fault simulation, compaction and the scheduler carry real load,
		// and FPTPG runs over four-word planes.
		name: "patterns-c2670", profile: "c2670", faults: 6000, mode: atpg.Nonrobust,
		width: 256, workers: 2, backtracks: 8, simInterval: 256,
		schedule: atpg.ScheduleSteal, firstPass: 1, compaction: atpg.CompactFull,
	},
	{
		// The distributed path: lease, wire and ledger traffic of a
		// two-pass adaptive job whose first pass cuts one-fault units.
		name: "service-c880", profile: "c880", faults: 3000, mode: atpg.Robust,
		width: 64, workers: 2, backtracks: 8, simInterval: 64,
		schedule: atpg.ScheduleSteal, escalate: 8, firstPass: 1, compaction: atpg.CompactReverse,
		service: true,
	},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

func (w workload) robust() bool { return w.mode == atpg.Robust }

// options are the facade options of a local run.
func (w workload) options() []atpg.Option {
	return []atpg.Option{
		atpg.WithMode(w.mode),
		atpg.WithWordWidth(w.width),
		atpg.WithWorkers(w.workers),
		atpg.WithBacktrackLimit(w.backtracks),
		atpg.WithFaultParallel(true),
		atpg.WithAlternativeParallel(true),
		atpg.WithInterleavedSim(w.simInterval),
		atpg.WithSchedule(w.schedule),
		atpg.WithEscalation(w.escalate),
		atpg.WithFirstPassBudget(w.firstPass),
		atpg.WithGuidedEscalation(w.guided),
		atpg.WithCompaction(w.compaction),
		atpg.WithXFill(atpg.XFillZero()),
	}
}

// coreOptions are the same settings as core options, for the traced run,
// which calls the layers under the facade directly.  They follow the
// facade's own construction: core defaults, then every option above.
func (w workload) coreOptions() core.Options {
	o := core.DefaultOptions(w.mode)
	o.WordWidth = w.width
	o.MaxBacktracks = w.backtracks
	o.UseFPTPG = true
	o.UseAPTPG = true
	o.FaultSimInterval = w.simInterval
	o.Schedule = w.schedule
	o.EscalationWidth = w.escalate
	o.FirstPassBacktracks = w.firstPass
	o.GuidedEscalation = w.guided
	o.Compaction = w.compaction
	o.CompactionXFill = compact.ZeroFill()
	return o
}

// jobOptions are the same settings in wire form, for the service workload.
func (w workload) jobOptions() service.JobOptions {
	sim := w.simInterval
	mode := "robust"
	if w.mode == sensitize.Nonrobust {
		mode = "nonrobust"
	}
	return service.JobOptions{
		Mode:            mode,
		WordWidth:       w.width,
		Backtracks:      w.backtracks,
		NoFPTPG:         false,
		NoAPTPG:         false,
		SimInterval:     &sim,
		Schedule:        sched.Policy(w.schedule).String(),
		Escalate:        w.escalate,
		FirstPassBudget: w.firstPass,
		Guided:          w.guided,
		Compact:         compact.Level(w.compaction).String(),
		XFill:           "zero",
	}
}

// input is what a repetition feeds the program — the circuit as .bench
// text and the fault order — plus the benchmark's own parse of that text
// and its own copy of the fault list, which the output check and the replay
// probes use.
type input struct {
	name   string
	bench  string
	c      *circuit.Circuit
	pool   []paths.Fault // the workload's fault population, in sample order
	order  int64         // the seed of this repetition's fault order
	faults []paths.Fault // pool shuffled by order
}

// withOrder returns the input of a repetition using the given fault order.
func (in input) withOrder(order int64) input {
	in.order = order
	in.faults = selectFaults(in.pool, order)
	return in
}

// sameInput reports whether every repetition of a run feeds the same input.
// A single-worker workload does, so that its statuses and test set can be
// checked for exact repeats; the others draw a fresh fault order per
// repetition from the run's seed, so a run's medians average over orders.
func (w workload) sameInput() bool { return w.workers == 1 }

// orders yields the fault-order seed of each repetition.
type orders struct {
	fixed bool
	seed  int64
	rng   *rand.Rand
}

func newOrders(w workload, seed int64) *orders {
	return &orders{fixed: w.sameInput(), seed: seed, rng: rand.New(rand.NewSource(seed))}
}

func (o *orders) next() int64 {
	if o.fixed {
		return o.seed
	}
	return o.rng.Int63()
}

// poolSeed pins each workload's fault population.  A freely drawn sample per
// seed moved the abort count of search-c7552 by about a sixth between seeds,
// and faults/s with it, more than any regression bound could absorb; so the
// population is fixed and the run's seed decides the order the faults are
// submitted in (see orders).  The order decides which faults share an FPTPG
// group or a work unit, what the interleaved simulation drops, and which
// worker takes what.
const poolSeed = 1

// selectFaults is the run's fault list: the workload's fixed random sample,
// shuffled by the run's seed.
func selectFaults(pool []paths.Fault, seed int64) []paths.Fault {
	out := append([]paths.Fault(nil), pool...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// makeInput synthesizes the workload's circuit, renders it to .bench text
// and samples its fault population.  The circuit is fixed per workload.
func makeInput(w workload) (input, error) {
	p, ok := atpg.ProfileByName(w.profile)
	if !ok {
		return input{}, fmt.Errorf("unknown circuit profile %q", w.profile)
	}
	syn, err := atpg.Synthesize(p)
	if err != nil {
		return input{}, fmt.Errorf("synthesize %s: %w", w.profile, err)
	}
	var sb strings.Builder
	if err := syn.WriteBench(&sb); err != nil {
		return input{}, fmt.Errorf("render %s: %w", w.profile, err)
	}
	c, err := circuit.ParseBenchString(w.profile, sb.String())
	if err != nil {
		return input{}, fmt.Errorf("parse %s: %w", w.profile, err)
	}
	pool := paths.SampleFaults(c, w.faults, poolSeed)
	if len(pool) != w.faults {
		return input{}, fmt.Errorf("%s: sampled %d faults, want %d", w.profile, len(pool), w.faults)
	}
	return input{name: w.profile, bench: sb.String(), c: c, pool: pool}, nil
}
