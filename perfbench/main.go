// Command perfbench is the repository's end-to-end benchmark for the ATPG
// pipeline.  It runs one named workload the way a user does — parse the
// circuit's .bench text, select faults, generate, fetch the results —
// checks every result independently, and prints the end-to-end metrics.
// With --trace 1 it runs the workload with spans recorded around the calls
// into each layer, plus replay probes, and prints the per-layer metrics.
//
//	bash perfbench/run.sh --workload search-c7552 --seed 1 --seconds 30 --trace 0
//
// run.sh builds this package from the checkout and runs it from the
// checkout's root.
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// The process exits 1 on a correctness failure (a wrong or missing answer;
// these are the failed operations, while aborted faults are reported apart)
// and 2 when the workload cannot run at all.  perfbench/README.md describes the
// workloads and what each metric is expected to move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// buildDir is the scratch directory, relative to the repository root, for
// ledgers, traces and result files.
const buildDir = ".bench_build"

// setupSamples is how many times set-up is measured per run; setup_s is
// their median.
const setupSamples = 21

// minReps is the fewest timed repetitions a run makes, whatever --seconds.
const minReps = 3

// runTimeout bounds one run, so a hung layer fails the run instead of
// hanging it.
const runTimeout = 150 * time.Second

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed of the fault sample")
	seconds := flag.Int("seconds", 30, "measurement time in seconds")
	traceOn := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fatal(fmt.Errorf("want --seconds >= 1 and --trace 0 or 1"))
	}
	scratch := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fatal(err)
	}
	in, err := makeInput(w)
	if err != nil {
		fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()

	h := hostFingerprint()
	hb, _ := json.Marshal(h)
	fmt.Printf("host %s\n", hb)
	fmt.Printf("workload %s: %s, %d faults, seed %d, L=%d, %d workers\n", w.name, w.profile, w.faults, *seed, w.width, w.workers)

	budget := time.Duration(*seconds) * time.Second
	var res result
	if *traceOn == 1 {
		res, err = traceRun(ctx, w, in, *seed, scratch, budget)
	} else {
		res, err = measureRun(ctx, w, in, *seed, scratch, budget)
	}
	if err != nil {
		fatal(err)
	}
	res.Host = h
	res.Workload, res.Seed, res.Trace = w.name, *seed, *traceOn == 1
	if err := res.save(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: save result:", err)
	}
	res.print()
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// metric is one reported number with its unit and the samples behind it.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// result is a run's outcome.  The full form, samples included, is saved
// under buildDir; the last output line carries only the four result keys.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Host      host              `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Aborted   int               `json:"aborted"`
	Notes     []string          `json:"notes,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name, unit string, samples []float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: median(samples), Unit: unit, Samples: samples}
}

func (r *result) tally(v verdict) {
	r.Attempted += v.attempted
	r.Failed += v.failed()
	r.Aborted += v.aborted
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *result) save() error {
	suffix := ""
	if r.Trace {
		suffix = "-trace"
	}
	path := filepath.Join(buildDir, "results", fmt.Sprintf("%s-seed%d%s.json", r.Workload, r.Seed, suffix))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// print writes the human-readable report and, last, the result line.
func (r *result) print() {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		if len(m.Samples) > 1 {
			fmt.Printf("  %-34s %14.6g %-9s n=%d p25=%.6g p75=%.6g\n", n, m.Value, m.Unit, len(m.Samples), quantile(m.Samples, 0.25), quantile(m.Samples, 0.75))
		} else {
			fmt.Printf("  %-34s %14.6g %-9s n=%d\n", n, m.Value, m.Unit, len(m.Samples))
		}
	}
	for _, n := range r.Notes {
		fmt.Println("note:", n)
	}
	failedPct, abortedPct := 0.0, 0.0
	if r.Attempted > 0 {
		failedPct = float64(r.Failed) / float64(r.Attempted) * 100
		abortedPct = float64(r.Aborted) / float64(r.Attempted) * 100
	}
	fmt.Printf("operations: attempted=%d failed=%d (%.2f%%) aborted=%d (%.2f%%) correct=%v\n",
		r.Attempted, r.Failed, failedPct, r.Aborted, abortedPct, r.Correct)

	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]valueUnit, len(r.Metrics))}
	for n, m := range r.Metrics {
		out.Metrics[n] = valueUnit{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}
