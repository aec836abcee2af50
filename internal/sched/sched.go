// Package sched owns fault dispatch for the generation engine: it cuts a
// run's target fault list into work units (word-parallel fault groups) and
// hands them out to N workers.
//
// Two policies are provided.  Static reproduces the classic contiguous
// pre-split: every worker receives one contiguous run of units up front and
// never looks at another worker's queue, so a worker whose shard happens to
// hold the hard faults finishes long after the others have gone idle.  Steal
// starts from the same contiguous split — preserving the locality that makes
// subpath pruning and interleaved simulation effective — but lets a worker
// whose own queue runs dry take queued units from the tail of the most
// loaded peer, so clustered hard faults are rebalanced instead of serialized
// on one worker.
//
// The scheduler only decides *which worker processes which unit*; result
// ordering is untouched.  Consumers write each fault's result into a slot
// keyed by the fault's original index and reassemble test sets in input
// order, so both policies produce the same deterministic, input-ordered
// merge (see internal/core and docs/ARCHITECTURE.md "Scheduling").
package sched

import (
	"fmt"
	"sync"
)

// Policy selects how work units are handed to workers.
type Policy uint8

const (
	// Static pre-splits the units into contiguous per-worker runs with no
	// rebalancing: the scheduler-internal equivalent of the old contiguous
	// fault-shard split.
	Static Policy = iota
	// Steal uses the same initial split but lets idle workers steal queued
	// units from the tail of the most loaded peer.
	Steal
)

// String returns the flag spelling of the policy.
func (p Policy) String() string {
	switch p {
	case Static:
		return "static"
	case Steal:
		return "steal"
	}
	return fmt.Sprintf("Policy(%d)", uint8(p))
}

// ParsePolicy parses "static" or "steal".
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "static":
		return Static, nil
	case "steal":
		return Steal, nil
	}
	return Static, fmt.Errorf("sched: unknown schedule %q (want static or steal)", s)
}

// Unit is one work unit: a group of fault indices (into the run's target
// fault slice) processed together as one word-parallel group.  The
// scheduler is pass-agnostic; the consumer carries the pass parameters
// (width, budget, finality) alongside the scheduler it drains.
type Unit struct {
	Faults []int

	// Cost is the predicted processing cost of the unit, in arbitrary
	// consumer-defined weight (the guided engine sums testability scores).
	// Load balances the contiguous split by Cost when any unit carries one;
	// zero-cost units fall back to their fault count, so unweighted loads
	// behave exactly as before.
	Cost int
}

// Stats aggregates the dispatch behavior of one or more scheduler loads.
type Stats struct {
	// Passes counts scheduler loads (1 per generation pass).
	Passes int
	// Units counts the work units dispatched.
	Units int
	// Steals counts units a worker took from another worker's queue; it
	// stays zero under the Static policy.
	Steals int
	// IdleUnits measures skew: every time a worker goes permanently idle,
	// the units still queued (not yet started) on the other workers are
	// added up.  Under Steal it is structurally zero — a worker only goes
	// idle when nothing is left to steal — while under Static it exposes
	// how much queued work the idle worker was barred from helping with.
	IdleUnits int
}

// Add accumulates the counters of another load into s.
func (s *Stats) Add(o Stats) {
	s.Passes += o.Passes
	s.Units += o.Units
	s.Steals += o.Steals
	s.IdleUnits += o.IdleUnits
}

// String renders a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("passes=%d units=%d steals=%d idle-units=%d",
		s.Passes, s.Units, s.Steals, s.IdleUnits)
}

// Scheduler hands out the loaded units to workers.  Next is safe for
// concurrent use by the workers; Load is not (load between passes, with the
// workers quiesced).
type Scheduler struct {
	policy Policy

	mu     sync.Mutex
	queues [][]Unit // queues[w][heads[w]:] is worker w's pending FIFO
	heads  []int
	stats  Stats
}

// New creates a scheduler for the given number of workers.
func New(policy Policy, workers int) *Scheduler {
	if workers < 1 {
		workers = 1
	}
	return &Scheduler{
		policy: policy,
		queues: make([][]Unit, workers),
		heads:  make([]int, workers),
	}
}

// Load distributes the units across the worker queues: contiguous runs of
// units, balanced by unit weight — the predicted Cost when the consumer set
// one, the fault count otherwise (so an unweighted load reproduces the old
// near-even contiguous fault sharding).  Cost-weighted splits spread a
// hardest-first ordered load so every worker's shard predicts roughly equal
// work, instead of equal fault counts with all the hard faults on worker 0.
// It resets any previous load; call it once per pass, with the workers
// quiesced.
func (s *Scheduler) Load(units []Unit) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Passes++
	s.stats.Units += len(units)

	remWeight := 0
	for _, u := range units {
		remWeight += unitWeight(u)
	}
	i := 0
	for w := range s.queues {
		s.heads[w] = 0
		remWorkers := len(s.queues) - w
		take, weight := 0, 0
		for i+take < len(units) && weight*remWorkers < remWeight {
			weight += unitWeight(units[i+take])
			take++
		}
		s.queues[w] = units[i : i+take]
		i += take
		remWeight -= weight
	}
	// Weight-zero tails (empty units) cannot be reached by the balancing
	// loop; give them to the last worker so nothing is dropped.
	if i < len(units) {
		last := len(s.queues) - 1
		s.queues[last] = append(append([]Unit{}, s.queues[last]...), units[i:]...)
	}
}

// unitWeight is the balancing weight of a unit: its predicted cost, or its
// fault count while the consumer did not predict one.
func unitWeight(u Unit) int {
	if u.Cost > 0 {
		return u.Cost
	}
	return len(u.Faults)
}

// Next returns the next unit for the worker: the head of its own queue, or —
// under the Steal policy — the tail of the most loaded peer's queue.  It
// returns ok=false when no unit is available anywhere, which is final for
// the current load: the worker should exit.
//
//atpgvet:noalloc
func (s *Scheduler) Next(worker int) (Unit, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q := s.queues[worker]; s.heads[worker] < len(q) {
		u := q[s.heads[worker]]
		s.heads[worker]++
		return u, true
	}
	if s.policy == Steal {
		victim, best := -1, 0
		for v := range s.queues {
			if rem := len(s.queues[v]) - s.heads[v]; rem > best {
				best, victim = rem, v
			}
		}
		if victim >= 0 {
			q := s.queues[victim]
			u := q[len(q)-1]
			s.queues[victim] = q[:len(q)-1]
			s.stats.Steals++
			return u, true
		}
	}
	// The worker goes permanently idle; record how many queued units it
	// leaves behind on the other workers (the skew a static split exposes).
	for v := range s.queues {
		s.stats.IdleUnits += len(s.queues[v]) - s.heads[v]
	}
	return Unit{}, false
}

// Stats returns the counters accumulated so far.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Group cuts the fault indices into units of at most width faults each,
// preserving input order.  The unit slices alias the indices slice, which
// must not be mutated afterwards.
func Group(indices []int, width int) []Unit {
	if width < 1 {
		width = 1
	}
	units := make([]Unit, 0, (len(indices)+width-1)/width)
	for start := 0; start < len(indices); start += width {
		end := start + width
		if end > len(indices) {
			end = len(indices)
		}
		units = append(units, Unit{Faults: indices[start:end]})
	}
	return units
}
