package faultsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/paths"
	"repro/internal/pattern"
)

// eagerValues is the reference the demand-driven evaluation must match:
// every input packed from the pairs, then every gate evaluated once in
// topological order.
func eagerValues(c *circuit.Circuit, pairs []pattern.Pair) []logic.Word7 {
	vals := make([]logic.Word7, c.NumNets())
	for j, p := range pairs {
		for i, in := range c.Inputs() {
			vals[in].MergeAt(j, p.Value7(i))
		}
	}
	for _, id := range c.TopoOrder() {
		g := c.Gate(id)
		if g.Kind == logic.Input {
			continue
		}
		in := make([]logic.Word7, len(g.Fanin))
		for k, f := range g.Fanin {
			in[k] = vals[f]
		}
		vals[id] = logic.EvalGate7(g.Kind, in)
	}
	return vals
}

// eagerSim returns a simulator holding pairs as its batch with every net
// already set to its eager value and stamped, so its Detects reads only
// values of the topological sweep and never starts a cone walk.
func eagerSim(t *testing.T, c *circuit.Circuit, pairs []pattern.Pair) *Simulator {
	t.Helper()
	s := New(c)
	if _, err := s.Load(pairs); err != nil {
		t.Fatal(err)
	}
	copy(s.vals, eagerValues(c, pairs))
	for i := range s.stamp {
		s.stamp[i] = s.epoch
	}
	return s
}

// randomXPairs draws n pairs whose vectors hold 0, 1 and X, so inputs take
// every seven-valued input value: stable, rising, falling, final-only and X.
func randomXPairs(c *circuit.Circuit, n int, rng *rand.Rand) []pattern.Pair {
	vals := []logic.Value3{logic.Zero3, logic.One3, logic.Zero3, logic.One3, logic.X3}
	pairs := make([]pattern.Pair, n)
	for i := range pairs {
		p := pattern.NewPair(len(c.Inputs()))
		for j := range p.V1 {
			p.V1[j] = vals[rng.Intn(len(vals))]
			p.V2[j] = vals[rng.Intn(len(vals))]
		}
		pairs[i] = p
	}
	return pairs
}

// randomCircuit synthesizes a small circuit of random shape.
func randomCircuit(t *testing.T, rng *rand.Rand, i int) *circuit.Circuit {
	t.Helper()
	c, err := bench.Synthesize(bench.Profile{
		Name:              fmt.Sprintf("rand%d", i),
		Inputs:            4 + rng.Intn(16),
		Outputs:           1 + rng.Intn(6),
		Gates:             12 + rng.Intn(150),
		Depth:             3 + rng.Intn(14),
		Seed:              rng.Int63(),
		InputFaninBias:    0.1 + 0.6*rng.Float64(),
		WideFaninFraction: 0.4 * rng.Float64(),
		InverterFraction:  0.4 * rng.Float64(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// checkBatch compares the simulator's current batch against the eager
// reference: robust and nonrobust Detects of every fault and every prefix
// of its path, then the Value of every net in a random order.  detectsFirst
// decides which of the two starts the cone walks, so nets are reached from
// path nets in one batch and from arbitrary roots in the next.
//
// It returns how many whole paths the batch detects robustly, so a caller
// can tell the comparison was not all zero masks.
func checkBatch(t *testing.T, sim *Simulator, pairs []pattern.Pair, faults []paths.Fault, rng *rand.Rand, detectsFirst bool, label string) (detected int) {
	t.Helper()
	c := sim.c
	ref := eagerSim(t, c, pairs)
	if sim.BatchMask() != ref.BatchMask() {
		t.Fatalf("%s: batch mask %#x, want %#x", label, sim.BatchMask(), ref.BatchMask())
	}
	detects := func() {
		for _, f := range faults {
			for k := 1; k <= len(f.Path.Nets); k++ {
				prefix := paths.Fault{Path: paths.Path{Nets: f.Path.Nets[:k]}, Transition: f.Transition}
				for _, robust := range []bool{false, true} {
					got, want := sim.Detects(prefix, robust), ref.Detects(prefix, robust)
					if got != want {
						t.Fatalf("%s: %s (first %d nets), robust=%v: Detects %#x, eager %#x",
							label, f.Describe(c), k, robust, got, want)
					}
					if robust && got != 0 && k == len(f.Path.Nets) {
						detected++
					}
				}
			}
		}
	}
	values := func() {
		for _, id := range rng.Perm(c.NumNets()) {
			net := circuit.NetID(id)
			if got, want := sim.Value(net), ref.vals[net]; got != want {
				t.Fatalf("%s: net %s = %+v, eager %+v", label, c.NetName(net), got, want)
			}
		}
	}
	if detectsFirst {
		detects()
		values()
	} else {
		values()
		detects()
	}
	return detected
}

// TestLazyMatchesEager is the differential test of the demand-driven
// evaluation: on fixed and random circuits, with pairs holding X, one
// simulator is loaded with full and partial batches back to back (so every
// batch must invalidate the memo of the one before), and every net's value
// and every detection mask must equal the eager topological sweep's.
func TestLazyMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(1995))
	circuits := []*circuit.Circuit{
		bench.C17(), bench.PaperExample(), bench.ParityTree(8), bench.MuxTree(3), bench.Comparator(4),
	}
	for i := 0; i < 16; i++ {
		circuits = append(circuits, randomCircuit(t, rng, i))
	}
	detected := 0
	for _, c := range circuits {
		faults := paths.SampleFaults(c, 60, 7)
		sim := New(c)
		for b, n := range []int{BatchSize, 1, 17, BatchSize, 63, 2, BatchSize} {
			pairs := randomXPairs(c, n, rng)
			if got, err := sim.Load(pairs); err != nil || got != n {
				t.Fatalf("%s: Load of %d pairs = %d, %v", c.Name, n, got, err)
			}
			detected += checkBatch(t, sim, pairs, faults, rng, b%2 == 0, fmt.Sprintf("%s batch %d (%d pairs)", c.Name, b, n))
		}
	}
	t.Logf("%d whole-path robust detections compared", detected)
	if detected < 100 {
		t.Errorf("only %d whole-path robust detections compared; the differential check is nearly vacuous", detected)
	}
}

// TestEpochWraparound drives the batch counter across its wrap.  Nets
// evaluated in the batch with epoch 1 and not read again until the counter
// comes back to 1 must not pass for evaluated: Load clears the stamps on
// the wrap.
func TestEpochWraparound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := randomCircuit(t, rng, 0)
	faults := paths.SampleFaults(c, 40, 11)
	sim := New(c)

	first := randomXPairs(c, BatchSize, rng)
	if _, err := sim.Load(first); err != nil {
		t.Fatal(err)
	}
	if sim.epoch != 1 {
		t.Fatalf("first batch has epoch %d, want 1", sim.epoch)
	}
	checkBatch(t, sim, first, faults, rng, true, "epoch 1") // every net stamped 1

	// Skip to the last epoch before the wrap, and evaluate one output's
	// cone only: every other net keeps the stamp 1.
	sim.epoch = math.MaxUint32 - 1
	last := randomXPairs(c, BatchSize, rng)
	if _, err := sim.Load(last); err != nil {
		t.Fatal(err)
	}
	if sim.epoch != math.MaxUint32 {
		t.Fatalf("epoch %d, want %d", sim.epoch, uint32(math.MaxUint32))
	}
	out := c.Outputs()[0]
	if got, want := sim.Value(out), eagerValues(c, last)[out]; got != want {
		t.Fatalf("epoch max: output %s = %+v, eager %+v", c.NetName(out), got, want)
	}

	wrapped := randomXPairs(c, 33, rng)
	if _, err := sim.Load(wrapped); err != nil {
		t.Fatal(err)
	}
	if sim.epoch != 1 {
		t.Fatalf("epoch after the wrap is %d, want 1", sim.epoch)
	}
	checkBatch(t, sim, wrapped, faults, rng, false, "after the wrap")
}
