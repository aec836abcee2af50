package faultsim

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/paths"
	"repro/internal/pattern"
)

// pairFor builds a test pair for the circuit from a map of input name to
// (v1, v2) values.
func pairFor(c *circuit.Circuit, vals map[string][2]logic.Value3) pattern.Pair {
	p := pattern.NewPair(len(c.Inputs()))
	for i, in := range c.Inputs() {
		if v, ok := vals[c.NetName(in)]; ok {
			p.V1[i], p.V2[i] = v[0], v[1]
		}
	}
	return p
}

func pathByNames(t *testing.T, c *circuit.Circuit, names ...string) paths.Path {
	t.Helper()
	nets := make([]circuit.NetID, len(names))
	for i, n := range names {
		nets[i] = c.NetByName(n)
	}
	p := paths.Path{Nets: nets}
	if err := p.Validate(c); err != nil {
		t.Fatalf("invalid path %v: %v", names, err)
	}
	return p
}

const (
	lo = iota
	hi
)

func v(a, b int) [2]logic.Value3 {
	conv := func(x int) logic.Value3 {
		if x == hi {
			return logic.One3
		}
		return logic.Zero3
	}
	return [2]logic.Value3{conv(a), conv(b)}
}

func TestDetectsC17HandChecked(t *testing.T) {
	c := bench.C17()
	sim := New(c)
	// Target path 3 - 11 - 16 - 22, rising at 3.
	// Side conditions: 6 = 1 (final), 2 = stable 1, 10 = 1 (final).
	// 10 = NAND(1,3): with 3 rising, 10 ends at NAND(1,1): choose 1 = 0 so
	// that 10 = 1 in the final vector.
	fault := paths.Fault{Path: pathByNames(t, c, "3", "11", "16", "22"), Transition: paths.Rising}
	good := pairFor(c, map[string][2]logic.Value3{
		"1": v(lo, lo), "2": v(hi, hi), "3": v(lo, hi), "6": v(hi, hi), "7": v(lo, lo),
	})
	if _, err := sim.Load([]pattern.Pair{good}); err != nil {
		t.Fatal(err)
	}
	if mask := sim.Detects(fault, true); mask != 1 {
		t.Errorf("good pair should robustly detect the fault, mask = %b", mask)
	}
	if mask := sim.Detects(fault, false); mask != 1 {
		t.Errorf("good pair should nonrobustly detect the fault, mask = %b", mask)
	}

	// Without the launch transition (3 held stable) nothing is detected.
	noLaunch := pairFor(c, map[string][2]logic.Value3{
		"1": v(lo, lo), "2": v(hi, hi), "3": v(hi, hi), "6": v(hi, hi), "7": v(lo, lo),
	})
	if _, err := sim.Load([]pattern.Pair{noLaunch}); err != nil {
		t.Fatal(err)
	}
	if mask := sim.Detects(fault, false); mask != 0 {
		t.Errorf("pair without a launch transition must not detect, mask = %b", mask)
	}

	// Side input 2 falling (1 -> 0 would block; use 0 -> 1 rising): gate 16
	// sees its side input change, which breaks the robust condition for the
	// falling on-path transition at 11, but the nonrobust condition (final
	// value 1) still holds.
	hazard := pairFor(c, map[string][2]logic.Value3{
		"1": v(lo, lo), "2": v(lo, hi), "3": v(lo, hi), "6": v(hi, hi), "7": v(lo, lo),
	})
	if _, err := sim.Load([]pattern.Pair{hazard}); err != nil {
		t.Fatal(err)
	}
	if mask := sim.Detects(fault, true); mask != 0 {
		t.Errorf("changing side input 2 must break robust detection, mask = %b", mask)
	}
	if mask := sim.Detects(fault, false); mask != 1 {
		t.Errorf("nonrobust detection should survive a changing side input, mask = %b", mask)
	}

	// Wrong final value on a side input kills even nonrobust detection.
	blocked := pairFor(c, map[string][2]logic.Value3{
		"1": v(lo, lo), "2": v(lo, lo), "3": v(lo, hi), "6": v(hi, hi), "7": v(lo, lo),
	})
	if _, err := sim.Load([]pattern.Pair{blocked}); err != nil {
		t.Fatal(err)
	}
	if mask := sim.Detects(fault, false); mask != 0 {
		t.Errorf("controlling side value must block detection, mask = %b", mask)
	}
}

func TestDetectsBatchParallel(t *testing.T) {
	c := bench.C17()
	fault := paths.Fault{Path: pathByNames(t, c, "3", "11", "16", "22"), Transition: paths.Rising}
	good := pairFor(c, map[string][2]logic.Value3{
		"1": v(lo, lo), "2": v(hi, hi), "3": v(lo, hi), "6": v(hi, hi), "7": v(lo, lo),
	})
	bad := pairFor(c, map[string][2]logic.Value3{
		"1": v(lo, lo), "2": v(lo, lo), "3": v(lo, hi), "6": v(hi, hi), "7": v(lo, lo),
	})
	sim := New(c)
	n, err := sim.Load([]pattern.Pair{bad, good, bad, good})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("loaded %d pairs", n)
	}
	if mask := sim.Detects(fault, true); mask != 0b1010 {
		t.Errorf("detection mask = %04b, want 1010", mask)
	}
	if sim.BatchMask() != 0b1111 {
		t.Errorf("batch mask = %b", sim.BatchMask())
	}
}

// TestRobustImpliesNonrobust is the fundamental containment property of the
// two test classes: any robustly detected (fault, pair) combination is also
// nonrobustly detected.
func TestRobustImpliesNonrobust(t *testing.T) {
	circuits := []*circuit.Circuit{bench.C17(), bench.PaperExample(), bench.Adder(4), bench.MuxTree(2)}
	for _, c := range circuits {
		faults := paths.EnumerateFaults(c, 200)
		pairs := randomPairs(c, 64, 12345)
		sim := New(c)
		if _, err := sim.Load(pairs); err != nil {
			t.Fatal(err)
		}
		for _, f := range faults {
			rob := sim.Detects(f, true)
			non := sim.Detects(f, false)
			if rob&^non != 0 {
				t.Fatalf("%s: fault %s robustly detected on pairs %b but not nonrobustly (%b)",
					c.Name, f.Describe(c), rob, non)
			}
		}
	}
}

func randomPairs(c *circuit.Circuit, n int, seed int64) []pattern.Pair {
	// Simple deterministic pseudo-random vectors (xorshift) — enough for
	// property tests without importing math/rand here.
	state := uint64(seed)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	pairs := make([]pattern.Pair, n)
	for i := range pairs {
		p := pattern.NewPair(len(c.Inputs()))
		for j := range p.V1 {
			if next()&1 == 1 {
				p.V1[j] = logic.One3
			} else {
				p.V1[j] = logic.Zero3
			}
			if next()&1 == 1 {
				p.V2[j] = logic.One3
			} else {
				p.V2[j] = logic.Zero3
			}
		}
		pairs[i] = p
	}
	return pairs
}

func TestRunAndCoverage(t *testing.T) {
	c := bench.C17()
	faults := paths.EnumerateFaults(c, 0)
	if len(faults) != 22 {
		t.Fatalf("c17 should have 22 faults, got %d", len(faults))
	}
	pairs := randomPairs(c, 128, 999)
	res, err := Run(c, pairs, faults, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumDetected == 0 {
		t.Error("128 random pairs should detect at least one fault of c17")
	}
	count := 0
	for i, d := range res.Detected {
		if d {
			count++
			if res.DetectedBy[i] < 0 || res.DetectedBy[i] >= len(pairs) {
				t.Errorf("DetectedBy[%d] = %d out of range", i, res.DetectedBy[i])
			}
		} else if res.DetectedBy[i] != -1 {
			t.Errorf("undetected fault %d has DetectedBy %d", i, res.DetectedBy[i])
		}
	}
	if count != res.NumDetected {
		t.Errorf("NumDetected %d != counted %d", res.NumDetected, count)
	}
	cov, err := Coverage(c, pairs, faults, false)
	if err != nil {
		t.Fatal(err)
	}
	if cov != float64(res.NumDetected)/22 {
		t.Errorf("coverage %v inconsistent with %d/22", cov, res.NumDetected)
	}
	covR, err := Coverage(c, pairs, faults, true)
	if err != nil {
		t.Fatal(err)
	}
	if covR > cov {
		t.Errorf("robust coverage %v cannot exceed nonrobust coverage %v", covR, cov)
	}
	// Empty fault list yields zero coverage without error.
	if z, err := Coverage(c, pairs, nil, false); err != nil || z != 0 {
		t.Errorf("Coverage with no faults = %v, %v", z, err)
	}
}

func TestEstimateCoverage(t *testing.T) {
	c := bench.Adder(6)
	pairs := randomPairs(c, 256, 4242)
	est, n, err := EstimateCoverage(c, pairs, 100, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no faults sampled")
	}
	if est < 0 || est > 1 {
		t.Errorf("estimate %v out of range", est)
	}
	// The estimate should not be wildly off the exhaustive value for this
	// small circuit.
	exact, err := Coverage(c, pairs, paths.EnumerateFaults(c, 0), false)
	if err != nil {
		t.Fatal(err)
	}
	if est == 0 && exact > 0.3 {
		t.Errorf("estimate 0 but exact coverage %v", exact)
	}
}

func TestLoadErrors(t *testing.T) {
	c := bench.C17()
	sim := New(c)
	bad := pattern.NewPair(3)
	if _, err := sim.Load([]pattern.Pair{bad}); err == nil {
		t.Error("loading a pair with the wrong arity should fail")
	}
	// More than BatchSize pairs: only the first BatchSize are loaded.
	many := make([]pattern.Pair, BatchSize+10)
	for i := range many {
		many[i] = pattern.NewPair(len(c.Inputs())).FillX(logic.Zero3)
	}
	n, err := sim.Load(many)
	if err != nil {
		t.Fatal(err)
	}
	if n != BatchSize {
		t.Errorf("loaded %d pairs, want %d", n, BatchSize)
	}

	// A rejected batch touches nothing: the batch loaded before it, partly
	// evaluated, stays readable.
	rng := rand.New(rand.NewSource(3))
	c = randomCircuit(t, rng, 0)
	faults := paths.SampleFaults(c, 40, 3)
	sim = New(c)
	pairs := randomXPairs(c, BatchSize, rng)
	if _, err := sim.Load(pairs); err != nil {
		t.Fatal(err)
	}
	sim.Detects(faults[0], true)
	if _, err := sim.Load(append(randomXPairs(c, 3, rng), pattern.NewPair(len(c.Inputs())+1))); err == nil {
		t.Fatal("loading a pair with the wrong arity should fail")
	}
	checkBatch(t, sim, pairs, faults, rng, true, c.Name+" after a rejected Load")
}

func BenchmarkFaultSimC880Class(b *testing.B) {
	p, _ := bench.ProfileByName("c880")
	c := bench.MustSynthesize(p)
	faults := paths.SampleFaults(c, 500, 3)
	pairs := randomPairs(c, 64, 17)
	sim := New(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Load(pairs); err != nil {
			b.Fatal(err)
		}
		for _, f := range faults {
			sim.Detects(f, true)
		}
	}
}

// BenchmarkClaimSweepC880Class is the claim-time sweep in the shape of the
// service's escalation first pass: one-fault units, each checked against a
// 640-pair pattern history one batch at a time.  One op claims 100 units.
func BenchmarkClaimSweepC880Class(b *testing.B) {
	p, _ := bench.ProfileByName("c880")
	c := bench.MustSynthesize(p)
	faults := paths.SampleFaults(c, 100, 3)
	history := randomPairs(c, 10*BatchSize, 17)
	sim := New(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range faults {
			for base := 0; base < len(history); base += BatchSize {
				if _, err := sim.Load(history[base : base+BatchSize]); err != nil {
					b.Fatal(err)
				}
				sim.Detects(f, true)
			}
		}
	}
}

func TestRunParallelMatchesRun(t *testing.T) {
	c, err := bench.Get("adder8")
	if err != nil {
		t.Fatal(err)
	}
	faults := paths.EnumerateFaults(c, 0)
	pairs := randomPairs(c, 100, 7)
	for _, robust := range []bool{false, true} {
		want, err := Run(c, pairs, faults, robust)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 16, 1000} {
			got, err := RunParallel(c, pairs, faults, robust, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got.NumDetected != want.NumDetected {
				t.Errorf("workers=%d robust=%v: NumDetected %d, want %d",
					workers, robust, got.NumDetected, want.NumDetected)
			}
			for i := range faults {
				if got.Detected[i] != want.Detected[i] || got.DetectedBy[i] != want.DetectedBy[i] {
					t.Errorf("workers=%d robust=%v fault %d: (%v, %d), want (%v, %d)",
						workers, robust, i, got.Detected[i], got.DetectedBy[i],
						want.Detected[i], want.DetectedBy[i])
				}
			}
		}
	}
	// A pair/input mismatch must surface from the workers, not be swallowed.
	bad := []pattern.Pair{pattern.NewPair(1)}
	if _, err := RunParallel(c, bad, faults, false, 4); err == nil {
		t.Error("RunParallel with malformed pairs: expected an error")
	}
}

// referenceDetects is Detects built on the materialized transition list of
// paths.Fault.Transitions, the form the simulator used before it carried the
// transition along the path itself.
func referenceDetects(s *Simulator, f paths.Fault, robust bool) uint64 {
	mask := s.BatchMask()
	nets := f.Path.Nets
	trans := f.Transitions(s.c)
	mask &= s.transitionMask(nets[0], trans[0])
	for i := 1; i < len(nets) && mask != 0; i++ {
		g := s.c.Gate(nets[i])
		if robust {
			mask &= s.transitionMask(nets[i], trans[i])
		}
		seenOnPath := false
		for _, fanin := range g.Fanin {
			if fanin == nets[i-1] && !seenOnPath {
				seenOnPath = true
				continue
			}
			mask &= s.sideInputMask(g.Kind, fanin, trans[i-1], robust)
		}
	}
	return mask
}

// TestDetectsMatchesTransitionsReference checks Detects against the
// reference on every fault of c17 and adder8 and on a sample of a
// synthesized c880, robust and nonrobust.  Random pairs rarely sensitize a
// whole long path, so every prefix of every path is checked as a fault of
// its own: each on-path gate then meets pairs that do reach it, and the
// inversion at NAND, NOR, NOT and XNOR gates is exercised by masks that are
// not zero.
func TestDetectsMatchesTransitionsReference(t *testing.T) {
	p, _ := bench.ProfileByName("c880")
	c880 := bench.MustSynthesize(p)
	for _, tc := range []struct {
		c      *circuit.Circuit
		faults []paths.Fault
	}{
		{bench.C17(), paths.EnumerateFaults(bench.C17(), 0)},
		{bench.Adder(8), paths.EnumerateFaults(bench.Adder(8), 0)},
		{c880, paths.SampleFaults(c880, 400, 5)},
	} {
		c := tc.c
		sim := New(c)
		// Kinds of the on-path gates that a detecting mask has passed.
		reached := map[logic.Kind]int{}
		for batch := int64(0); batch < 4; batch++ {
			if _, err := sim.Load(randomPairs(c, BatchSize, 31+batch)); err != nil {
				t.Fatal(err)
			}
			for _, f := range tc.faults {
				for k := 1; k <= len(f.Path.Nets); k++ {
					prefix := paths.Fault{Path: paths.Path{Nets: f.Path.Nets[:k]}, Transition: f.Transition}
					for _, robust := range []bool{false, true} {
						got, want := sim.Detects(prefix, robust), referenceDetects(sim, prefix, robust)
						if got != want {
							t.Fatalf("%s: %s (first %d nets), robust=%v: Detects %#x, reference %#x",
								c.Name, f.Describe(c), k, robust, got, want)
						}
						if got != 0 && k > 1 {
							reached[c.Gate(f.Path.Nets[k-1]).Kind]++
						}
					}
				}
			}
		}
		if c == c880 {
			for _, kind := range []logic.Kind{logic.Nand, logic.Nor, logic.Not, logic.Xnor} {
				if reached[kind] == 0 {
					t.Errorf("%s: no detecting mask passed a %v gate; the check is vacuous there", c.Name, kind)
				}
			}
		}
	}
}

// TestDetectsDoesNotAllocate pins Load and Detects at zero allocations in
// the steady state of every claim sweep and compaction pass: Load a batch,
// then Detects starting the cone walks that evaluate it, batch after batch.
func TestDetectsDoesNotAllocate(t *testing.T) {
	p, _ := bench.ProfileByName("c880")
	c := bench.MustSynthesize(p)
	faults := paths.SampleFaults(c, 200, 3)
	history := randomPairs(c, 4*BatchSize, 17)
	sim := New(c)
	allocs := testing.AllocsPerRun(20, func() {
		for base := 0; base < len(history); base += BatchSize {
			if _, err := sim.Load(history[base : base+BatchSize]); err != nil {
				t.Fatal(err)
			}
			for _, f := range faults {
				sim.Detects(f, true)
				sim.Detects(f, false)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("Load+Detects: %v allocs per sweep of %d batches and %d faults, want 0", allocs, len(history)/BatchSize, len(faults))
	}
}
