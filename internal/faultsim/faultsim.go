// Package faultsim implements parallel-pattern path delay fault simulation.
//
// Up to 64 two-vector tests are simulated simultaneously: bit level i of
// every value word corresponds to test pair i of the batch, mirroring the
// parallel-pattern fault simulators the paper builds on.  Each primary input
// is driven with the seven-valued value describing its behaviour across the
// two vectors (stable, rising, falling, or final-only when the first vector
// leaves it unspecified), and every fault's detection condition is checked
// along its path with word-wide mask operations.
//
// Evaluation is demand-driven: loading a batch evaluates nothing, and a net's
// value word is computed the first time a detection check (or Value) reads
// it, by walking the net's fanin cone down to the inputs it reaches.  Each
// net is evaluated at most once per batch, so a caller checking many faults
// pays at most one full-circuit sweep per batch, while a caller checking a
// handful (a claim-time sweep, the verification of a fresh pattern) pays
// only for the cones those faults read; most such checks stop at the launch
// transition on the path input.
package faultsim

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/paths"
	"repro/internal/pattern"
)

// Simulator evaluates batches of up to 64 test pairs against path delay
// faults.  A Simulator is bound to one circuit and reused across batches.
type Simulator struct {
	c *circuit.Circuit
	// inputPos[net] is the net's position in c.Inputs(), or -1.
	inputPos []int32

	// pairs is the current batch as passed to Load (not copied).
	pairs []pattern.Pair

	// vals[net] is the net's value word for the current batch when
	// stamp[net] == epoch; Load bumps epoch, which invalidates every net at
	// once.
	vals  []logic.Word7
	stamp []uint32
	epoch uint32

	// stack is the cone walk's work list and faninBuf the gate-evaluation
	// scratch, both kept here so evaluation does not allocate per call.
	stack    []circuit.NetID
	faninBuf []logic.Word7
}

// New returns a simulator for the circuit.
func New(c *circuit.Circuit) *Simulator {
	// A cone walk expands each gate at most once, pushing at most its
	// fanins, so one slot per fanin edge plus the root bounds the stack.
	edges := 0
	for _, g := range c.Gates() {
		edges += len(g.Fanin)
	}
	s := &Simulator{
		c:        c,
		inputPos: make([]int32, c.NumNets()),
		vals:     make([]logic.Word7, c.NumNets()),
		stamp:    make([]uint32, c.NumNets()),
		stack:    make([]circuit.NetID, 0, edges+1),
		faninBuf: make([]logic.Word7, 0, 8),
	}
	for i := range s.inputPos {
		s.inputPos[i] = -1
	}
	for i, in := range c.Inputs() {
		s.inputPos[in] = int32(i)
	}
	return s
}

// BatchSize is the maximum number of test pairs per batch.
const BatchSize = logic.WordWidth

// Load makes up to BatchSize test pairs the current batch and returns the
// number of pairs loaded.  Pairs beyond BatchSize are ignored (call Load
// again with the remainder).  Each pair must have one value per primary
// input of the circuit; on an error the previous batch stays loaded.
//
// Load only records the batch: nets are evaluated when Detects or Value
// reads them.  The simulator therefore keeps a reference to pairs until the
// next Load, and the caller must not modify them in the meantime.
//
//atpgvet:noalloc
func (s *Simulator) Load(pairs []pattern.Pair) (int, error) {
	n := len(pairs)
	if n > BatchSize {
		n = BatchSize
	}
	inputs := len(s.c.Inputs())
	for j := 0; j < n; j++ {
		if pairs[j].Len() != inputs {
			//atpgvet:ignore hotalloc -- error path: a malformed batch is rejected once, never in the steady state
			return 0, fmt.Errorf("faultsim: pair %d has %d values for %d inputs", j, pairs[j].Len(), inputs)
		}
	}
	s.pairs = pairs[:n]
	s.epoch++
	if s.epoch == 0 {
		// The counter wrapped: clear the stamps so that none written under
		// an earlier use of an epoch number can match again.
		clear(s.stamp)
		s.epoch = 1
	}
	return n, nil
}

// Value returns the simulated value word of a net for the current batch,
// evaluating the net's fanin cone first if the batch has not reached it.
func (s *Simulator) Value(net circuit.NetID) logic.Word7 {
	if s.stamp[net] != s.epoch {
		s.eval(net)
	}
	return s.vals[net]
}

// eval computes the value word of root and of every net of its fanin cone
// not yet evaluated in this batch.  The walk is an explicit depth-first
// stack: a gate stays on the stack until all its fanins are stamped, and an
// input is packed from the batch's pairs when the walk reaches it.
func (s *Simulator) eval(root circuit.NetID) {
	s.stack = s.stack[:0]
	s.stack = append(s.stack, root)
	for len(s.stack) > 0 {
		id := s.stack[len(s.stack)-1]
		if s.stamp[id] == s.epoch {
			// Pushed twice (a fanin of two gates on the stack) and already
			// evaluated through the other gate.
			s.stack = s.stack[:len(s.stack)-1]
			continue
		}
		if pos := s.inputPos[id]; pos >= 0 {
			s.vals[id] = s.packInput(int(pos))
		} else {
			g := s.c.Gate(id)
			pending := false
			for _, f := range g.Fanin {
				if s.stamp[f] != s.epoch {
					s.stack = append(s.stack, f)
					pending = true
				}
			}
			if pending {
				continue
			}
			s.faninBuf = s.faninBuf[:0]
			for _, f := range g.Fanin {
				s.faninBuf = append(s.faninBuf, s.vals[f])
			}
			s.vals[id] = logic.EvalGate7(g.Kind, s.faninBuf)
		}
		s.stamp[id] = s.epoch
		s.stack = s.stack[:len(s.stack)-1]
	}
}

// packInput returns the value word of primary input pos across the batch:
// the branch-free form of MergeAt(j, pairs[j].Value7(pos)) for every pair
// j.  The second vector's value sets the final-value planes, and the two
// vectors together set a stability plane when both are assigned.
func (s *Simulator) packInput(pos int) logic.Word7 {
	var w logic.Word7
	for j := range s.pairs {
		z1, o1 := valueBits(s.pairs[j].V1[pos])
		z2, o2 := valueBits(s.pairs[j].V2[pos])
		w.Zero |= z2 << j
		w.One |= o2 << j
		w.Stable |= (z1&z2 | o1&o2) << j
		w.Instable |= (z1&o2 | o1&z2) << j
	}
	return w
}

// valueBits returns 1 in zero for logic 0 and 1 in one for logic 1; X and
// the conflict encoding set neither, as they load as unassigned.
func valueBits(v logic.Value3) (zero, one uint64) {
	b0, b1 := uint64(v&1), uint64(v>>1&1)
	return b0 &^ b1, b1 &^ b0
}

// BatchMask returns the mask of bit levels occupied by the current batch.
func (s *Simulator) BatchMask() uint64 { return logic.LevelMask(len(s.pairs)) }

// Detects returns the mask of test pairs of the current batch that detect
// the fault, robustly when robust is true and nonrobustly otherwise.
//
// A pair detects the fault nonrobustly when it launches the fault's
// transition at the path input and every off-path input of every on-path
// gate holds the gate's non-controlling value in the final vector (off-path
// inputs of XOR-type gates must be stable).  For robust detection the
// off-path inputs must additionally be stable at the non-controlling value
// whenever the on-path input of their gate changes towards the controlling
// value, and the simulated on-path signals must carry the expected
// transitions.
//
// The expected transition is carried along the path and inverted at every
// inverting gate (the convention of paths.Fault.Transitions), so a call
// allocates nothing.
//
//atpgvet:noalloc
func (s *Simulator) Detects(f paths.Fault, robust bool) uint64 {
	mask := s.BatchMask()
	nets := f.Path.Nets
	trans := f.Transition

	// The launch transition must be present at the path input.
	mask &= s.transitionMask(nets[0], trans)
	if mask == 0 {
		return 0
	}

	for i := 1; i < len(nets) && mask != 0; i++ {
		g := s.c.Gate(nets[i])
		onPath := nets[i-1]
		// in is the transition arriving on the on-path input of gate i.
		in := trans
		if g.Kind.Inverting() {
			trans = trans.Invert()
		}
		if robust {
			// The transition must propagate along the path.
			mask &= s.transitionMask(nets[i], trans)
			if mask == 0 {
				return 0
			}
		}
		if len(g.Fanin) < 2 {
			continue
		}
		seenOnPath := false
		for _, fanin := range g.Fanin {
			if fanin == onPath && !seenOnPath {
				seenOnPath = true
				continue
			}
			mask &= s.sideInputMask(g.Kind, fanin, in, robust)
			if mask == 0 {
				return 0
			}
		}
	}
	return mask
}

// transitionMask returns the pairs on which net carries exactly the given
// transition.
func (s *Simulator) transitionMask(net circuit.NetID, t paths.Transition) uint64 {
	v := s.Value(net)
	if t == paths.Rising {
		return v.One & v.Instable
	}
	return v.Zero & v.Instable
}

// sideInputMask returns the pairs on which the off-path input satisfies the
// propagation condition of the gate kind for the given on-path transition.
func (s *Simulator) sideInputMask(kind logic.Kind, side circuit.NetID, onPath paths.Transition, robust bool) uint64 {
	v := s.Value(side)
	switch kind {
	case logic.And, logic.Nand, logic.Or, logic.Nor:
		ctrl, _ := kind.Controlling()
		nonCtrlPlane := v.One
		if nc, _ := kind.NonControlling(); nc == logic.Zero3 {
			nonCtrlPlane = v.Zero
		}
		if robust && onPath.FinalValue3() == ctrl {
			// Change towards the controlling value: the side input must be
			// steady at the non-controlling value.
			return nonCtrlPlane & v.Stable
		}
		return nonCtrlPlane
	case logic.Xor, logic.Xnor:
		// No controlling value: the side input must not change.
		return v.Stable
	}
	// BUF/NOT have no side inputs; anything else cannot be on a path.
	return s.BatchMask()
}

// Result summarises a fault-simulation run.
type Result struct {
	// Detected[i] is true when fault i of the fault list is detected by at
	// least one pair.
	Detected []bool
	// DetectedBy[i] is the index of the first detecting pair, or -1.
	DetectedBy []int
	// NumDetected counts the detected faults.
	NumDetected int
}

// Run simulates all pairs (in batches of BatchSize) against all faults and
// reports which faults are detected.
func Run(c *circuit.Circuit, pairs []pattern.Pair, faults []paths.Fault, robust bool) (Result, error) {
	res := Result{
		Detected:   make([]bool, len(faults)),
		DetectedBy: make([]int, len(faults)),
	}
	for i := range res.DetectedBy {
		res.DetectedBy[i] = -1
	}
	sim := New(c)
	for base := 0; base < len(pairs); base += BatchSize {
		end := base + BatchSize
		if end > len(pairs) {
			end = len(pairs)
		}
		if _, err := sim.Load(pairs[base:end]); err != nil {
			return Result{}, err
		}
		for fi := range faults {
			if res.Detected[fi] {
				continue
			}
			if mask := sim.Detects(faults[fi], robust); mask != 0 {
				res.Detected[fi] = true
				res.DetectedBy[fi] = base + bits.TrailingZeros64(mask)
				res.NumDetected++
			}
		}
	}
	return res, nil
}

// RunParallel is Run sharded across workers goroutines: the fault list is
// split into contiguous near-even shards and each worker simulates all pairs
// against its shard with its own Simulator over the shared immutable
// circuit.  The result is identical to Run (per-fault detection is
// independent, and each fault still scans the pair batches in order, so
// DetectedBy stays the index of the first detecting pair).  workers <= 1
// falls back to the sequential Run.
func RunParallel(c *circuit.Circuit, pairs []pattern.Pair, faults []paths.Fault, robust bool, workers int) (Result, error) {
	if workers > len(faults) {
		workers = len(faults)
	}
	if workers <= 1 {
		return Run(c, pairs, faults, robust)
	}
	res := Result{
		Detected:   make([]bool, len(faults)),
		DetectedBy: make([]int, len(faults)),
	}
	per, extra := len(faults)/workers, len(faults)%workers
	var wg sync.WaitGroup
	errs := make([]error, workers)
	detected := make([]int, workers)
	lo := 0
	for w := 0; w < workers; w++ {
		hi := lo + per
		if w < extra {
			hi++
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			shard, err := Run(c, pairs, faults[lo:hi], robust)
			if err != nil {
				errs[w] = err
				return
			}
			copy(res.Detected[lo:hi], shard.Detected)
			copy(res.DetectedBy[lo:hi], shard.DetectedBy)
			detected[w] = shard.NumDetected
		}(w, lo, hi)
		lo = hi
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			return Result{}, errs[w]
		}
		res.NumDetected += detected[w]
	}
	return res, nil
}

// Coverage returns the fraction of the given faults detected by the pairs.
func Coverage(c *circuit.Circuit, pairs []pattern.Pair, faults []paths.Fault, robust bool) (float64, error) {
	if len(faults) == 0 {
		return 0, nil
	}
	res, err := Run(c, pairs, faults, robust)
	if err != nil {
		return 0, err
	}
	return float64(res.NumDetected) / float64(len(faults)), nil
}

// EstimateCoverage estimates the path delay fault coverage of a test set by
// simulating a uniform sample of sampleSize faults (in the spirit of
// non-enumerative coverage estimators such as NEST).  It returns the
// estimated coverage and the number of sampled faults actually simulated.
func EstimateCoverage(c *circuit.Circuit, pairs []pattern.Pair, sampleSize int, seed int64, robust bool) (float64, int, error) {
	faults := paths.SampleFaults(c, sampleSize, seed)
	if len(faults) == 0 {
		return 0, 0, nil
	}
	cov, err := Coverage(c, pairs, faults, robust)
	return cov, len(faults), err
}
