package logic

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLevelMask(t *testing.T) {
	if LevelMask(0) != 0 {
		t.Errorf("LevelMask(0) = %x", LevelMask(0))
	}
	if LevelMask(1) != 1 {
		t.Errorf("LevelMask(1) = %x", LevelMask(1))
	}
	if LevelMask(8) != 0xff {
		t.Errorf("LevelMask(8) = %x", LevelMask(8))
	}
	if LevelMask(64) != AllLevels {
		t.Errorf("LevelMask(64) = %x", LevelMask(64))
	}
	if LevelMask(100) != AllLevels {
		t.Errorf("LevelMask(100) = %x", LevelMask(100))
	}
	if LevelMask(-3) != 0 {
		t.Errorf("LevelMask(-3) = %x", LevelMask(-3))
	}
}

func TestWord7GetSet(t *testing.T) {
	var w Word7
	values := AllValues7()
	for i := 0; i < WordWidth; i++ {
		w.Set(i, values[i%len(values)])
	}
	for i := 0; i < WordWidth; i++ {
		if got := w.Get(i); got != values[i%len(values)] {
			t.Fatalf("level %d: got %v, want %v", i, got, values[i%len(values)])
		}
	}
	w.Set(9, Stable1)
	if w.Get(9) != Stable1 {
		t.Errorf("overwrite failed: %v", w.Get(9))
	}
	w.MergeAt(9, Fall7)
	if !w.Get(9).IsConflict() {
		t.Errorf("MergeAt of incompatible requirements should conflict, got %v", w.Get(9))
	}
}

func TestWord7FillAndMasks(t *testing.T) {
	w := FillWord7(Rise7)
	if w.One != AllLevels || w.Instable != AllLevels || w.Zero != 0 || w.Stable != 0 {
		t.Fatalf("FillWord7(Rise7) = %+v", w)
	}
	if w.ConflictMask() != 0 {
		t.Error("a filled legal value should not conflict")
	}
	if (FillWord7(X7) != Word7{}) {
		t.Error("the zero word should be X at every level")
	}
	c := FillWord7(Stable0 | Stable1)
	if c.ConflictMask() != AllLevels {
		t.Error("0/1 conflict should be flagged at every level")
	}
	c2 := FillWord7(Stable1 | Rise7)
	if c2.ConflictMask() != AllLevels {
		t.Error("stable/instable conflict should be flagged at every level")
	}
}

func TestWord7MergeCoversContradicts(t *testing.T) {
	var a, b Word7
	a.Set(0, Stable1)
	a.Set(1, Final0)
	a.Set(2, Rise7)
	b.Set(0, Final1)
	b.Set(1, Stable0)
	b.Set(2, Fall7)
	m := a.Merge(b)
	if m.Get(0) != Stable1 {
		t.Errorf("merge at level 0 = %v, want Stable1", m.Get(0))
	}
	if m.Get(1) != Stable0 {
		t.Errorf("merge at level 1 = %v, want Stable0", m.Get(1))
	}
	if !m.Get(2).IsConflict() {
		t.Errorf("merge at level 2 = %v, want conflict", m.Get(2))
	}
	// The merge covers both requirements at every level, and conflicts
	// exactly where they contradict each other.
	for lvl := 0; lvl < 3; lvl++ {
		if !m.Get(lvl).Covers(a.Get(lvl)) || !m.Get(lvl).Covers(b.Get(lvl)) {
			t.Errorf("merge at level %d = %v does not cover %v and %v", lvl, m.Get(lvl), a.Get(lvl), b.Get(lvl))
		}
	}
	if m.ConflictMask()&LevelMask(3) != 0b100 {
		t.Errorf("ConflictMask of the merge = %03b, want 100", m.ConflictMask()&LevelMask(3))
	}
}

// TestWord7WeakenLift checks that the Zero/One planes of a Word7 are the
// Table 1 planes of its values weakened to three values, and that a word
// holding only those planes reads back as the lifted values.
func TestWord7WeakenLift(t *testing.T) {
	var w Word7
	w.Set(0, Stable1)
	w.Set(1, Fall7)
	w.Set(2, Final1)
	want := []Value3{One3, Zero3, One3, X3}
	for lvl, v3 := range want {
		if got := w.Get(lvl).Weaken3(); got != v3 {
			t.Errorf("level %d weakens to %v, want %v", lvl, got, v3)
		}
		if got := w.Zero>>uint(lvl)&1 != 0; got != v3.ZeroBit() {
			t.Errorf("level %d: Zero plane bit %v, Table 1 0-bit %v", lvl, got, v3.ZeroBit())
		}
		if got := w.One>>uint(lvl)&1 != 0; got != v3.OneBit() {
			t.Errorf("level %d: One plane bit %v, Table 1 1-bit %v", lvl, got, v3.OneBit())
		}
	}
	lift := Word7{Zero: w.Zero, One: w.One}
	for lvl, v3 := range want {
		if got := lift.Get(lvl); got != Value7From3(v3) {
			t.Errorf("lifted level %d = %v, want %v", lvl, got, Value7From3(v3))
		}
	}
}

func TestWord7InitialPlanes(t *testing.T) {
	var w Word7
	w.Set(0, Stable0) // initial 0
	w.Set(1, Stable1) // initial 1
	w.Set(2, Rise7)   // initial 0
	w.Set(3, Fall7)   // initial 1
	w.Set(4, Final0)  // initial unknown
	i0, i1 := w.InitialPlanes()
	if i0&LevelMask(5) != 0b00101 {
		t.Errorf("init0 plane = %05b", i0&LevelMask(5))
	}
	if i1&LevelMask(5) != 0b01010 {
		t.Errorf("init1 plane = %05b", i1&LevelMask(5))
	}
}

// TestWord7StringParseRoundTrip checks that StringN renders each level in the
// one-character notation, highest level first, so that reading the notation
// back level by level restores the word.
func TestWord7StringParseRoundTrip(t *testing.T) {
	chars := map[byte]Value7{
		'0': Final0, '1': Final1, 's': Stable0, 'S': Stable1,
		'f': Fall7, 'r': Rise7, 'x': X7, 'C': Stable0 | Stable1,
	}
	lits := []string{"0", "1", "s", "S", "f", "r", "x", "C", "sSfr01x", "rrrr"}
	for _, lit := range lits {
		var w Word7
		for idx := 0; idx < len(lit); idx++ {
			w.Set(len(lit)-1-idx, chars[lit[idx]])
		}
		if got := w.StringN(len(lit)); got != lit {
			t.Errorf("round trip of %q gave %q", lit, got)
		}
	}
	if got := (Word7{}).String(); got != strings.Repeat("x", WordWidth) {
		t.Errorf("String of the zero word = %q", got)
	}
}

// TestEvalGate7MatchesScalar cross-checks the bit-parallel seven-valued gate
// evaluation against the scalar reference at every bit level for random
// non-conflicting inputs.  This is the central correctness property of the
// Table 2 encoding.
func TestEvalGate7MatchesScalar(t *testing.T) {
	kinds := []Kind{Buf, Not, And, Nand, Or, Nor, Xor, Xnor}
	vals := AllValues7()
	rng := rand.New(rand.NewSource(1995))
	for iter := 0; iter < 200; iter++ {
		kind := kinds[rng.Intn(len(kinds))]
		n := 1
		if kind != Buf && kind != Not {
			n = 1 + rng.Intn(4)
		}
		in := make([]Word7, n)
		for i := range in {
			for lvl := 0; lvl < WordWidth; lvl++ {
				in[i].Set(lvl, vals[rng.Intn(len(vals))])
			}
		}
		out := EvalGate7(kind, in)
		for lvl := 0; lvl < WordWidth; lvl++ {
			scalarIn := make([]Value7, n)
			for i := range in {
				scalarIn[i] = in[i].Get(lvl)
			}
			want := Eval7(kind, scalarIn...)
			if got := out.Get(lvl); got != want {
				t.Fatalf("kind %v level %d: parallel %v, scalar %v (inputs %v)",
					kind, lvl, got, want, scalarIn)
			}
		}
	}
}

// TestEvalGate7SingleLevelProperty mirrors the 3-valued property test with
// testing/quick over single levels.
func TestEvalGate7SingleLevelProperty(t *testing.T) {
	kinds := []Kind{And, Nand, Or, Nor, Xor, Xnor}
	vals := AllValues7()
	f := func(kindIdx uint8, raw [3]uint8, level uint8) bool {
		kind := kinds[int(kindIdx)%len(kinds)]
		lvl := int(level) % WordWidth
		in := make([]Word7, len(raw))
		scalarIn := make([]Value7, len(raw))
		for i, r := range raw {
			v := vals[int(r)%len(vals)]
			scalarIn[i] = v
			in[i].Set(lvl, v)
		}
		out := EvalGate7(kind, in)
		return out.Get(lvl) == Eval7(kind, scalarIn...)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestEvalGate7WeakensToGate3 checks that the value planes of the
// seven-valued word evaluation are, at every level, the Table 1 encoding of
// the three-valued evaluation of the weakened inputs.
func TestEvalGate7WeakensToGate3(t *testing.T) {
	kinds := []Kind{And, Nand, Or, Nor, Xor, Xnor}
	vals := AllValues7()
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 100; iter++ {
		kind := kinds[rng.Intn(len(kinds))]
		n := 1 + rng.Intn(4)
		in7 := make([]Word7, n)
		for i := range in7 {
			for lvl := 0; lvl < WordWidth; lvl++ {
				in7[i].Set(lvl, vals[rng.Intn(len(vals))])
			}
		}
		out := EvalGate7(kind, in7)
		in3 := make([]Value3, n)
		for lvl := 0; lvl < WordWidth; lvl++ {
			for i := range in7 {
				in3[i] = in7[i].Get(lvl).Weaken3()
			}
			want := Eval3(kind, in3...)
			zero, one := out.Zero>>uint(lvl)&1 != 0, out.One>>uint(lvl)&1 != 0
			if zero != want.ZeroBit() || one != want.OneBit() {
				t.Fatalf("kind %v level %d: value planes (%v,%v), Eval3 %v (inputs %v)",
					kind, lvl, zero, one, want, in3)
			}
		}
	}
}

func TestEvalGate7Constants(t *testing.T) {
	if EvalGate7(Const0, nil) != FillWord7(Stable0) {
		t.Error("Const0 evaluation wrong")
	}
	if EvalGate7(Const1, nil) != FillWord7(Stable1) {
		t.Error("Const1 evaluation wrong")
	}
	if (EvalGate7(And, nil) != Word7{}) {
		t.Error("AND of no inputs should be X")
	}
	in := FillWord7(Rise7)
	if EvalGate7(Buf, []Word7{in}) != in {
		t.Error("BUF should copy its input")
	}
	if EvalGate7(Not, []Word7{in}) != FillWord7(Fall7) {
		t.Error("NOT should turn a rising transition into a falling one")
	}
}

func TestWord7SelectLevels(t *testing.T) {
	var w Word7
	w.Set(0, Rise7)
	w.Set(1, Stable0)
	sel := w.SelectLevels(1)
	if sel.Get(0) != Rise7 || sel.Get(1) != X7 {
		t.Errorf("SelectLevels(1) wrong: %s", sel.StringN(4))
	}
	if w.SelectLevels(AllLevels) != w {
		t.Error("selecting every level should keep the word")
	}
	if (w.SelectLevels(0) != Word7{}) {
		t.Error("selecting no level should give the all-X word")
	}
}

func BenchmarkTable2GateEval(b *testing.B) {
	// Evaluates a 4-input AND over all 64 bit levels in the seven-valued
	// logic: the elementary operation the paper's Table 2 encoding is
	// designed to make cheap.
	vals := AllValues7()
	in := make([]Word7, 4)
	rng := rand.New(rand.NewSource(7))
	for i := range in {
		for lvl := 0; lvl < WordWidth; lvl++ {
			in[i].Set(lvl, vals[rng.Intn(len(vals))])
		}
	}
	b.ResetTimer()
	var sink Word7
	for i := 0; i < b.N; i++ {
		sink = EvalGate7(And, in)
	}
	_ = sink
}

func BenchmarkSingleBitGateEval(b *testing.B) {
	// The scalar counterpart of BenchmarkTable2GateEval: evaluating the same
	// 64 levels one by one with the scalar reference.  The ratio of the two
	// benchmarks shows the raw word-level parallelism available to the TPG.
	vals := AllValues7()
	in := make([]Word7, 4)
	rng := rand.New(rand.NewSource(7))
	for i := range in {
		for lvl := 0; lvl < WordWidth; lvl++ {
			in[i].Set(lvl, vals[rng.Intn(len(vals))])
		}
	}
	scalar := make([][]Value7, WordWidth)
	for lvl := range scalar {
		scalar[lvl] = make([]Value7, len(in))
		for i := range in {
			scalar[lvl][i] = in[i].Get(lvl)
		}
	}
	b.ResetTimer()
	var sink Value7
	for i := 0; i < b.N; i++ {
		for lvl := 0; lvl < WordWidth; lvl++ {
			sink = Eval7(And, scalar[lvl]...)
		}
	}
	_ = sink
}
