package logic

import (
	"math/rand"
	"testing"
)

func TestKForWidth(t *testing.T) {
	cases := []struct{ width, k int }{
		{1, 1}, {63, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3},
		{200, 4}, {256, 4}, {257, 5}, {511, 8}, {512, 8},
	}
	for _, c := range cases {
		if got := KForWidth(c.width); got != c.k {
			t.Errorf("KForWidth(%d) = %d, want %d", c.width, got, c.k)
		}
	}
}

func TestMaskProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1995))
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 200, 511, 512} {
		m := LevelsMask(n)
		if got := m.OnesCount(); got != n {
			t.Errorf("LevelsMask(%d).OnesCount() = %d", n, got)
		}
		wantWords := (n + 63) / 64
		if wantWords == 0 {
			wantWords = 1 // Words() describes at least a one-word engine
		}
		if got := m.Words(); got != wantWords {
			t.Errorf("LevelsMask(%d).Words() = %d, want %d", n, got, wantWords)
		}
		for i := 0; i < MaxWordWidth; i++ {
			if m.Bit(i) != (i < n) {
				t.Fatalf("LevelsMask(%d).Bit(%d) = %v", n, i, m.Bit(i))
			}
		}
	}
	for trial := 0; trial < 200; trial++ {
		i := rng.Intn(MaxWordWidth)
		b := BitMask(i)
		if b.OnesCount() != 1 || !b.Bit(i) || b.TrailingZeros() != i {
			t.Fatalf("BitMask(%d) wrong: %v", i, b)
		}
		j := rng.Intn(MaxWordWidth)
		u := b.Or(BitMask(j))
		if !u.Bit(i) || !u.Bit(j) {
			t.Fatalf("Or lost a bit: %d %d", i, j)
		}
		if d := u.AndNot(BitMask(j)); i != j && (!d.Bit(i) || d.Bit(j)) {
			t.Fatalf("AndNot wrong: %d %d", i, j)
		}
		if x := b.And(b.Not()); !x.IsZero() {
			t.Fatalf("m AND NOT m != 0 for bit %d", i)
		}
	}
}

func TestWord7VRoundTrip(t *testing.T) {
	vals := []Value7{X7, Final0, Final1, Stable0, Stable1, Fall7, Rise7}
	rng := rand.New(rand.NewSource(7))
	var w Word7V
	ref := make([]Value7, MaxWordWidth)
	for trial := 0; trial < 4096; trial++ {
		i := rng.Intn(MaxWordWidth)
		v := vals[rng.Intn(len(vals))]
		w.Set(i, v)
		ref[i] = v
	}
	for i, v := range ref {
		if got := w.Get(i); got != v {
			t.Fatalf("Get(%d) = %v, want %v", i, got, v)
		}
	}
	for _, v := range vals {
		full := FillWord7V(v, LevelsMask(MaxWordWidth))
		for _, i := range []int{0, 63, 64, 200, 511} {
			if got := full.Get(i); got != v {
				t.Fatalf("FillWord7V(%v).Get(%d) = %v", v, i, got)
			}
		}
		if v != X7 && !full.SelectLevels(BitMask(70)).SelectLevels(BitMask(71)).IsZero() {
			t.Fatalf("SelectLevels of disjoint masks should clear %v", v)
		}
	}
	// Not swaps the final-value planes and preserves the stability planes.
	n := w.Not()
	if n.Zero != w.One || n.One != w.Zero || n.Stable != w.Stable || n.Instable != w.Instable {
		t.Error("Word7V.Not must swap Zero/One and keep Stable/Instable")
	}
	// Word round-trip through the scalar view.
	for wd := 0; wd < MaxK; wd++ {
		s := w.Word7At(wd)
		back := Word7VFromWord7(s, wd)
		if back.Word7At(wd) != s {
			t.Fatalf("Word7At/Word7VFromWord7 round-trip failed at word %d", wd)
		}
	}
}

// randWord7 builds a Word7 whose 64 levels hold independently random valid
// (conflict-free) seven-valued encodings.
func randWord7(rng *rand.Rand) Word7 {
	vals := []Value7{X7, Final0, Final1, Stable0, Stable1, Fall7, Rise7}
	var w Word7V
	for i := 0; i < WordWidth; i++ {
		w.Set(i, vals[rng.Intn(len(vals))])
	}
	return w.Word7At(0)
}

// TestEvalGate7VIntoMatchesScalar checks that the K-word vector kernel is,
// word for word, the scalar kernel: a width-512 evaluation must equal eight
// independent single-word evaluations of the same inputs (the window
// independence the multi-word planes are built on).
func TestEvalGate7VIntoMatchesScalar(t *testing.T) {
	kinds := []Kind{Buf, Not, And, Nand, Or, Nor, Xor, Xnor, Const0, Const1}
	rng := rand.New(rand.NewSource(42))
	for _, kind := range kinds {
		for _, fanins := range []int{1, 2, 3, 5} {
			if (kind == Buf || kind == Not) && fanins != 1 {
				continue
			}
			for trial := 0; trial < 20; trial++ {
				in := make([]Word7V, fanins)
				scalar := make([][]Word7, MaxK)
				for wd := range scalar {
					scalar[wd] = make([]Word7, fanins)
				}
				for f := 0; f < fanins; f++ {
					for wd := 0; wd < MaxK; wd++ {
						s := randWord7(rng)
						scalar[wd][f] = s
						in[f] = in[f].Merge(Word7VFromWord7(s, wd))
					}
				}
				var got Word7V
				EvalGate7VInto(&got, kind, MaxK, in)
				for wd := 0; wd < MaxK; wd++ {
					want := EvalGate7(kind, scalar[wd])
					if got.Word7At(wd) != want {
						t.Fatalf("%v fanins=%d word %d: vector %v != scalar %v",
							kind, fanins, wd, got.Word7At(wd), want)
					}
				}
			}
		}
	}
}

// TestEvalGateVIntoPartialK checks that a k-bounded evaluation leaves the
// words at and above k untouched, the contract the ka-bounded engine loops
// rely on.
func TestEvalGateVIntoPartialK(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	in := []Word7V{{}, {}}
	for f := range in {
		for wd := 0; wd < MaxK; wd++ {
			in[f] = in[f].Merge(Word7VFromWord7(randWord7(rng), wd))
		}
	}
	for k := 1; k < MaxK; k++ {
		var dst Word7V
		sentinel := FillWord7V(Rise7, LevelsMask(MaxWordWidth))
		dst = sentinel
		EvalGate7VInto(&dst, And, k, in)
		for wd := k; wd < MaxK; wd++ {
			if dst.Word7At(wd) != sentinel.Word7At(wd) {
				t.Fatalf("k=%d: word %d was written", k, wd)
			}
		}
		var full Word7V
		EvalGate7VInto(&full, And, MaxK, in)
		for wd := 0; wd < k; wd++ {
			if dst.Word7At(wd) != full.Word7At(wd) {
				t.Fatalf("k=%d: word %d differs from full evaluation", k, wd)
			}
		}
	}
}
