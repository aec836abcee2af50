package logic

import (
	"math/bits"
	"strings"
)

// This file generalizes the scalar 64-level Word7 (one uint64 per bit plane)
// to K-word plane vectors: a Mask or Word7V carries up to MaxK machine words
// per plane, giving word widths L of 64, 128, 256 or 512.  The vector types
// are sized for the maximum width; every operation takes the vector word
// count k and touches only words [0, k), so a K=1 engine pays for one word,
// not eight.
//
// The types are plain comparable structs of [MaxK]uint64 arrays: the plane
// loops are fixed-bound and branch-free per word, which the compiler can
// unroll and auto-vectorize, and equality (==) is bit-exact across the full
// capacity — callers that operate at k < MaxK keep the upper words zero.

// MaxK is the maximum number of 64-bit words per bit plane.
const MaxK = 8

// MaxWordWidth is the maximum number of bit levels of a plane vector: the
// widest word width L the engine supports (512 with MaxK = 8).
const MaxWordWidth = MaxK * WordWidth

// KForWidth returns the number of plane words needed for the given word
// width, clamped to [1, MaxK].
func KForWidth(width int) int {
	if width <= WordWidth {
		return 1
	}
	k := (width + WordWidth - 1) / WordWidth
	if k > MaxK {
		return MaxK
	}
	return k
}

// Mask is a wide bit-level mask: bit i of word i/64 selects bit level i.
// The zero value selects nothing.  Masks are comparable with ==.
type Mask [MaxK]uint64

// LevelsMask returns the mask selecting the lowest n bit levels (the wide
// counterpart of LevelMask).
func LevelsMask(n int) Mask {
	var m Mask
	if n <= 0 {
		return m
	}
	if n > MaxWordWidth {
		n = MaxWordWidth
	}
	for w := 0; n > 0; w++ {
		if n >= WordWidth {
			m[w] = AllLevels
			n -= WordWidth
		} else {
			m[w] = (uint64(1) << uint(n)) - 1
			n = 0
		}
	}
	return m
}

// BitMask returns the mask selecting only bit level i.
func BitMask(i int) Mask {
	var m Mask
	if i >= 0 && i < MaxWordWidth {
		m[i>>6] = uint64(1) << uint(i&63)
	}
	return m
}

// And returns m & o.
func (m Mask) And(o Mask) Mask {
	for w := range m {
		m[w] &= o[w]
	}
	return m
}

// Or returns m | o.
func (m Mask) Or(o Mask) Mask {
	for w := range m {
		m[w] |= o[w]
	}
	return m
}

// AndNot returns m &^ o.
func (m Mask) AndNot(o Mask) Mask {
	for w := range m {
		m[w] &^= o[w]
	}
	return m
}

// Not returns the complement over the full MaxWordWidth levels.  Combine
// with And(active) to bound it to the levels in use.
func (m Mask) Not() Mask {
	for w := range m {
		m[w] = ^m[w]
	}
	return m
}

// IsZero reports whether no bit level is selected.
func (m Mask) IsZero() bool { return m == Mask{} }

// Bit reports whether bit level i is selected.
func (m Mask) Bit(i int) bool {
	if i < 0 || i >= MaxWordWidth {
		return false
	}
	return m[i>>6]>>uint(i&63)&1 != 0
}

// TrailingZeros returns the lowest selected bit level, or MaxWordWidth when
// the mask is zero.
func (m Mask) TrailingZeros() int {
	for w := range m {
		if m[w] != 0 {
			return w*WordWidth + bits.TrailingZeros64(m[w])
		}
	}
	return MaxWordWidth
}

// OnesCount returns the number of selected bit levels.
func (m Mask) OnesCount() int {
	n := 0
	for w := range m {
		n += bits.OnesCount64(m[w])
	}
	return n
}

// Words returns the number of plane words up to and including the highest
// selected level (at least 1, so a zero mask still describes a one-word
// engine).
func (m Mask) Words() int {
	for w := MaxK - 1; w > 0; w-- {
		if m[w] != 0 {
			return w + 1
		}
	}
	return 1
}

// String renders the mask as the binary digits of its words, highest level
// first, trimmed to the populated words.
func (m Mask) String() string {
	var sb strings.Builder
	for w := m.Words() - 1; w >= 0; w-- {
		if sb.Len() > 0 {
			sb.WriteByte('.')
		}
		for i := WordWidth - 1; i >= 0; i-- {
			sb.WriteByte('0' + byte(m[w]>>uint(i)&1))
		}
	}
	return sb.String()
}

// Word7V holds up to MaxWordWidth seven-valued logic values in four wide bit
// planes: the K-word generalization of Word7.  The zero value is "X at every
// bit level".
type Word7V struct {
	Zero     Mask
	One      Mask
	Stable   Mask
	Instable Mask
}

// FillWord7V returns a vector holding v at the levels selected by mask.
func FillWord7V(v Value7, mask Mask) Word7V {
	var w Word7V
	if v.ZeroBit() {
		w.Zero = mask
	}
	if v.OneBit() {
		w.One = mask
	}
	if v.StableBit() {
		w.Stable = mask
	}
	if v.InstableBit() {
		w.Instable = mask
	}
	return w
}

// Word7VFromWord7 places the 64 levels of a scalar word at vector word wd.
func Word7VFromWord7(w Word7, wd int) Word7V {
	var v Word7V
	v.Zero[wd] = w.Zero
	v.One[wd] = w.One
	v.Stable[wd] = w.Stable
	v.Instable[wd] = w.Instable
	return v
}

// Word7At extracts vector word wd as a scalar 64-level word.
func (w Word7V) Word7At(wd int) Word7 {
	return Word7{Zero: w.Zero[wd], One: w.One[wd], Stable: w.Stable[wd], Instable: w.Instable[wd]}
}

// Get returns the value at bit level i.
func (w Word7V) Get(i int) Value7 {
	wd, b := i>>6, uint64(1)<<uint(i&63)
	return Value7FromPlanes(w.Zero[wd]&b != 0, w.One[wd]&b != 0, w.Stable[wd]&b != 0, w.Instable[wd]&b != 0)
}

// Value7FromPlanes assembles a Value7 from its four plane bits (the
// structure-of-arrays accessors of the implication state read single bit
// levels directly from plane storage).
func Value7FromPlanes(zero, one, stable, instable bool) Value7 {
	var v Value7
	if zero {
		v |= zeroBit7
	}
	if one {
		v |= oneBit7
	}
	if stable {
		v |= stableBit7
	}
	if instable {
		v |= instableBit7
	}
	return v
}

// Set stores v at bit level i, replacing the previous value.
func (w *Word7V) Set(i int, v Value7) {
	wd, b := i>>6, uint64(1)<<uint(i&63)
	w.Zero[wd] &^= b
	w.One[wd] &^= b
	w.Stable[wd] &^= b
	w.Instable[wd] &^= b
	if v.ZeroBit() {
		w.Zero[wd] |= b
	}
	if v.OneBit() {
		w.One[wd] |= b
	}
	if v.StableBit() {
		w.Stable[wd] |= b
	}
	if v.InstableBit() {
		w.Instable[wd] |= b
	}
}

// MergeAt accumulates the requirement v at bit level i.
func (w *Word7V) MergeAt(i int, v Value7) {
	wd, b := i>>6, uint64(1)<<uint(i&63)
	if v.ZeroBit() {
		w.Zero[wd] |= b
	}
	if v.OneBit() {
		w.One[wd] |= b
	}
	if v.StableBit() {
		w.Stable[wd] |= b
	}
	if v.InstableBit() {
		w.Instable[wd] |= b
	}
}

// Merge accumulates the requirements of o into w at every bit level.
func (w Word7V) Merge(o Word7V) Word7V {
	return Word7V{
		Zero:     w.Zero.Or(o.Zero),
		One:      w.One.Or(o.One),
		Stable:   w.Stable.Or(o.Stable),
		Instable: w.Instable.Or(o.Instable),
	}
}

// SelectLevels keeps only the bit levels selected by mask.
func (w Word7V) SelectLevels(mask Mask) Word7V {
	return Word7V{
		Zero:     w.Zero.And(mask),
		One:      w.One.And(mask),
		Stable:   w.Stable.And(mask),
		Instable: w.Instable.And(mask),
	}
}

// Not returns the complement: the value planes are swapped while the
// stability planes are preserved.
func (w Word7V) Not() Word7V {
	return Word7V{Zero: w.One, One: w.Zero, Stable: w.Stable, Instable: w.Instable}
}

// ConflictMask returns the levels holding an illegal encoding.
func (w Word7V) ConflictMask() Mask {
	return w.Zero.And(w.One).Or(w.Stable.And(w.Instable))
}

// IsZero reports whether every level of every plane is X.
func (w Word7V) IsZero() bool { return w == Word7V{} }

// StringN renders the lowest n bit levels, highest first, in the Word7
// notation.
func (w Word7V) StringN(n int) string {
	if n <= 0 {
		n = 1
	}
	if n > MaxWordWidth {
		n = MaxWordWidth
	}
	var sb strings.Builder
	for i := n - 1; i >= 0; i-- {
		v := w.Get(i)
		switch {
		case v.IsConflict():
			sb.WriteByte('C')
		case v == X7:
			sb.WriteByte('x')
		case v == Stable0:
			sb.WriteByte('s')
		case v == Stable1:
			sb.WriteByte('S')
		case v == Fall7:
			sb.WriteByte('f')
		case v == Rise7:
			sb.WriteByte('r')
		case v == Final0:
			sb.WriteByte('0')
		case v == Final1:
			sb.WriteByte('1')
		default:
			sb.WriteByte('?')
		}
	}
	return sb.String()
}

// EvalGate7VInto evaluates a gate of the given kind over bit-parallel
// seven-valued plane vectors, writing the result into dst.  Only plane words
// [0, k) are read and written; the caller keeps the upper words zero.  The
// per-word evaluation is exactly the scalar EvalGate7 plane algebra, so the
// result is bit-identical to evaluating each 64-level window separately.
//
//atpgvet:noalloc
func EvalGate7VInto(dst *Word7V, kind Kind, k int, in []Word7V) {
	switch kind {
	case Buf, Input:
		if len(in) == 0 {
			*dst = Word7V{}
			return
		}
		*dst = in[0]
	case Not:
		if len(in) == 0 {
			*dst = Word7V{}
			return
		}
		*dst = in[0].Not()
	case Const0:
		*dst = FillWord7V(Stable0, LevelsMask(k*WordWidth))
	case Const1:
		*dst = FillWord7V(Stable1, LevelsMask(k*WordWidth))
	case And:
		andWord7V(dst, k, in, false)
	case Nand:
		andWord7V(dst, k, in, true)
	case Or:
		orWord7V(dst, k, in, false)
	case Nor:
		orWord7V(dst, k, in, true)
	case Xor:
		xorWord7V(dst, k, in, false)
	case Xnor:
		xorWord7V(dst, k, in, true)
	default:
		*dst = Word7V{}
	}
}

func andWord7V(dst *Word7V, k int, in []Word7V, invert bool) {
	if len(in) == 0 {
		*dst = Word7V{}
		return
	}
	for w := 0; w < k; w++ {
		outZero, outOne := uint64(0), AllLevels
		outInit0, outInit1 := uint64(0), AllLevels
		allStable, anyStableZero := AllLevels, uint64(0)
		for i := range in {
			z, o := in[i].Zero[w], in[i].One[w]
			s, inst := in[i].Stable[w], in[i].Instable[w]
			outZero |= z
			outOne &= o
			outInit0 |= (z & s) | (o & inst)
			outInit1 &= (o & s) | (z & inst)
			allStable &= s
			anyStableZero |= z & s
		}
		compose7VWord(dst, w, outZero, outOne, outInit0, outInit1, allStable|anyStableZero, invert)
	}
}

func orWord7V(dst *Word7V, k int, in []Word7V, invert bool) {
	if len(in) == 0 {
		*dst = Word7V{}
		return
	}
	for w := 0; w < k; w++ {
		outZero, outOne := AllLevels, uint64(0)
		outInit0, outInit1 := AllLevels, uint64(0)
		allStable, anyStableOne := AllLevels, uint64(0)
		for i := range in {
			z, o := in[i].Zero[w], in[i].One[w]
			s, inst := in[i].Stable[w], in[i].Instable[w]
			outZero &= z
			outOne |= o
			outInit0 &= (z & s) | (o & inst)
			outInit1 |= (o & s) | (z & inst)
			allStable &= s
			anyStableOne |= o & s
		}
		compose7VWord(dst, w, outZero, outOne, outInit0, outInit1, allStable|anyStableOne, invert)
	}
}

func xorWord7V(dst *Word7V, k int, in []Word7V, invert bool) {
	if len(in) == 0 {
		*dst = Word7V{}
		return
	}
	for w := 0; w < k; w++ {
		finalAssigned, finalParity := AllLevels, uint64(0)
		initAssigned, initParity := AllLevels, uint64(0)
		allStable := AllLevels
		for i := range in {
			z, o := in[i].Zero[w], in[i].One[w]
			s, inst := in[i].Stable[w], in[i].Instable[w]
			i0 := (z & s) | (o & inst)
			i1 := (o & s) | (z & inst)
			finalAssigned &= z ^ o
			finalParity ^= o
			initAssigned &= i0 ^ i1
			initParity ^= i1
			allStable &= s
		}
		compose7VWord(dst, w,
			finalAssigned&^finalParity, finalAssigned&finalParity,
			initAssigned&^initParity, initAssigned&initParity,
			allStable, invert)
	}
}

// compose7VWord assembles plane word w of dst from final value planes,
// initial value planes and a stability guarantee, mirroring compose7Word;
// invert swaps the value planes on the way out (NAND/NOR/XNOR).
func compose7VWord(dst *Word7V, w int, zero, one, init0, init1, stable uint64, invert bool) {
	f0 := zero &^ one
	f1 := one &^ zero
	known := f0 | f1
	outStable := known & stable
	outInstable := ((f1 & init0) | (f0 & init1)) &^ stable
	if invert {
		zero, one = one, zero
	}
	dst.Zero[w] = zero
	dst.One[w] = one
	dst.Stable[w] = outStable
	dst.Instable[w] = outInstable
}
