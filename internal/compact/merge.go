package compact

import (
	"math/bits"

	"repro/internal/logic"
	"repro/internal/pattern"
)

// bucket is one merged pattern under construction: the positionwise merge of
// the unfilled forms of its member pairs.
type bucket struct {
	// members are the indices of the merged source pairs, ascending.
	members []int
	// merged is the combined X-preserving pair: at every position the union
	// of the members' requirements (all of which are pairwise compatible).
	merged pattern.Pair
}

// The merge works on packed bit planes: the paper's Table 1 encoding of a
// three-valued vector, 0-bit and 1-bit, split into two planes of one bit per
// input, 64 inputs to a word.  A pair is four planes (V1 0-bits, V1 1-bits,
// V2 0-bits, V2 1-bits) of ⌈inputs/64⌉ words each, stored back to back.  The
// merge of two requirements is the OR of their encodings and a conflict is
// a position with both bits set, so two pairs are compatible exactly when
// no word of one's 0-plane meets the other's 1-plane, in either vector.
const (
	planeZ1 = iota
	planeO1
	planeZ2
	planeO2
	numPlanes
)

// packedPairs holds the planes of a list of pairs in one flat slab.
type packedPairs struct {
	words int      // words per plane
	slab  []uint64 // pair i occupies slab[i*numPlanes*words:][:numPlanes*words]
	// conflict[i] records a Conflict3 position in pair i.  Such a pair is
	// incompatible with everything: its planes alone would let it merge
	// with a bucket that leaves the position X.
	conflict []bool
}

// packPairs packs the unfilled forms of the set's pairs, each vector of
// width inputs (see checkUnfilledWidths).
func packPairs(set *pattern.Set, width int) packedPairs {
	words := (width + 63) / 64
	stride := numPlanes * words
	pk := packedPairs{
		words:    words,
		slab:     make([]uint64, set.Len()*stride),
		conflict: make([]bool, set.Len()),
	}
	for i := range set.Pairs {
		u := set.UnfilledAt(i)
		planes := pk.slab[i*stride : (i+1)*stride]
		c1 := packVec(planes[planeZ1*words:planeO1*words], planes[planeO1*words:planeZ2*words], u.V1)
		c2 := packVec(planes[planeZ2*words:planeO2*words], planes[planeO2*words:], u.V2)
		pk.conflict[i] = c1 || c2
	}
	return pk
}

// packVec sets the 0-bits and 1-bits of v in the zero and one planes and
// reports whether v holds a conflict.
func packVec(zero, one []uint64, v []logic.Value3) bool {
	var both logic.Value3 // bit 0 set once a position had both bits
	for w := 0; len(v) > 0; w++ {
		chunk := v[:min(len(v), 64)]
		v = v[len(chunk):]
		var z, o uint64
		for b, x := range chunk {
			z |= uint64(x&1) << uint(b)
			o |= uint64(x>>1&1) << uint(b)
			both |= x & (x >> 1)
		}
		zero[w], one[w] = z, o
	}
	return both&1 != 0
}

// unpackVec is the inverse of packVec over the first len(v) positions.
func unpackVec(v []logic.Value3, zero, one []uint64) {
	for i := range v {
		w, b := i/64, uint(i%64)
		v[i] = logic.Value3(zero[w]>>b&1 | (one[w]>>b&1)<<1)
	}
}

// compatiblePlanes reports whether the pairs with planes a and b never
// demand opposite values at the same position of V1 or of V2.  V1 and V2
// are checked independently — an input may be constrained by one pair's
// first vector and the other pair's second.
func compatiblePlanes(a, b []uint64, words int) bool {
	z1, o1, z2, o2 := planeZ1*words, planeO1*words, planeZ2*words, planeO2*words
	for w := 0; w < words; w++ {
		if a[z1+w]&b[o1+w]|a[o1+w]&b[z1+w]|a[z2+w]&b[o2+w]|a[o2+w]&b[z2+w] != 0 {
			return false
		}
	}
	return true
}

// affinityPlanes scores how well pair p fits bucket b (which must be
// compatible with it): the number of positions where both sides already
// demand the same assigned value.  Packing a pair into the bucket it
// overlaps most leaves the other buckets less constrained, which measurably
// beats plain first-fit on the ISCAS-class sets.
func affinityPlanes(b, p []uint64) int {
	n := 0
	for w := range p {
		n += bits.OnesCount64(b[w] & p[w])
	}
	return n
}

// greedyMerge partitions the set's pairs into buckets of mutually
// compatible unfilled forms: pairs are scanned in generation order and each
// joins the compatible bucket it has the highest affinity with (ties to the
// earliest bucket), or founds a new one.  The result is maximal: any two
// final buckets are pairwise incompatible (a bucket only accumulates
// requirements, so a pair rejected by a bucket's partial state is also
// rejected by its final state), which is what lets compaction converge — a
// second pass finds nothing left to merge.
//
// Every pair is packed once; a bucket's planes are the OR of its members'
// planes, kept in a second slab, and are unpacked into the merged pair only
// when the scan is done.
func greedyMerge(set *pattern.Set) []*bucket {
	if set.Len() == 0 {
		return nil
	}
	width := set.UnfilledAt(0).Len()
	pk := packPairs(set, width)
	stride := numPlanes * pk.words

	var buckets []*bucket
	// bslab holds the buckets' planes, bucket k at bslab[k*stride:]; a
	// bucket founded by a conflicting pair stays closed to every other pair.
	bslab := make([]uint64, 0, len(pk.slab))
	var closed []bool
	for i := range set.Pairs {
		p := pk.slab[i*stride : (i+1)*stride]
		best, bestScore := -1, -1
		if !pk.conflict[i] {
			for k := range buckets {
				b := bslab[k*stride : (k+1)*stride]
				if closed[k] || !compatiblePlanes(b, p, pk.words) {
					continue
				}
				if score := affinityPlanes(b, p); score > bestScore {
					best, bestScore = k, score
				}
			}
		}
		if best >= 0 {
			b := bslab[best*stride : (best+1)*stride]
			for w := range b {
				b[w] |= p[w]
			}
			buckets[best].members = append(buckets[best].members, i)
			continue
		}
		bslab = append(bslab, p...)
		closed = append(closed, pk.conflict[i])
		buckets = append(buckets, &bucket{members: []int{i}})
	}

	// One backing array for every merged pair; each vector is capped at its
	// own length so an append to one never runs into its neighbour.
	vals := make([]logic.Value3, 2*width*len(buckets))
	for k, b := range buckets {
		planes := bslab[k*stride : (k+1)*stride]
		v := vals[2*k*width : 2*(k+1)*width : 2*(k+1)*width]
		b.merged = pattern.Pair{V1: v[:width:width], V2: v[width:]}
		unpackVec(b.merged.V1, planes[planeZ1*pk.words:], planes[planeO1*pk.words:])
		unpackVec(b.merged.V2, planes[planeZ2*pk.words:], planes[planeO2*pk.words:])
	}
	return buckets
}
