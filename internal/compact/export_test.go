package compact

import (
	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/paths"
	"repro/internal/pattern"
)

// This file keeps the byte-wise merge as the reference the packed merge is
// checked against, and exposes both (and the two compaction configurations)
// to the external tests, which need the generator to build their inputs.

// refCompatibleVec reports whether two three-valued vectors agree at every
// position, one Value3 at a time: the merge of two requirements is the OR
// of their encodings, and incompatibility is exactly the conflict code.
func refCompatibleVec(a, b []logic.Value3) bool {
	for i := range a {
		if a[i].Merge(b[i]).IsConflict() {
			return false
		}
	}
	return true
}

func refCompatible(a, b pattern.Pair) bool {
	return refCompatibleVec(a.V1, b.V1) && refCompatibleVec(a.V2, b.V2)
}

func refAffinity(b *bucket, p pattern.Pair) int {
	n := 0
	for i := range p.V1 {
		if p.V1[i].IsAssigned() && b.merged.V1[i] == p.V1[i] {
			n++
		}
		if p.V2[i].IsAssigned() && b.merged.V2[i] == p.V2[i] {
			n++
		}
	}
	return n
}

// refGreedyMerge is greedyMerge on Value3 slices: same scan order, same
// highest-affinity choice, same tie-break to the earliest bucket.
func refGreedyMerge(set *pattern.Set) []*bucket {
	var buckets []*bucket
	for i := range set.Pairs {
		u := set.UnfilledAt(i)
		var best *bucket
		bestScore := -1
		for _, b := range buckets {
			if !refCompatible(b.merged, u) {
				continue
			}
			if score := refAffinity(b, u); score > bestScore {
				best, bestScore = b, score
			}
		}
		if best != nil {
			for j := range best.merged.V1 {
				best.merged.V1[j] = best.merged.V1[j].Merge(u.V1[j])
				best.merged.V2[j] = best.merged.V2[j].Merge(u.V2[j])
			}
			best.members = append(best.members, i)
		} else {
			buckets = append(buckets, &bucket{members: []int{i}, merged: u.Clone()})
		}
	}
	return buckets
}

// Bucket is the exported view of one merge bucket.
type Bucket struct {
	Members []int
	Merged  pattern.Pair
}

func exportBuckets(bs []*bucket) []Bucket {
	out := make([]Bucket, len(bs))
	for i, b := range bs {
		out[i] = Bucket{Members: b.members, Merged: b.merged}
	}
	return out
}

// PackedMerge runs the production (bit-plane) merge.
func PackedMerge(set *pattern.Set) []Bucket { return exportBuckets(greedyMerge(set)) }

// ReferenceMerge runs the byte-wise reference merge.
func ReferenceMerge(set *pattern.Set) []Bucket { return exportBuckets(refGreedyMerge(set)) }

// ReferenceCompact is compaction as it ran before the packed merge and the
// round-to-round detection reuse: byte-wise merge, every round
// re-simulating its input.
func ReferenceCompact(c *circuit.Circuit, set *pattern.Set, faults []paths.Fault, robust bool, level Level, fill Filler) (*pattern.Set, Stats, error) {
	return compactor{merge: refGreedyMerge}.run(c, set, faults, robust, level, fill)
}

// CompactNoReuse is Compact with every round re-simulating its input.
func CompactNoReuse(c *circuit.Circuit, set *pattern.Set, faults []paths.Fault, robust bool, level Level, fill Filler) (*pattern.Set, Stats, error) {
	return compactor{merge: greedyMerge}.run(c, set, faults, robust, level, fill)
}
