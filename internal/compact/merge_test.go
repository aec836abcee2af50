package compact_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/compact"
	"repro/internal/logic"
	"repro/internal/pattern"
	"repro/internal/sensitize"
)

// randomUnfilledSet builds n pairs of the given width whose positions are X
// with probability pX and otherwise 0 or 1, so that many pairs merge and
// many collide.  Every 17th pair also carries a Conflict3 somewhere.
func randomUnfilledSet(width, n int, pX float64, seed int64) *pattern.Set {
	rng := rand.New(rand.NewSource(seed))
	val := func() logic.Value3 {
		switch {
		case rng.Float64() < pX:
			return logic.X3
		case rng.Intn(2) == 0:
			return logic.Zero3
		}
		return logic.One3
	}
	set := &pattern.Set{}
	for i := 0; i < n; i++ {
		u := pattern.NewPair(width)
		for j := 0; j < width; j++ {
			u.V1[j], u.V2[j] = val(), val()
		}
		if i%17 == 16 {
			u.V1[rng.Intn(width)] = logic.Conflict3
		}
		set.AddUnfilled(u.FillX(logic.Zero3), u, fmt.Sprintf("t%d", i))
	}
	return set
}

func assertSameBuckets(t *testing.T, set *pattern.Set) []compact.Bucket {
	t.Helper()
	got, want := compact.PackedMerge(set), compact.ReferenceMerge(set)
	if !reflect.DeepEqual(got, want) {
		for i := 0; i < len(got) && i < len(want); i++ {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("bucket %d differs: packed %v %s, reference %v %s",
					i, got[i].Members, got[i].Merged, want[i].Members, want[i].Merged)
			}
		}
		t.Fatalf("packed merge gives %d buckets, reference %d", len(got), len(want))
	}
	return got
}

// TestPackedMergeMatchesReferenceWidths checks the packed merge against the
// byte-wise reference at input counts on both sides of the 64-bit word
// boundary, over sparse and dense random requirement sets.
func TestPackedMergeMatchesReferenceWidths(t *testing.T) {
	for _, width := range []int{1, 63, 64, 65, 233} {
		for _, pX := range []float64{0.5, 0.9, 0.98} {
			t.Run(fmt.Sprintf("inputs=%d/x=%v", width, pX), func(t *testing.T) {
				assertSameBuckets(t, randomUnfilledSet(width, 300, pX, int64(width)*100+int64(pX*100)))
			})
		}
	}
}

func TestPackedMergeEdgeCases(t *testing.T) {
	const width = 70
	allX := pattern.NewPair(width)
	conflict := pattern.NewPair(width)
	conflict.V2[66] = logic.Conflict3
	// A conflict in V1 next to requirements in V2: the merged pair of its
	// bucket must still carry both vectors.
	conflictV1 := pattern.NewPair(width)
	conflictV1.V1[2] = logic.Conflict3
	conflictV1.V2[2], conflictV1.V2[69] = logic.One3, logic.Zero3
	zeroAt := func(i int) pattern.Pair {
		p := pattern.NewPair(width)
		p.V1[i] = logic.Zero3
		return p
	}
	set := func(pairs ...pattern.Pair) *pattern.Set {
		s := &pattern.Set{}
		for _, p := range pairs {
			s.AddUnfilled(p.FillX(logic.Zero3), p, "")
		}
		return s
	}
	members := func(bs []compact.Bucket) [][]int {
		var out [][]int
		for _, b := range bs {
			out = append(out, b.Members)
		}
		return out
	}

	t.Run("empty", func(t *testing.T) {
		if got := assertSameBuckets(t, &pattern.Set{}); len(got) != 0 {
			t.Errorf("empty set gives %d buckets", len(got))
		}
	})
	t.Run("all-X", func(t *testing.T) {
		// An all-X pair is compatible with everything and merges into the
		// first bucket (every affinity is 0, ties go to the earliest).
		got := assertSameBuckets(t, set(zeroAt(3), allX, zeroAt(68), allX))
		if want := [][]int{{0, 1, 2, 3}}; !reflect.DeepEqual(members(got), want) {
			t.Errorf("members %v, want %v", members(got), want)
		}
	})
	t.Run("conflict", func(t *testing.T) {
		// A Conflict3 position makes a pair incompatible even with an all-X
		// bucket, in either order, and its bucket takes no one else.
		for _, tc := range []struct {
			name  string
			pairs []pattern.Pair
			want  [][]int
		}{
			{"after all-X", []pattern.Pair{allX, conflict, allX}, [][]int{{0, 2}, {1}}},
			{"before all-X", []pattern.Pair{conflict, allX, allX}, [][]int{{0}, {1, 2}}},
			{"twice", []pattern.Pair{conflict, conflict}, [][]int{{0}, {1}}},
			{"in V1", []pattern.Pair{allX, conflictV1, zeroAt(5)}, [][]int{{0, 2}, {1}}},
		} {
			got := assertSameBuckets(t, set(tc.pairs...))
			if !reflect.DeepEqual(members(got), tc.want) {
				t.Errorf("%s: members %v, want %v", tc.name, members(got), tc.want)
			}
		}
	})
}

// TestPackedMergeMatchesReferenceGenerated runs both merges, and compaction
// in the reference configuration and in both production ones (with and
// without reusing detections across rounds), on generated unfilled sets.
// Buckets and compacted sets must agree bit for bit.
func TestPackedMergeMatchesReferenceGenerated(t *testing.T) {
	if testing.Short() {
		t.Skip("generates test sets on four ISCAS-class circuits")
	}
	for _, tc := range []struct {
		name   string
		faults int
	}{{"c432", 400}, {"c880", 400}, {"c2670", 400}, {"c7552", 200}} {
		for _, mode := range []sensitize.Mode{sensitize.Robust, sensitize.Nonrobust} {
			robust := mode == sensitize.Robust
			t.Run(tc.name+"/"+map[bool]string{true: "robust", false: "nonrobust"}[robust], func(t *testing.T) {
				c, faults, set := generateWidth(t, tc.name, tc.faults, mode, 256)
				assertSameBuckets(t, set)

				for _, level := range []compact.Level{compact.Reverse, compact.Full} {
					want, wantSt, err := compact.ReferenceCompact(c, set, faults, robust, level, nil)
					if err != nil {
						t.Fatal(err)
					}
					for name, run := range map[string]func() (*pattern.Set, compact.Stats, error){
						"reuse": func() (*pattern.Set, compact.Stats, error) {
							return compact.Compact(c, set, faults, robust, level, nil)
						},
						"no-reuse": func() (*pattern.Set, compact.Stats, error) {
							return compact.CompactNoReuse(c, set, faults, robust, level, nil)
						},
					} {
						got, gotSt, err := run()
						if err != nil {
							t.Fatal(err)
						}
						if gotSt != wantSt {
							t.Errorf("%v/%s: stats %+v, reference %+v", level, name, gotSt, wantSt)
						}
						if !reflect.DeepEqual(got.Pairs, want.Pairs) || !reflect.DeepEqual(got.Unfilled, want.Unfilled) ||
							!reflect.DeepEqual(got.Targets, want.Targets) {
							t.Errorf("%v/%s: compacted set differs from the reference (%d vs %d pairs)",
								level, name, got.Len(), want.Len())
						}
					}
				}
			})
		}
	}
}
