package reftest

import (
	"math/bits"
	"testing"

	"sampleunion/internal/overlap"
	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
	"sampleunion/internal/walkest"
)

// TestWalkMaskIsTheAcceptRule: the containment mask a refining walk
// carries is what the online run accepts by, so it has to say what exact
// membership says. Against the brute-force reference, over every generator
// shape and the two-region union: each bit is set exactly when that join
// produces the walked tuple, so the lowest one is f(t), the join that owns
// it. (That a run which stopped probing masks still returns the pinned
// streams is golden_test.go's online rows, untouched.)
func TestWalkMaskIsTheAcceptRule(t *testing.T) {
	scenarios := []*scenario{twoRegions(t, 40)}
	for seed := int64(0); seed < 30; seed++ {
		sc := buildScenario(t, seed)
		sc.ensureNonEmpty()
		scenarios = append(scenarios, sc)
	}
	walked, shared := 0, 0
	for i, sc := range scenarios {
		joins := sc.union.Joins()
		out := sc.union.OutputSchema()
		region, _ := sc.coverRegions()
		perJoin := make([]map[string]relation.Tuple, len(joins))
		for j, rels := range sc.relSets {
			perJoin[j] = JoinResults(rels, out)
		}
		est, err := walkest.New(joins, walkest.Options{})
		if err != nil {
			t.Fatal(err)
		}
		g := rng.New(int64(1000 + i))
		aligned := make(relation.Tuple, out.Len())
		for j, jn := range joins {
			perm, err := overlap.AlignPerm(out, jn.OutputSchema())
			if err != nil {
				t.Fatal(err)
			}
			scratch := make(relation.Tuple, out.Len())
			for w := 0; w < 150; w++ {
				sm, ok := est.WalkJoin(j, scratch, true, g)
				if !ok {
					continue
				}
				for a, p := range perm {
					aligned[a] = sm.Tuple[p]
				}
				key := relation.TupleKey(aligned)
				var want uint
				for o := range joins {
					if _, in := perJoin[o][key]; in {
						want |= 1 << uint(o)
					}
				}
				if sm.Mask != want || bits.TrailingZeros(sm.Mask) != region[key] {
					t.Fatalf("%s #%d join %d tuple %v: mask %b, reference %b, owner %d",
						sc.name, i, j, aligned, sm.Mask, want, region[key])
				}
				walked++
				if want&(want-1) != 0 {
					shared++
				}
			}
		}
	}
	if walked < 2000 || shared < 100 {
		t.Fatalf("%d walks checked, %d of them in more than one join: too few to say anything", walked, shared)
	}
}
