package reftest

import (
	"testing"

	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
	"sampleunion/internal/walkest"
)

// TestWalkOwnerIsTheAcceptRule: the owner a refining walk carries is what
// the online run accepts by, so it has to say what exact membership says.
// Against the brute-force reference, over every generator shape and the
// two-region union: the walked tuple is a result of its own join, and the
// owner is f(t), its cover region — the first join that produces it. (That a run which stopped probing
// owners still returns the pinned streams is golden_test.go's online
// rows, untouched.)
func TestWalkOwnerIsTheAcceptRule(t *testing.T) {
	scenarios := []*scenario{twoRegions(t, 40)}
	for seed := int64(0); seed < 30; seed++ {
		sc := buildScenario(t, seed)
		sc.ensureNonEmpty()
		scenarios = append(scenarios, sc)
	}
	walked, shadowed := 0, 0
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
			perm, err := out.Perm(jn.OutputSchema())
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
					aligned[a] = scratch[p]
				}
				key := relation.TupleKey(aligned)
				if _, own := perJoin[j][key]; !own {
					t.Fatalf("%s #%d join %d walked %v, which it does not produce", sc.name, i, j, aligned)
				}
				if want := region[key]; sm.Owner != want {
					t.Fatalf("%s #%d join %d tuple %v: owner %d, reference %d", sc.name, i, j, aligned, sm.Owner, want)
				}
				walked++
				if sm.Owner != j {
					shadowed++
				}
			}
		}
	}
	if walked < 2000 || shadowed < 100 {
		t.Fatalf("%d walks checked, %d of them owned by an earlier join: too few to say anything", walked, shadowed)
	}
}
