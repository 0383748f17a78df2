package reftest

import (
	"fmt"
	"testing"

	su "sampleunion"
	"sampleunion/internal/relation"
)

// twoRegions is ROADMAP item 1's shape: two chains orders ⋈ cust over
// custkeys 0–99 and 50–149, so a third of the union's 150 results lie in
// both joins.
func twoRegions(t *testing.T) *scenario {
	t.Helper()
	region := func(tag string, lo, hi int64) (*su.Join, []*relation.Relation) {
		var orders, cust [][]int64
		for k := lo; k < hi; k++ {
			orders = append(orders, []int64{k * 10, k})
			cust = append(cust, []int64{k, k % 7})
		}
		return chain2(t, tag, orders, cust)
	}
	east, eastRels := region("east", 0, 100)
	west, westRels := region("west", 50, 150)
	return unionOf(t, []*su.Join{east, west}, [][]*relation.Relation{eastRels, westRels})
}

// TestOracleIsUniformAtSmallRequests pins the one row of ROADMAP item
// 1's table that holds today: under WarmupExact + Oracle a call's draws
// are uniform over the union at every request size, n = 1 and n = 16
// included — each seeded call is its own run with an empty record, so
// nothing here leans on a record filling up. (Without Oracle the same
// calls over-draw the overlap: 0.49 of draws at n = 16 against 0.333.)
func TestOracleIsUniformAtSmallRequests(t *testing.T) {
	sc := twoRegions(t)
	union, mult := sc.reference()
	if len(union) != 150 {
		t.Fatalf("two-region union has %d results, want 150", len(union))
	}
	sess, err := sc.union.Prepare(su.Options{Warmup: su.WarmupExact, Oracle: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const total = 150 * 64
	for _, n := range []int{1, 16} {
		draws := make([]relation.Tuple, 0, total)
		for seed := int64(1); len(draws) < total; seed++ {
			out, _, err := sess.SampleSeeded(n, seed)
			if err != nil {
				t.Fatal(err)
			}
			draws = append(draws, out...)
		}
		checkDraws(t, fmt.Sprintf("n=%d", n), draws, UniformWeights(union), true)
		inBoth := 0
		for _, tup := range draws {
			if mult[relation.TupleKey(tup)] == 2 {
				inBoth++
			}
		}
		if share := float64(inBoth) / float64(len(draws)); share < 0.31 || share > 0.36 {
			t.Errorf("n=%d: %.3f of draws fall in both joins, uniform is 0.333", n, share)
		}
	}
}
