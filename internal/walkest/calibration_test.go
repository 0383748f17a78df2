package walkest

import (
	"math"
	"slices"
	"testing"

	"sampleunion/internal/join"
	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
)

// twoRegions is the two-region chain shape: orders ⋈ cust over custkeys
// 0..n−1 (east) and n/2..3n/2−1 (west), so the west join's cover region —
// custkeys n..3n/2−1 — holds a third of the union.
func twoRegions(t *testing.T, n int) []*join.Join {
	t.Helper()
	region := func(tag string, lo, hi int) *join.Join {
		orders := relation.New(tag+"_orders", relation.NewSchema("orderkey", "custkey"))
		cust := relation.New(tag+"_cust", relation.NewSchema("custkey", "nationkey"))
		for k := lo; k < hi; k++ {
			orders.AppendValues(relation.Value(k*10), relation.Value(k))
			cust.AppendValues(relation.Value(k), relation.Value(k%7))
		}
		j, err := join.NewChain(tag, []*relation.Relation{orders, cust}, []string{"custkey"})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	return []*join.Join{region("east", 0, n), region("west", n/2, n+n/2)}
}

// TestCoverShareCalibrated: under the zero Options, over seeds 1–200 on
// the two-region shape, the west join's estimated cover share ĉ_1 / Σ ĉ
// stays within [0.305, 0.362] from the 5th to the 95th percentile (truth
// 1/3), and ĉ_j ± its half-width covers the true c_j in at least 85 % of
// seeds for every join.
func TestCoverShareCalibrated(t *testing.T) {
	const n, seeds = 100, 200
	truth := []float64{n, n / 2}
	var shares []float64
	covered := make([]int, len(truth))
	for seed := int64(1); seed <= seeds; seed++ {
		e, err := New(twoRegions(t, n), Options{})
		if err != nil {
			t.Fatal(err)
		}
		e.Warmup(rng.New(seed))
		u := 0.0
		for j, je := range e.ests {
			u += je.Cover()
			if math.Abs(je.Cover()-truth[j]) <= je.coverHalfWidth(e.Z()) {
				covered[j]++
			}
		}
		shares = append(shares, e.ests[1].Cover()/u)
	}
	slices.Sort(shares)
	p5, p95 := shares[seeds*5/100], shares[seeds*95/100-1]
	t.Logf("west cover share p5 %.3f p95 %.3f; intervals cover c_j in %v / %d seeds", p5, p95, covered, seeds)
	if p5 < 0.305 || p95 > 0.362 {
		t.Errorf("west cover share p5 %.3f, p95 %.3f: want within [0.305, 0.362] around 1/3", p5, p95)
	}
	for j, c := range covered {
		if c < seeds*85/100 {
			t.Errorf("join %d: ĉ ± half-width covers c = %v in %d / %d seeds, want ≥ 85 %%", j, truth[j], c, seeds)
		}
	}
}
