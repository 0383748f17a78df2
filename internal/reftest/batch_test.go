package reftest

import (
	"fmt"
	"math/rand"
	"testing"

	su "sampleunion"
	"sampleunion/internal/relation"
)

// twoSampleChi computes the two-sample chi-square statistic over the
// union of keys: with (roughly) equal totals, Σ (a-b)²/(a+b) is
// chi-square with k-1 degrees of freedom under the null hypothesis
// that both samples come from the same distribution.
func twoSampleChi(a, b map[string]int) (stat float64, df int) {
	keys := make(map[string]bool, len(a)+len(b))
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	for k := range keys {
		x, y := float64(a[k]), float64(b[k])
		if x+y == 0 {
			continue
		}
		d := x - y
		stat += d * d / (x + y)
	}
	return stat, len(keys) - 1
}

func countDraws(draws []relation.Tuple) map[string]int {
	obs := make(map[string]int)
	for _, t := range draws {
		obs[relation.TupleKey(t)]++
	}
	return obs
}

// TestDrawsMatchReferenceAcrossRefresh is the engine-vs-reference
// distribution property test: over randomized scenarios and both
// subroutines (exactCover), the draws must be membership-exact and
// chi-square-uniform against the brute-force reference — statically, and
// again after a random mutation burst and a refresh (which is what
// patches EW's weight tables).
func TestDrawsMatchReferenceAcrossRefresh(t *testing.T) {
	executed := 0
	for seed := int64(0); seed < 30; seed++ {
		sc := buildScenario(t, seed)
		sc.ensureNonEmpty()
		union, _ := sc.reference()
		if len(union) == 0 || len(union) > 300 {
			continue
		}
		sess, method := exactCover(t, sc.union, seed+1, seed%2 == 1)
		rnd := rand.New(rand.NewSource(seed + 5000))
		for phase := 0; phase < 2; phase++ {
			if phase == 1 {
				mutationBurst(rnd, sc.rels)
				sc.ensureNonEmpty()
				if err := sess.Refresh(); err != nil {
					t.Fatalf("seed %d (%s): refresh: %v", seed, sc.name, err)
				}
				union, _ = sc.reference()
				if len(union) == 0 || len(union) > 300 {
					break
				}
			}
			label := fmt.Sprintf("seed %d (%s, %s) phase %d", seed, sc.name, method, phase)
			n := drawCount(len(union))
			draws, _, err := sess.SampleSeeded(n, seed*11+1)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			checkDraws(t, label, draws, UniformWeights(union), true)
			executed++
		}
	}
	if executed < 10 {
		t.Fatalf("only %d scenario phases executed; generators drifted", executed)
	}
}

// TestBatchDisjointAndWhere covers the remaining entry points against
// the reference: disjoint draws follow the multiplicity weights of
// Definition 1, and predicate draws are uniform over the satisfying
// subset.
func TestBatchDisjointAndWhere(t *testing.T) {
	executed := 0
	for seed := int64(0); seed < 20; seed++ {
		sc := buildScenario(t, seed)
		sc.ensureNonEmpty()
		union, mult := sc.reference()
		if len(union) == 0 || len(union) > 300 {
			continue
		}
		sess, err := sc.union.Prepare(su.Options{Seed: seed + 1, Warmup: su.WarmupExact})
		if err != nil {
			t.Fatalf("seed %d (%s): prepare: %v", seed, sc.name, err)
		}
		n := drawCount(len(union))
		label := fmt.Sprintf("seed %d (%s)", seed, sc.name)

		dis, _, err := sess.SampleDisjointSeeded(n, seed*17+5)
		if err != nil {
			t.Fatalf("%s: disjoint: %v", label, err)
		}
		checkDraws(t, label+" disjoint", dis, DisjointWeights(mult), true)

		// Predicate: first output attribute <= 1 (values are drawn from
		// a small domain, so the subset is usually non-trivial).
		attr := sc.union.OutputSchema().Attr(0)
		pred := su.Cmp{Attr: attr, Op: su.LE, Val: 1}
		subset := make(map[string]relation.Tuple)
		for k, tu := range union {
			if pred.Eval(tu, sc.union.OutputSchema()) {
				subset[k] = tu
			}
		}
		if len(subset) == 0 || len(subset)*4 < len(union) {
			continue // too selective for sampling-time enforcement
		}
		wh, _, err := sess.SampleWhereSeeded(drawCount(len(subset)), pred, seed*19+7)
		if err != nil {
			t.Fatalf("%s: where: %v", label, err)
		}
		checkDraws(t, label+" where", wh, UniformWeights(subset), true)
		executed++
	}
	if executed < 5 {
		t.Fatalf("only %d scenarios executed; generators drifted", executed)
	}
}
