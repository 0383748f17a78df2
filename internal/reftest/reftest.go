// Package reftest is the sampler's differential-testing harness: a
// brute-force reference join enumerator that shares nothing with the
// engine's index, membership, or sampling machinery (it reads only
// schemas and live tuple copies), plus chi-square helpers for checking
// empirical draw frequencies against the distribution the paper proves.
// Property tests drive randomized schemas and instances — chain, tree,
// cyclic, predicated, disjoint — through both implementations, check
// sampler output membership exactly, and test uniformity statistically;
// they run statically and again after random mutation bursts and a
// session refresh.
package reftest

import (
	"math"

	"sampleunion/internal/relation"
)

// JoinResults enumerates the natural join of the relations by nested
// backtracking over raw live tuples — no indexes, no membership tables,
// no residual materialization. Attributes sharing a name must be equal
// (the engine's §2 convention); the result is keyed and projected onto
// the out schema. The returned map is key -> tuple in out order.
func JoinResults(rels []*relation.Relation, out *relation.Schema) map[string]relation.Tuple {
	rows := make([][]relation.Tuple, len(rels))
	for i, r := range rels {
		rows[i] = r.Tuples()
	}
	results := make(map[string]relation.Tuple)
	binding := make(map[string]relation.Value)
	var rec func(k int)
	rec = func(k int) {
		if k == len(rels) {
			t := make(relation.Tuple, out.Len())
			for i := 0; i < out.Len(); i++ {
				v, ok := binding[out.Attr(i)]
				if !ok {
					return // output attribute unbound: not a valid scenario
				}
				t[i] = v
			}
			results[relation.TupleKey(t)] = t
			return
		}
		attrs := rels[k].Schema().Attrs()
		for _, row := range rows[k] {
			ok := true
			bound := make([]string, 0, len(attrs))
			for a, name := range attrs {
				if v, seen := binding[name]; seen {
					if v != row[a] {
						ok = false
						break
					}
					continue
				}
				binding[name] = row[a]
				bound = append(bound, name)
			}
			if ok {
				rec(k + 1)
			}
			for _, name := range bound {
				delete(binding, name)
			}
		}
	}
	rec(0)
	return results
}

// UnionResults merges per-join reference results into the set union,
// also returning each tuple's multiplicity (how many joins produce it —
// the disjoint-union weight of Definition 1).
func UnionResults(perJoin []map[string]relation.Tuple) (union map[string]relation.Tuple, mult map[string]int) {
	union = make(map[string]relation.Tuple)
	mult = make(map[string]int)
	for _, m := range perJoin {
		for k, t := range m {
			union[k] = t
			mult[k]++
		}
	}
	return union, mult
}

// ChiSquare computes the chi-square statistic of observed counts
// against expected weights (normalized internally to the observed
// total). Keys missing from observed count as zero.
func ChiSquare(observed map[string]int, expected map[string]float64) (stat float64, df int) {
	total := 0
	for _, c := range observed {
		total += c
	}
	var wsum float64
	for _, w := range expected {
		wsum += w
	}
	for k, w := range expected {
		exp := float64(total) * w / wsum
		d := float64(observed[k]) - exp
		stat += d * d / exp
	}
	return stat, len(expected) - 1
}

// ChiSquareCritical approximates the chi-square quantile for the given
// degrees of freedom at a very small tail probability (z standard
// normal deviations, Wilson–Hilferty). Tests use z around 5 — roughly
// p < 3e-7 per scenario — so a pass is expected for every seed unless
// the sampler is genuinely biased.
func ChiSquareCritical(df int, z float64) float64 {
	if df <= 0 {
		return 0
	}
	d := float64(df)
	h := 2.0 / (9.0 * d)
	x := 1 - h + z*math.Sqrt(h)
	return d * x * x * x
}
