package core

import (
	"fmt"

	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
)

// SampleWhere implements the second alternative of §8.3: enforce a
// selection predicate during sampling by rejecting non-matching
// samples. Conditioning a uniform stream on the predicate leaves it
// uniform over the satisfying subset, so no parameter adjustment is
// needed — at the cost of an extra rejection factor of
// |σ(U)|/|U|, which is why the paper recommends this path only for
// predicates that are not very selective (push selective ones down to
// the relations instead, join.PushDown).
//
// Candidates are drawn in need-sized chunks (at least whereChunk at a
// time), so the rejection loop pays the engine's amortized per-draw
// price, and are read where the run wrote them (SampleView): only
// the kept tuples are copied, into one backing of exactly n tuples.
// maxDraws caps the total draws (0 means 1000·n) so that a predicate
// with empty support fails cleanly instead of looping forever.
func SampleWhere(s Run, schema *relation.Schema, pred relation.Predicate, n int, g *rng.RNG, maxDraws int) ([]relation.Tuple, error) {
	if maxDraws <= 0 {
		maxDraws = 1000 * n
	}
	k := schema.Len()
	flat := make([]relation.Value, 0, n*k)
	out := make([]relation.Tuple, 0, n)
	drawn := 0
	for len(out) < n {
		if drawn >= maxDraws {
			return nil, fmt.Errorf("core: predicate %s matched %d of %d samples; selectivity too low for sampling-time enforcement (push the predicate down instead)",
				pred, len(out), drawn)
		}
		want := max(n-len(out), whereChunk)
		if remaining := maxDraws - drawn; want > remaining {
			want = remaining
		}
		tuples, err := s.SampleView(want, g)
		if err != nil {
			return nil, err
		}
		drawn += len(tuples)
		for _, t := range tuples {
			if pred.Eval(t, schema) {
				flat = append(flat, t...)
				out = append(out, flat[len(flat)-k:len(flat):len(flat)])
				if len(out) == n {
					break
				}
			}
		}
	}
	return out, nil
}

// whereChunk is the smallest candidate request of the predicate
// rejection loop (pinned — seeded SampleWhere streams depend on it).
const whereChunk = 64
