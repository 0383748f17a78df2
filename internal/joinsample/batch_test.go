package joinsample

import (
	"math"
	"testing"

	"sampleunion/internal/join"
	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
)

// mkBatch allocates a batch of k distinct scratch tuples (one flat
// backing array) plus walk scratch for SampleManyInto.
func mkBatch(j *join.Join, k int) ([]relation.Tuple, []int) {
	arity := j.OutputSchema().Len()
	flat := make(relation.Tuple, k*arity)
	out := make([]relation.Tuple, k)
	for i := range out {
		out[i] = flat[i*arity : (i+1)*arity : (i+1)*arity]
	}
	return out, make([]int, len(j.Nodes()))
}

// checkUniformBatch is checkUniform through SampleManyInto: batch
// draws must be uniform over the exact result set too.
func checkUniformBatch(t *testing.T, s Sampler, seed int64, draws int) {
	t.Helper()
	results := s.Join().Execute()
	if len(results) == 0 {
		t.Fatal("fixture join is empty")
	}
	index := make(map[string]int, len(results))
	for i, tu := range results {
		index[relation.TupleKey(tu)] = i
	}
	counts := make([]int, len(results))
	out, rowOf := mkBatch(s.Join(), 64)
	g := rng.New(seed)
	accepted := 0
	for accepted < draws {
		filled, tries := s.SampleManyInto(out, rowOf, 64*1000, g)
		if tries == 0 {
			t.Fatalf("%s: SampleManyInto made no attempts", s.Method())
		}
		for i := 0; i < filled; i++ {
			idx, known := index[relation.TupleKey(out[i])]
			if !known {
				t.Fatalf("%s batch produced non-result %v", s.Method(), out[i])
			}
			counts[idx]++
		}
		accepted += filled
	}
	expected := float64(accepted) / float64(len(results))
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	dof := float64(len(results) - 1)
	limit := dof + 6*math.Sqrt(2*dof) + 6
	if chi2 > limit {
		t.Errorf("%s batch: chi2 = %.1f over %v dof (limit %.1f); counts %v", s.Method(), chi2, dof, limit, counts)
	}
}

func TestBatchUniformEW(t *testing.T)       { checkUniformBatch(t, NewEW(chainJoin(t)), 21, 30000) }
func TestBatchUniformEO(t *testing.T)       { checkUniformBatch(t, NewEO(chainJoin(t)), 22, 30000) }
func TestBatchUniformWJ(t *testing.T)       { checkUniformBatch(t, NewWJ(chainJoin(t)), 23, 30000) }
func TestBatchUniformEWCyclic(t *testing.T) { checkUniformBatch(t, NewEW(triangleJoin(t)), 24, 30000) }
func TestBatchUniformEOCyclic(t *testing.T) { checkUniformBatch(t, NewEO(triangleJoin(t)), 25, 30000) }

// TestBatchAliasForced re-runs the EW batch uniformity check with the
// alias threshold at zero, so every weighted row selection goes through
// an alias table even on tiny fan-outs.
func TestBatchAliasForced(t *testing.T) {
	checkUniformBatch(t, NewEWAlias(chainJoin(t), 0), 26, 30000)
	checkUniformBatch(t, NewEWAlias(triangleJoin(t), 0), 27, 30000)
}

// TestBatchRespectsMaxTries: the batch call must consume at most
// maxTries attempts and report them exactly (EO rejects, so small
// budgets return partial fills).
func TestBatchRespectsMaxTries(t *testing.T) {
	e := NewEO(chainJoin(t))
	out, rowOf := mkBatch(e.Join(), 32)
	g := rng.New(28)
	for _, budget := range []int{0, 1, 3, 17} {
		filled, tries := e.SampleManyInto(out, rowOf, budget, g)
		if tries > budget {
			t.Fatalf("budget %d: consumed %d tries", budget, tries)
		}
		if filled > tries {
			t.Fatalf("budget %d: filled %d > tries %d", budget, filled, tries)
		}
	}
	// EW on a tree join never rejects: a sufficient budget fills the
	// whole batch with exactly len(out) attempts.
	ew := NewEW(chainJoin(t))
	filled, tries := ew.SampleManyInto(out, rowOf, 1000, g)
	if filled != len(out) || tries != len(out) {
		t.Fatalf("EW batch: filled=%d tries=%d, want %d/%d", filled, tries, len(out), len(out))
	}
}

// drawFreqs draws n rows through the given selector and returns
// per-row frequencies.
func drawFreqs(n int, draw func() int) map[int]int {
	counts := make(map[int]int)
	for i := 0; i < n; i++ {
		counts[draw()]++
	}
	return counts
}

// TestAliasMatchesPrefixSums is the alias-vs-prefix-sum property test
// under degraded weights: highly skewed weights, zero weights, and
// totals past 2^53 (where the retired float derivation could not even
// address every row). Every selection path over a weight segment — the
// bounded draw, the alias table, and EW.drawRow on either side of its
// threshold — must reproduce the weight distribution.
func TestAliasMatchesPrefixSums(t *testing.T) {
	cases := []struct {
		name string
		w    []int64
	}{
		{"uniform", []int64{5, 5, 5, 5}},
		{"skewed", []int64{1, 1 << 30, 7, 1 << 20, 3}},
		{"zeros", []int64{0, 4, 0, 0, 9, 0, 2}},
		{"huge", []int64{1 << 53, 1, 1 << 52, 1}},
	}
	const draws = 200000
	for _, c := range cases {
		rows := make([]int, len(c.w))
		for i := range rows {
			rows[i] = i
		}
		seg := refSegment(rows, c.w)
		tbl := join.WeightTable{Off: []int32{0, int32(len(seg.rows))}, Rows: seg.rows, Cum: seg.cum}
		ewAt := func(aliasMin int) *EW {
			return &EW{
				w:        &join.Weights{Nodes: []join.WeightTable{tbl}},
				alias:    []nodeAlias{newNodeAlias(&tbl, aliasMin)},
				aliasMin: aliasMin,
			}
		}
		var total float64
		for _, w := range c.w {
			if w > 0 {
				total += float64(w)
			}
		}
		check := func(name string, freqs map[int]int) {
			for r, w := range c.w {
				got := float64(freqs[r]) / draws
				want := float64(w) / total
				if w == 0 && freqs[r] != 0 {
					t.Errorf("%s/%s: zero-weight row %d drawn %d times", c.name, name, r, freqs[r])
				}
				// Loose frequency bound; huge-weight cases have rows
				// with want ~ 1e-16 that are simply never drawn.
				if math.Abs(got-want) > 0.01 {
					t.Errorf("%s/%s: row %d frequency %.4f, want %.4f", c.name, name, r, got, want)
				}
			}
		}
		gp := rng.New(31)
		check("prefix", drawFreqs(draws, func() int { return int(seg.rows[drawBounded(seg.cum, gp)]) }))
		ga, forced := rng.New(32), ewAt(0)
		check("alias", drawFreqs(draws, func() int { r, _ := forced.drawRow(0, 0, ga); return r }))
		if forced.alias[0].find(0).Load() == nil {
			t.Errorf("%s: threshold 0 drew without building the alias table", c.name)
		}
		gt, never := rng.New(33), ewAt(NeverAlias)
		check("threshold", drawFreqs(draws, func() int { r, _ := never.drawRow(0, 0, gt); return r }))
		if len(never.alias[0].flat.slot) != 0 {
			t.Errorf("%s: NeverAlias reserved %d alias slots", c.name, len(never.alias[0].flat.slot))
		}
	}
}

// TestBatchInvalidationAfterMutation pins the alias-invalidation
// wiring: a live mutation bumps the relation versions, the stale EW
// (and the alias tables lazily built inside it) keeps sampling its own
// immutable snapshot, and the rebuilt sampler — what Refresh creates
// for a dirty join — draws the post-mutation distribution, new rows
// included.
func TestBatchInvalidationAfterMutation(t *testing.T) {
	r1 := relation.MustFromTuples("R1", relation.NewSchema("A", "X"), []relation.Tuple{
		{1, 100}, {2, 200},
	})
	r2 := relation.MustFromTuples("R2", relation.NewSchema("A", "B"), []relation.Tuple{
		{1, 10}, {1, 11}, {2, 12},
	})
	j, err := join.NewChain("J", []*relation.Relation{r1, r2}, []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	// Threshold zero forces alias tables so staleness would surface.
	stale := NewEWAlias(j, 0)
	node := j.Nodes()[1]
	idxVerBefore := node.Rel.Index(node.AttrPos).Version()
	out, rowOf := mkBatch(j, 16)
	g := rng.New(41)
	// Build the alias tables pre-mutation.
	if filled, _ := stale.SampleManyInto(out, rowOf, 1000, g); filled != 16 {
		t.Fatalf("pre-mutation batch filled %d", filled)
	}
	preResults := len(j.Execute())

	// Mutate: a new A value with heavy fan-out, plus a delete.
	r2.AppendRows([]relation.Tuple{{3, 13}, {3, 14}, {3, 15}})
	r1.AppendRows([]relation.Tuple{{3, 300}})
	r2.Delete(2) // drop {2,12}: customer 2 loses its only order

	if same := equalVersions(stale.StateVersions(), j.StateVersions()); same {
		t.Fatal("mutation did not bump the join state versions")
	}
	if v := node.Rel.Index(node.AttrPos).Version(); v <= idxVerBefore {
		t.Fatalf("index version did not advance: %d -> %d", idxVerBefore, v)
	}

	// The stale sampler must keep drawing its snapshot (old result set,
	// no new rows) — alias tables cannot see rows they were not built
	// over.
	for i := 0; i < 2000; i++ {
		filled, _ := stale.SampleManyInto(out[:1], rowOf, 1000, g)
		if filled != 1 {
			t.Fatal("stale sampler stopped producing")
		}
		if out[0][0] == 3 {
			t.Fatal("stale sampler drew a post-mutation row")
		}
	}

	// The rebuilt sampler (what Refresh does for a dirty join) must be
	// uniform over the new result set.
	fresh := NewEWAlias(j, 0)
	if !equalVersions(fresh.StateVersions(), j.StateVersions()) {
		t.Fatal("fresh sampler version snapshot mismatch")
	}
	postResults := len(j.Execute())
	if postResults == preResults {
		t.Fatal("mutation did not change the result set size")
	}
	checkUniformBatch(t, fresh, 42, 20000)
}

func equalVersions(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
