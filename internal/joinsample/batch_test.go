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

// wideChainJoin is chainJoin with fan-outs on both sides of
// join.LargeRows: R2's A = 1 and A = 3 segments (40 and 33 rows) draw
// through alias tables, its A = 2 segment and R3's through prefix sums.
func wideChainJoin(t *testing.T) *join.Join {
	t.Helper()
	r1 := relation.MustFromTuples("R1", relation.NewSchema("A", "X"), []relation.Tuple{
		{1, 100}, {2, 200}, {3, 300},
	})
	r2 := relation.New("R2", relation.NewSchema("A", "B", "P"))
	for i := 0; i < 40; i++ {
		r2.AppendValues(1, relation.Value(10+i%2), relation.Value(i))
	}
	for i := 0; i < 3; i++ {
		r2.AppendValues(2, 10, relation.Value(100+i))
	}
	for i := 0; i < 33; i++ {
		r2.AppendValues(3, 11, relation.Value(200+i))
	}
	r2.AppendValues(9, 99, 0)
	r3 := relation.MustFromTuples("R3", relation.NewSchema("B", "Y"), []relation.Tuple{
		{10, 7}, {10, 8}, {11, 9},
	})
	j, err := join.NewChain("J", []*relation.Relation{r1, r2, r3}, []string{"A", "B"})
	if err != nil {
		t.Fatalf("NewChain: %v", err)
	}
	return j
}

// wideTriangleJoin is triangleJoin whose skeleton has an S segment of 40
// rows (B = 10) beside segments of one and two.
func wideTriangleJoin(t *testing.T) *join.Join {
	t.Helper()
	r := relation.MustFromTuples("R", relation.NewSchema("A", "B"), []relation.Tuple{
		{1, 10}, {1, 11}, {2, 10}, {3, 12},
	})
	s := relation.New("S", relation.NewSchema("B", "C", "P"))
	for i := 0; i < 40; i++ {
		s.AppendValues(10, relation.Value(100+i%2), relation.Value(i))
	}
	s.AppendValues(11, 100, 40)
	s.AppendValues(11, 100, 41)
	s.AppendValues(12, 102, 42)
	u := relation.MustFromTuples("T", relation.NewSchema("C", "A"), []relation.Tuple{
		{100, 1}, {100, 2}, {101, 1}, {102, 9},
	})
	j, err := join.NewCyclic("tri", []*relation.Relation{r, s, u},
		[]join.Edge{{A: 0, B: 1, Attr: "B"}, {A: 1, B: 2, Attr: "C"}, {A: 2, B: 0, Attr: "A"}}, nil)
	if err != nil {
		t.Fatalf("NewCyclic: %v", err)
	}
	return j
}

// TestBatchAliasForced re-runs the EW batch uniformity check on joins
// whose fan-outs straddle join.LargeRows, so that one batch selects rows
// through alias tables and through prefix sums.
func TestBatchAliasForced(t *testing.T) {
	checkUniformBatch(t, NewEW(wideChainJoin(t)), 26, 30000)
	checkUniformBatch(t, NewEW(wideTriangleJoin(t)), 27, 30000)
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
// bounded draw, and EW.drawRow over the segment held flat and held as a
// large segment with its alias table — must reproduce the weight
// distribution.
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
		large := &join.LargeSegment{Rows: seg.rows, Cum: seg.cum}
		ewOf := func(tbl join.WeightTable) *EW {
			return &EW{w: &join.Weights{Nodes: []join.WeightTable{tbl}}}
		}
		flat := ewOf(join.WeightTable{Off: []int32{0, int32(len(seg.rows))}, Rows: seg.rows, Cum: seg.cum})
		aliased := ewOf(join.WeightTable{Off: []int32{0, 0}, Large: []*join.LargeSegment{large}})
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
		ga, ref := rng.New(32), rng.NewAliasCum(seg.cum)
		check("alias", drawFreqs(draws, func() int { r, _ := aliased.drawRow(0, 0, ga); return r }))
		// drawRow spent the stream the segment's own table does.
		ga, gr := rng.New(34), rng.New(34)
		for i := 0; i < 1000; i++ {
			if r, _ := aliased.drawRow(0, 0, ga); r != int(seg.rows[ref.Draw(gr)]) {
				t.Fatalf("%s: large-segment draw %d left the alias table's stream", c.name, i)
			}
		}
		gt := rng.New(33)
		check("flat", drawFreqs(draws, func() int { r, _ := flat.drawRow(0, 0, gt); return r }))
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
	r2 := relation.New("R2", relation.NewSchema("A", "B"))
	for i := 0; i < 40; i++ {
		r2.AppendValues(1, relation.Value(100+i))
	}
	r2.AppendValues(2, 12)
	j, err := join.NewChain("J", []*relation.Relation{r1, r2}, []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	// R2's A = 1 segment is a large one: its alias table is built before
	// the mutation, so staleness would surface.
	stale := NewEW(j)
	node := j.Nodes()[1]
	idxVerBefore := node.Rel.Index(node.AttrPos).Version()
	out, rowOf := mkBatch(j, 16)
	g := rng.New(41)
	// Build the alias tables pre-mutation.
	if filled, _ := stale.SampleManyInto(out, rowOf, 1000, g); filled != 16 {
		t.Fatalf("pre-mutation batch filled %d", filled)
	}
	preResults := len(j.Execute())

	// Mutate: a new A value with a fan-out past join.LargeRows, plus a
	// delete.
	for i := 0; i < 35; i++ {
		r2.AppendValues(3, relation.Value(200+i))
	}
	r1.AppendRows([]relation.Tuple{{3, 300}})
	r2.Delete(40) // drop {2,12}: customer 2 loses its only order

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
	fresh := NewEW(j)
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
