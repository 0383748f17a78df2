package joinsample

import (
	"fmt"
	"math"
	"runtime"
	"slices"
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
func checkUniformBatch(t *testing.T, label string, s Sampler, seed int64, draws int) {
	t.Helper()
	results := execute(s.Join())
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
			t.Fatalf("%s: SampleManyInto made no attempts", label)
		}
		for i := 0; i < filled; i++ {
			idx, known := index[relation.TupleKey(out[i])]
			if !known {
				t.Fatalf("%s batch produced non-result %v", label, out[i])
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
		t.Errorf("%s batch: chi2 = %.1f over %v dof (limit %.1f); counts %v", label, chi2, dof, limit, counts)
	}
}

func TestBatchUniformEW(t *testing.T) { checkUniformBatch(t, "EW", NewEW(chainJoin(t)), 21, 30000) }
func TestBatchUniformEO(t *testing.T) { checkUniformBatch(t, "EO", NewEO(chainJoin(t)), 22, 30000) }
func TestBatchUniformEWCyclic(t *testing.T) {
	checkUniformBatch(t, "EW", NewEW(triangleJoin(t)), 24, 30000)
}
func TestBatchUniformEOCyclic(t *testing.T) {
	checkUniformBatch(t, "EO", NewEO(triangleJoin(t)), 25, 30000)
}

// wideChainJoin is chainJoin with fan-outs on both sides of
// join.LargeRows: R2's A = 1 and A = 3 segments (40 and 33 rows) are
// searched from a proportional guess, its A = 2 segment and R3's by
// bisection.
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

// TestBatchAcrossLargeRows re-runs the EW batch uniformity check on
// joins whose fan-outs straddle join.LargeRows, so that one batch finds
// rows by both searches of searchCum.
func TestBatchAcrossLargeRows(t *testing.T) {
	checkUniformBatch(t, "EW", NewEW(wideChainJoin(t)), 26, 30000)
	checkUniformBatch(t, "EW", NewEW(wideTriangleJoin(t)), 27, 30000)
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

// TestSegmentDrawsIndependentOfStorage: how a weight segment is stored
// does not change what it draws. Under degraded weights — highly skewed,
// zero, and totals past 2^53 (where the retired float derivation could
// not even address every row) — each case is drawn at its own length and
// tiled past join.LargeRows, so both searches run. EW.drawRow over the
// segment held flat, held as a join.LargeSegment of uneven blocks (one
// row, join.BlockRows, the rest) in one group, and held in uneven blocks
// under uneven groups (one block, two, the rest) must reproduce the
// weight distribution, and draw the same rows seed for seed as one
// Uint64n below the total and slices.BinarySearch; the weights times 3,
// held as own sums at scale 3, draw the rows the tripled sums do. Then,
// after a patch
// reaches a large segment, the first draw through it allocates nothing:
// no table is built over a segment after a Refresh.
func TestSegmentDrawsIndependentOfStorage(t *testing.T) {
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
		for _, n := range []int{len(c.w), 4 * join.LargeRows} {
			w := make([]int64, n)
			rows := make([]int, n)
			for i := range w {
				w[i], rows[i] = c.w[i%len(c.w)], i
			}
			name := fmt.Sprintf("%s/n=%d", c.name, n)
			seg := refSegment(rows, w)
			if n > len(c.w) && len(seg.rows) < join.LargeRows {
				t.Fatalf("%s: %d positive rows, want join.LargeRows or more", name, len(seg.rows))
			}
			ewOf := func(tbl join.WeightTable) *EW {
				return &EW{w: &join.Weights{Nodes: []join.WeightTable{tbl}}}
			}
			flat := ewOf(join.WeightTable{Off: []int32{0, int32(len(seg.rows))}, Rows: seg.rows, Cum: seg.cum})
			large := ewOf(join.WeightTable{Off: []int32{0, 0}, Large: []*join.LargeSegment{blockedOf(seg.rows, seg.cum, []int{1, join.BlockRows}, nil)}})
			grouped := ewOf(join.WeightTable{Off: []int32{0, 0}, Large: []*join.LargeSegment{blockedOf(seg.rows, seg.cum, []int{1, join.BlockRows, 5, 7}, []int{1, 2})}})
			var total float64
			for _, wi := range w {
				total += float64(wi)
			}
			g := rng.New(31)
			freqs := drawFreqs(draws, func() int { r, _ := flat.drawRow(0, 0, g); return r })
			for r, wi := range w {
				got, want := float64(freqs[r])/draws, float64(wi)/total
				if wi == 0 && freqs[r] != 0 {
					t.Errorf("%s: zero-weight row %d drawn %d times", name, r, freqs[r])
				}
				// Loose frequency bound; huge-weight cases have rows
				// with want ~ 1e-16 that are simply never drawn.
				if math.Abs(got-want) > 0.01 {
					t.Errorf("%s: row %d frequency %.4f, want %.4f", name, r, got, want)
				}
			}
			gf, gl, gg, gr := rng.New(34), rng.New(34), rng.New(34), rng.New(34)
			for i := 0; i < 10000; i++ {
				x := int64(gr.Uint64n(uint64(seg.cum[len(seg.cum)-1])))
				want, _ := slices.BinarySearch(seg.cum, x+1)
				f, _ := flat.drawRow(0, 0, gf)
				l, _ := large.drawRow(0, 0, gl)
				m, _ := grouped.drawRow(0, 0, gg)
				if f != int(seg.rows[want]) || l != f || m != f {
					t.Fatalf("%s draw %d: flat row %d, large row %d, grouped row %d, reference row %d", name, i, f, l, m, seg.rows[want])
				}
			}

			// The weights times 3, held as sums at scale 1 and as the
			// rows' own sums at scale 3, flat and large: the draws are the
			// same rows, seed for seed.
			const scale = 3
			scaledCum := make([]int64, len(seg.cum))
			for i, c := range seg.cum {
				scaledCum[i] = scale * c
			}
			off := []int32{0, int32(len(seg.rows))}
			times := ewOf(join.WeightTable{Off: off, Rows: seg.rows, Cum: scaledCum})
			flatScaled := ewOf(join.WeightTable{Off: off, Rows: seg.rows, Cum: seg.cum, Scale: []int64{scale}})
			blocked := blockedOf(seg.rows, seg.cum, []int{join.BlockRows, 1}, []int{1})
			blocked.Scale = scale
			largeScaled := ewOf(join.WeightTable{Off: []int32{0, 0}, Large: []*join.LargeSegment{blocked}})
			gt, gf, gl := rng.New(36), rng.New(36), rng.New(36)
			for i := 0; i < 10000; i++ {
				want, _ := times.drawRow(0, 0, gt)
				f, _ := flatScaled.drawRow(0, 0, gf)
				l, _ := largeScaled.drawRow(0, 0, gl)
				if f != want || l != want {
					t.Fatalf("%s draw %d at scale %d: flat row %d, large row %d, scaled sums' row %d", name, i, scale, f, l, want)
				}
			}
		}
	}

	c := newFanoutChain(t, 1, 2*join.LargeRows)
	prev := NewEW(c.j)
	c.touch(0)
	ew := newEWFrom(t, c.j, prev)
	if rows, _, _, seg := flatSegment(&ew.w.Nodes[1], 0); seg == nil || !slices.Equal(ew.Patch().Touched[1], []int32{0}) {
		t.Fatalf("the patch did not rewrite mid's one large segment (%d rows, patch %+v)", len(rows), ew.Patch())
	}
	out, rowOf := mkBatch(c.j, 1)
	g := rng.New(35)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	filled, _ := ew.SampleManyInto(out, rowOf, 1, g)
	runtime.ReadMemStats(&after)
	if filled != 1 {
		t.Fatalf("the draw through the patched segment filled %d of 1", filled)
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("the first draw through a patched large segment allocated %d objects, want 0", n)
	}
}

// TestBatchInvalidationAfterMutation pins the invalidation wiring: a
// live mutation bumps the relation versions, the stale EW keeps sampling
// its own immutable snapshot, and the rebuilt sampler — what Refresh
// creates for a dirty join — draws the post-mutation distribution, new
// rows included.
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
	// R2's A = 1 segment is a large one, drawn from before the mutation,
	// so staleness would surface.
	stale := NewEW(j)
	node := j.Nodes()[1]
	idxVerBefore := node.Rel.Index(node.AttrPos).Version()
	out, rowOf := mkBatch(j, 16)
	g := rng.New(41)
	// Draw pre-mutation.
	if filled, _ := stale.SampleManyInto(out, rowOf, 1000, g); filled != 16 {
		t.Fatalf("pre-mutation batch filled %d", filled)
	}
	preResults := len(execute(j))

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
	// no new rows) — its segments cannot see rows they were not built
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
	postResults := len(execute(j))
	if postResults == preResults {
		t.Fatal("mutation did not change the result set size")
	}
	checkUniformBatch(t, "EW refreshed", fresh, 42, 20000)
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
