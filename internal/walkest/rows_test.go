package walkest

import (
	"math"
	"slices"
	"testing"

	"sampleunion/internal/join"
	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
	"sampleunion/internal/tpch"
)

// walkAll retains n walks of every join through StepJoin and returns
// each join's successful walks' tuples as WalkInto wrote them, in pool
// order.
func walkAll(e *Estimator, n int, g *rng.RNG) [][]relation.Tuple {
	out := make([][]relation.Tuple, len(e.ests))
	for j := range e.ests {
		for range n {
			tu := scratchFor(e.joins)
			if _, ok := e.StepJoin(j, tu, g); ok {
				out[j] = append(out[j], tu)
			}
		}
	}
	return out
}

// checkRows fails unless every retained walk of the joins not skipped
// rebuilds from its row ids the tuple its walk wrote.
func checkRows(t *testing.T, when string, e *Estimator, tuples [][]relation.Tuple, skip []bool) {
	t.Helper()
	for j, je := range e.ests {
		if skip[j] {
			continue
		}
		if len(je.samples) != len(tuples[j]) || len(je.rows) != len(je.samples)*je.width() {
			t.Fatalf("%s: %s retains %d walks in %d row ids, %d walks succeeded", when, je.J.Name(), len(je.samples), len(je.rows), len(tuples[j]))
		}
		for i, want := range tuples[j] {
			if got := tupleOf(je, i); !got.Equal(want) {
				t.Fatalf("%s: %s walk %d rebuilds %v, the walk wrote %v", when, je.J.Name(), i, got, want)
			}
		}
	}
}

// adopt makes join k hold tu, a result of join from: every relation of k
// gains tu's projection onto its attributes unless it has it already.
func adopt(k, from *join.Join, tu relation.Tuple) {
	for _, n := range k.Nodes() {
		s := n.Rel.Schema()
		row := make(relation.Tuple, s.Len())
		for a := range row {
			row[a] = tu[from.OutputSchema().Index(s.Attr(a))]
		}
		if !slices.ContainsFunc(n.Rel.Tuples(), row.Equal) {
			n.Rel.Append(row)
		}
	}
}

// cyclicUnion is a single-relation join J0(A, B, C, D) before a triangle
// R(A, B) ⋈ S(B, C) ⋈ T(C, A, D) whose residual is T, returned too: the
// walks take D from it. J0 holds two of the triangle's results.
func cyclicUnion(t *testing.T) ([]*join.Join, *relation.Relation) {
	t.Helper()
	r := relation.New("R", relation.NewSchema("A", "B"))
	s := relation.New("S", relation.NewSchema("B", "C"))
	x := relation.New("T", relation.NewSchema("C", "A", "D"))
	for i := 0; i < 30; i++ {
		r.AppendValues(relation.Value(i%5), relation.Value(i%6))
		s.AppendValues(relation.Value(i%6), relation.Value(i%7))
		x.AppendValues(relation.Value(i%7), relation.Value(i%5), relation.Value(i))
	}
	abcd := relation.New("ABCD", relation.NewSchema("A", "B", "C", "D"))
	abcd.AppendValues(0, 0, 0, 0)
	abcd.AppendValues(1, 1, 1, 1)
	j0, err := join.NewChain("J0", []*relation.Relation{abcd}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tri, err := join.NewCyclic("tri", []*relation.Relation{r, s, x},
		[]join.Edge{{A: 0, B: 1, Attr: "B"}, {A: 1, B: 2, Attr: "C"}, {A: 2, B: 0, Attr: "A"}}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	return []*join.Join{j0, tri}, x
}

// TestRetainedRowsRebuildTuples: a retained walk is its row ids, one per
// node and a residual row for a cyclic join, and they rebuild the tuple
// its walk wrote: over UQ1's chains, UQ3's tree J3 and a triangle. After
// the dirty join gains tuples the clean joins' walks hold, Refreshed
// derives their owners, ĉ and reprobed count as the full tuples do —
// Reowned over each written tuple Owners.Unmoved does not spare, from
// the owner it had — and the pools it shares still rebuild their tuples.
// With only UQ1's last join dirty no walk is probed, and none counts.
func TestRetainedRowsRebuildTuples(t *testing.T) {
	uq1, err := tpch.UQ1(tpch.Config{SF: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	uq3, err := tpch.UQ3(tpch.Config{SF: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cyclic, _ := cyclicUnion(t)
	for _, c := range []struct {
		name  string
		joins []*join.Join
		dirty int
	}{
		{"UQ1", uq1.Joins, 2},
		{"UQ1_last_dirty", uq1.Joins, len(uq1.Joins) - 1},
		{"UQ3", uq3.Joins, 0},
		{"cyclic", cyclic, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, err := New(c.joins, Options{})
			if err != nil {
				t.Fatal(err)
			}
			tuples := walkAll(e, 300, rng.New(61))
			for j, tu := range tuples {
				if len(tu) < 30 {
					t.Fatalf("%s kept %d of 300 walks: too few to say anything", c.joins[j].Name(), len(tu))
				}
			}
			dirty := make([]bool, len(c.joins))
			checkRows(t, "walked", e, tuples, dirty)
			dirty[c.dirty] = true
			adopted := 0
			for j := c.dirty + 1; j < len(c.joins); j++ {
				for i, s := range e.ests[j].samples {
					if s.Owner > c.dirty && adopted < 40 {
						adopt(c.joins[c.dirty], c.joins[j], tuples[j][i])
						adopted++
					}
				}
			}

			r, reprobed := e.Refreshed(dirty)
			want, moved := 0, 0
			for j, je := range r.ests {
				if dirty[j] {
					continue
				}
				full := e.ests[j].clone()
				for i, tu := range tuples[j] {
					s := &full.samples[i]
					if e.owners.Unmoved(j, s.Owner, dirty) {
						continue
					}
					want++
					if owner := e.owners.Reowned(j, tu, s.Owner, dirty); owner != s.Owner {
						s.Owner = owner
						moved++
					}
				}
				full.rederiveCover(j)
				if !slices.Equal(je.samples, full.samples) || math.Float64bits(je.Cover()) != math.Float64bits(full.Cover()) ||
					math.Float64bits(je.coverHalfWidth(1.645)) != math.Float64bits(full.coverHalfWidth(1.645)) {
					t.Errorf("%s: ĉ %v ± %v from row ids, %v ± %v from full tuples, or the owners differ", je.J.Name(),
						je.Cover(), je.coverHalfWidth(1.645), full.Cover(), full.coverHalfWidth(1.645))
				}
			}
			if reprobed != want {
				t.Errorf("reprobed %d walks, full tuples %d", reprobed, want)
			}
			if c.dirty == len(c.joins)-1 {
				// No owner lies past the last join: nothing is probed.
				if reprobed != 0 {
					t.Errorf("reprobed %d walks with only the last join dirty, want 0", reprobed)
				}
			} else if moved == 0 {
				t.Fatalf("%d tuples adopted and no owner moved: the refresh reads nothing", adopted)
			}
			t.Logf("%d walks reprobed, %d owners moved", reprobed, moved)
			checkRows(t, "refreshed", r, tuples, dirty)
		})
	}
}

// TestRetainedRowsOutliveResidualReconcile: a cyclic join's retained
// walks keep the residual state they read. A delete from the residual's
// member re-materializes it, so its row ids name other rows, and the
// walks still rebuild the tuples they wrote.
func TestRetainedRowsOutliveResidualReconcile(t *testing.T) {
	joins, member := cyclicUnion(t)
	e, err := New(joins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tuples := walkAll(e, 300, rng.New(62))
	tri := joins[1]
	read := tri.ResidualPart().View().Rel()
	if !member.Delete(0) {
		t.Fatal("row 0 not deleted")
	}
	tri.FreshenResidual()
	if now := tri.ResidualPart().View().Rel(); slices.Equal(now.Row(0), read.Row(0)) {
		t.Fatal("the residual kept its first row after the delete")
	}
	checkRows(t, "reconciled", e, tuples, make([]bool, len(joins)))
}
