package walkest

import (
	"math"
	"slices"
	"testing"

	"sampleunion/internal/join"
	"sampleunion/internal/overlap"
	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
)

// threeWayJoins builds three single-relation joins with a known
// overlap structure over tuple values 0..99:
//
//	J0: 0..59, J1: 30..89, J2: 50..99
//
// so every subset's overlap is a simple interval intersection.
func threeWayJoins(t *testing.T) []*join.Join {
	t.Helper()
	s := relation.NewSchema("V", "W")
	mk := func(name string, lo, hi int) *join.Join {
		r := relation.New(name+"_rel", s)
		for v := lo; v < hi; v++ {
			r.AppendValues(relation.Value(v), relation.Value(v*3))
		}
		j, err := join.NewChain(name, []*relation.Relation{r}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	return []*join.Join{mk("J0", 0, 60), mk("J1", 30, 90), mk("J2", 50, 100)}
}

// intervalOwner is f(v) over threeWayJoins, J0 extended to hi0: the first
// join that holds v (-1: none).
func intervalOwner(v, hi0 int) int {
	for i, lohi := range [][2]int{{0, hi0}, {30, 90}, {50, 100}} {
		if v >= lohi[0] && v < lohi[1] {
			return i
		}
	}
	return -1
}

// TestStepJoinOwners: every retained walk carries the first join that
// holds its value, and each join's cover estimate — its own walks it owns
// — approximates its cover region: J0 all 60 values, J1 60..89, J2
// 90..99.
func TestStepJoinOwners(t *testing.T) {
	joins := threeWayJoins(t)
	e, err := New(joins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := rng.New(51)
	tu := scratchFor(joins)
	for j := range joins {
		for i := 0; i < 4000; i++ {
			e.StepJoin(j, tu, g)
		}
	}
	for j, want := range []float64{60, 30, 10} {
		je := e.ests[j]
		for i, s := range je.samples {
			if v := tupleOf(je, i)[0]; s.Owner != intervalOwner(int(v), 60) {
				t.Fatalf("join %d walk of value %d: owner %d, want %d", j, v, s.Owner, intervalOwner(int(v), 60))
			}
		}
		if got := je.Cover(); math.Abs(got-want)/want > 0.2 {
			t.Errorf("cover[%d] = %.1f, want ~%.0f", j, got, want)
		}
	}
}

// TestWalkJoinRetainsNothing: the served walk is StepJoin without the
// pool. Seed for seed it lands on the same tuple with the same p(t) and —
// while its caller refines — the same owner and estimates, allocating
// nothing; told that refinement is over it probes no join and folds
// nothing in.
func TestWalkJoinRetainsNothing(t *testing.T) {
	joins := threeWayJoins(t)
	stepped, _ := New(joins, Options{})
	walked, _ := New(joins, Options{})
	gs, gw := rng.New(54), rng.New(54)
	scratch, stepTuple := scratchFor(joins), scratchFor(joins)
	for i := 0; i < 500; i++ {
		want, ok1 := stepped.StepJoin(1, stepTuple, gs)
		got, ok2 := walked.WalkJoin(1, scratch, true, gw)
		if ok1 != ok2 || got != want || ok2 && !scratch.Equal(stepTuple) {
			t.Fatalf("walk %d: WalkJoin %+v %v, StepJoin %+v %v", i, got, scratch, want, stepTuple)
		}
	}
	je := walked.ests[1]
	if len(je.samples) != 0 || len(je.rows) != 0 {
		t.Errorf("a served walk retained %d samples, %d row ids", len(je.samples), len(je.rows))
	}
	if st := stepped.ests[1]; je.n != st.n || je.size != st.size || je.cover != st.cover {
		t.Error("refining walks and retained walks disagree on the estimates")
	}
	if allocs := testing.AllocsPerRun(100, func() { walked.WalkJoin(1, scratch, true, gw) }); allocs != 0 {
		t.Errorf("a served walk allocates %.1f times", allocs)
	}

	n, size, cover := je.n, je.size, je.cover
	for i := 0; i < 200; i++ {
		if sm, ok := walked.WalkJoin(1, scratch, false, gw); !ok || sm.Owner != -1 {
			t.Fatalf("frozen walk: ok=%v owner=%d", ok, sm.Owner)
		}
	}
	if je.n != n || je.size != size || je.cover != cover {
		t.Errorf("frozen walks moved the estimates: %d walks, was %d", je.n, n)
	}
}

// TestCoverEstimateUsesOwnWalks: a join's cover comes from its own walks
// alone. With only J1 walked, ĉ_1 is J1's region (60..89) and the joins
// without walks estimate nothing.
func TestCoverEstimateUsesOwnWalks(t *testing.T) {
	joins := threeWayJoins(t)
	e, err := New(joins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := rng.New(52)
	tu := scratchFor(joins)
	for i := 0; i < 2000; i++ {
		e.StepJoin(1, tu, g)
	}
	if got := e.ests[1].Cover(); math.Abs(got-30)/30 > 0.2 {
		t.Errorf("cover[1] = %.1f, want ~30", got)
	}
	for _, j := range []int{0, 2} {
		if je := e.ests[j]; je.Cover() != 0 || je.Walks() != 0 {
			t.Errorf("join %d: cover %v from %d walks without walking it", j, je.Cover(), je.Walks())
		}
	}
}

// TestTableAgainstExactOnThreeWay: sizes and cover sizes against the
// exact overlap table, and Û = Σ ĉ against the exact union.
func TestTableAgainstExactOnThreeWay(t *testing.T) {
	joins := threeWayJoins(t)
	// Force the full budget so the cover fractions converge tightly.
	e, err := New(joins, Options{MaxWalks: 6000, TargetRel: 0.01, MinWalks: 6000})
	if err != nil {
		t.Fatal(err)
	}
	e.Warmup(rng.New(53))
	exact, exactUnion, err := overlap.Exact(joins)
	if err != nil {
		t.Fatal(err)
	}
	if exactUnion != 100 {
		t.Fatalf("fixture union = %d", exactUnion)
	}
	cover, u := exact.CoverSizes(), 0.0
	for j, je := range e.ests {
		if je.Size() != exact.JoinSize(j) {
			t.Errorf("size[%d] = %.1f, want %.0f", j, je.Size(), exact.JoinSize(j))
		}
		if math.Abs(je.Cover()-cover[j])/cover[j] > 0.2 {
			t.Errorf("cover[%d] = %.1f, want ~%.0f", j, je.Cover(), cover[j])
		}
		u += je.Cover()
	}
	if math.Abs(u-100) > 8 {
		t.Errorf("union size = %.1f, want ~100", u)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MaxWalks != 1000 || o.Z != 1.645 || o.TargetRel != 0.1 || o.MinWalks != 64 {
		t.Errorf("defaults = %+v", o)
	}
	o2 := Options{MaxWalks: 5, Z: 2, TargetRel: 0.5, MinWalks: 2}.withDefaults()
	if o2.MaxWalks != 5 || o2.Z != 2 || o2.TargetRel != 0.5 || o2.MinWalks != 2 {
		t.Errorf("explicit options overridden: %+v", o2)
	}
}

// TestRefreshedReprobesRetainedWalks: after J0's relation gains the
// values 60..79, Refreshed with J0 dirty must reset J0, leave the clean
// joins' walk counts and sizes alone, and re-derive their cover estimates
// from the walks they retained — each walk's owner agreeing with what the
// joins now contain, ĉ with the owners (J1's region shrinks to 80..89, J2's
// stays 90..99), and the estimator it was taken from with itself.
func TestRefreshedReprobesRetainedWalks(t *testing.T) {
	joins := threeWayJoins(t)
	e, err := New(joins, Options{MaxWalks: 2000, TargetRel: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	e.Warmup(rng.New(52))
	before := []float64{e.ests[1].Cover(), e.ests[2].Cover()}
	rel := joins[0].Nodes()[0].Rel
	for v := 60; v < 80; v++ {
		rel.AppendValues(relation.Value(v), relation.Value(v*3))
	}
	dirty := []bool{true, false, false}
	r, reprobed := e.Refreshed(dirty)
	want := 0 // the retained walks the owner test does not spare: with J0 dirty, all of them
	for j := 1; j < 3; j++ {
		for _, s := range e.ests[j].samples {
			if !e.owners.Unmoved(j, s.Owner, dirty) {
				want++
			}
		}
	}
	if all := len(e.ests[1].samples) + len(e.ests[2].samples); reprobed != want || want != all {
		t.Errorf("reprobed %d walks, want the %d probed, all %d the clean joins retain", reprobed, want, all)
	}
	if je := r.ests[0]; je.Walks() != 0 || je.Size() != 0 || je.Cover() != 0 {
		t.Errorf("dirty join kept state: %d walks, size %v, cover %v", je.Walks(), je.Size(), je.Cover())
	}
	for j := 1; j < 3; j++ {
		je := r.ests[j]
		if je.Walks() != e.ests[j].Walks() || je.Size() != e.ests[j].Size() {
			t.Errorf("clean join %d: %d walks size %v, had %d size %v",
				j, je.Walks(), je.Size(), e.ests[j].Walks(), e.ests[j].Size())
		}
		sum := 0.0
		for i, s := range je.samples {
			if v := tupleOf(je, i)[0]; s.Owner != intervalOwner(int(v), 80) {
				t.Fatalf("join %d walk of value %d: owner %d, want %d", j, v, s.Owner, intervalOwner(int(v), 80))
			}
			sum += coverObservation(s, j)
		}
		if want := sum / float64(je.Walks()); math.Abs(je.Cover()-want) > 1e-9*want {
			t.Errorf("join %d: ĉ %v, retained walks give %v", j, je.Cover(), want)
		}
	}
	if got := r.ests[1].Cover(); math.Abs(got-10)/10 > 0.2 {
		t.Errorf("ĉ_1 = %.1f after the append, want ~10", got)
	}
	if got := r.ests[2].Cover(); math.Abs(got-before[1]) > 1e-9*before[1] {
		t.Errorf("ĉ_2 moved to %.1f, was %.1f: no earlier join gained its values", got, before[1])
	}
	if got := e.ests[1].Cover(); got != before[0] {
		t.Errorf("Refreshed moved the receiver's estimate: %v, was %v", got, before[0])
	}
	// Nothing dirty: a plain copy, nothing probed.
	if c, n := e.Refreshed(make([]bool, 3)); n != 0 || c.ests[1].Cover() != before[0] {
		t.Errorf("clean Refreshed probed %d walks, estimate %v (was %v)", n, c.ests[1].Cover(), before[0])
	}
}

// TestRefreshedReprobesAfterDeletes: after J0's relation loses the values
// 40..59, J0 is dirty and the walks it owned must find their next owner,
// which no refresh of J0 alone can tell: J2's walks of 50..59 now belong
// to J1, and J1's walks of 40..59 to J1 itself. Every retained walk agrees
// with what the joins now contain, and ĉ with the retained walks.
func TestRefreshedReprobesAfterDeletes(t *testing.T) {
	joins := threeWayJoins(t)
	e, err := New(joins, Options{MaxWalks: 2000, TargetRel: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	e.Warmup(rng.New(55))
	rel := joins[0].Nodes()[0].Rel
	for i := 40; i < 60; i++ {
		if !rel.Delete(i) {
			t.Fatalf("row %d not deleted", i)
		}
	}
	r, _ := e.Refreshed([]bool{true, false, false})
	for j, want := range map[int]float64{1: 50, 2: 10} {
		je, moved := r.ests[j], 0
		sum := 0.0
		for i, s := range je.samples {
			v := int(tupleOf(je, i)[0])
			if was := e.ests[j].samples[i]; was.Owner == 0 && v >= 40 {
				moved++
			}
			if want := intervalOwner(v, 40); s.Owner != want {
				t.Fatalf("join %d walk of value %d: owner %d, want %d", j, v, s.Owner, want)
			}
			sum += coverObservation(s, j)
		}
		if moved == 0 {
			t.Fatalf("join %d: no retained walk was J0's before the deletes", j)
		}
		if w := sum / float64(je.Walks()); math.Abs(je.Cover()-w) > 1e-9*w {
			t.Errorf("join %d: ĉ %v, retained walks give %v", j, je.Cover(), w)
		}
		if got := je.Cover(); math.Abs(got-want)/want > 0.2 {
			t.Errorf("ĉ_%d = %.1f after the deletes, want ~%.0f", j, got, want)
		}
	}
}

// TestRefreshedSharesUnmovedPools: when a dirty join gains no value a
// clean join's walks hold, no owner moves, so each clean join's refreshed
// estimate shares its predecessor's pool instead of copying it, and its
// estimates are bit for bit those a copied pool gives.
func TestRefreshedSharesUnmovedPools(t *testing.T) {
	joins := threeWayJoins(t)
	e, err := New(joins, Options{MaxWalks: 2000, TargetRel: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	e.Warmup(rng.New(52))
	joins[0].Nodes()[0].Rel.AppendValues(1000, 3000) // no other join holds 1000
	r, _ := e.Refreshed([]bool{true, false, false})
	for j := 1; j < 3; j++ {
		was, now := e.ests[j], r.ests[j]
		if len(now.samples) == 0 || &now.samples[0] != &was.samples[0] || &now.rows[0] != &was.rows[0] {
			t.Errorf("join %d: the refreshed pool of %d walks is a copy, want the predecessor's", j, len(now.samples))
		}
		copied := was.clone()
		copied.rederiveCover(j)
		if math.Float64bits(now.Cover()) != math.Float64bits(copied.Cover()) ||
			math.Float64bits(now.coverHalfWidth(1.645)) != math.Float64bits(copied.coverHalfWidth(1.645)) ||
			math.Float64bits(now.Size()) != math.Float64bits(copied.Size()) {
			t.Errorf("join %d: ĉ %v ± %v, |Ĵ| %v; from a copied pool %v ± %v, %v", j,
				now.Cover(), now.coverHalfWidth(1.645), now.Size(), copied.Cover(), copied.coverHalfWidth(1.645), copied.Size())
		}
	}
	// A walk retained after the refresh must not land in the shared pool,
	// nor write its rows past the predecessor's.
	before, rows := len(e.ests[1].samples), slices.Clone(e.ests[1].rows[:cap(e.ests[1].rows)])
	tu := scratchFor(joins)
	for i := 0; i < 50; i++ {
		r.StepJoin(1, tu, rng.New(int64(i)))
	}
	if len(e.ests[1].samples) != before || &r.ests[1].samples[0] == &e.ests[1].samples[0] ||
		&r.ests[1].rows[0] == &e.ests[1].rows[0] || !slices.Equal(rows, e.ests[1].rows[:cap(e.ests[1].rows)]) {
		t.Error("walks retained by the refreshed estimate reached the predecessor's pool")
	}
}
