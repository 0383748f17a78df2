package walkest

import (
	"maps"
	"math"
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

func TestStepJoinMasks(t *testing.T) {
	joins := threeWayJoins(t)
	e, err := New(joins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := rng.New(51)
	for i := 0; i < 4000; i++ {
		e.StepJoin(0, g)
	}
	// Every observed mask must include bit 0 and match the interval
	// structure: values < 30 -> 001; 30..49 -> 011; 50..59 -> 111.
	for mask, w := range e.wByMask[0] {
		if mask&1 == 0 {
			t.Fatalf("anchor bit missing from mask %b", mask)
		}
		if w <= 0 {
			t.Fatalf("non-positive weight for mask %b", mask)
		}
		switch mask {
		case 0b001, 0b011, 0b111:
		default:
			t.Fatalf("impossible membership mask %b for the fixture", mask)
		}
	}
	// Overlap estimates approximate interval sizes: |J0∩J1| = 30,
	// |J0∩J2| = 10, |J0∩J1∩J2| = 10.
	cases := []struct {
		mask uint
		want float64
	}{
		{0b011, 30}, {0b101, 10}, {0b111, 10},
	}
	for _, c := range cases {
		got := e.OverlapEstimate(c.mask)
		if math.Abs(got-c.want)/c.want > 0.2 {
			t.Errorf("overlap(%b) = %.1f, want ~%.0f", c.mask, got, c.want)
		}
	}
}

// TestWalkJoinRetainsNothing: the served walk is StepJoin without the
// pool. Seed for seed it lands on the same tuple with the same p(t) and —
// while its caller refines — the same mask and overlap counters, in the
// caller's tuple, allocating nothing; told that refinement is over it
// still feeds the size estimate, but probes no join and moves no counter.
func TestWalkJoinRetainsNothing(t *testing.T) {
	joins := threeWayJoins(t)
	stepped, _ := New(joins, Options{})
	walked, _ := New(joins, Options{})
	gs, gw := rng.New(54), rng.New(54)
	scratch := make(relation.Tuple, joins[1].OutputSchema().Len())
	for i := 0; i < 500; i++ {
		want, ok1 := stepped.StepJoin(1, gs)
		got, ok2 := walked.WalkJoin(1, scratch, true, gw)
		if ok1 != ok2 || got.P != want.P || got.Mask != want.Mask || !got.Tuple.Equal(want.Tuple) {
			t.Fatalf("walk %d: WalkJoin %+v, StepJoin %+v", i, got, want)
		}
		if ok2 && &got.Tuple[0] != &scratch[0] {
			t.Fatal("the walk did not land in the caller's tuple")
		}
	}
	je := walked.ests[1]
	if len(je.samples) != 0 || je.slab != nil {
		t.Errorf("a served walk retained %d samples, slab %v", len(je.samples), je.slab != nil)
	}
	if walked.wAll[1] != stepped.wAll[1] || !maps.Equal(walked.wByMask[1], stepped.wByMask[1]) || je.Size() != stepped.ests[1].Size() {
		t.Error("refining walks and retained walks disagree on the estimates")
	}
	if allocs := testing.AllocsPerRun(100, func() { walked.WalkJoin(1, scratch, true, gw) }); allocs != 0 {
		t.Errorf("a served walk allocates %.1f times", allocs)
	}

	all, byMask, n := walked.wAll[1], maps.Clone(walked.wByMask[1]), je.Walks()
	for i := 0; i < 200; i++ {
		if sm, ok := walked.WalkJoin(1, scratch, false, gw); !ok || sm.Mask != 0 {
			t.Fatalf("frozen walk: ok=%v mask=%b", ok, sm.Mask)
		}
	}
	if je.Walks() != n+200 {
		t.Errorf("frozen walks folded %d observations, want 200", je.Walks()-n)
	}
	if walked.wAll[1] != all || !maps.Equal(walked.wByMask[1], byMask) {
		t.Error("a frozen walk moved the overlap counters")
	}
}

func TestOverlapEstimateAnchorsOnSmallest(t *testing.T) {
	joins := threeWayJoins(t)
	e, err := New(joins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Only join 1 has walks: a mask {1,2} anchored at join 1 works, a
	// mask {0,1} anchored at join 0 has no observations yet.
	g := rng.New(52)
	for i := 0; i < 2000; i++ {
		e.StepJoin(1, g)
	}
	if got := e.OverlapEstimate(0b110); got <= 0 {
		t.Errorf("anchored-at-1 estimate = %f", got)
	}
	if got := e.OverlapEstimate(0b011); got != 0 {
		t.Errorf("estimate without anchor walks = %f, want 0", got)
	}
	if got := e.OverlapEstimate(0); got != 0 {
		t.Errorf("empty mask estimate = %f", got)
	}
}

func TestTableAgainstExactOnThreeWay(t *testing.T) {
	joins := threeWayJoins(t)
	// Single-relation walks have zero size variance, so the confidence
	// early-stop would fire at MinWalks; force the full budget so the
	// overlap fractions converge too.
	e, err := New(joins, Options{MaxWalks: 6000, TargetRel: 0.01, MinWalks: 6000})
	if err != nil {
		t.Fatal(err)
	}
	e.Warmup(rng.New(53))
	tab, err := e.Table()
	if err != nil {
		t.Fatal(err)
	}
	exact, exactUnion, err := overlap.Exact(joins)
	if err != nil {
		t.Fatal(err)
	}
	if exactUnion != 100 {
		t.Fatalf("fixture union = %d", exactUnion)
	}
	full := uint(0b111)
	for mask := uint(1); mask <= full; mask++ {
		want := exact.Get(mask)
		got := tab.Get(mask)
		if want == 0 {
			if got > 3 {
				t.Errorf("overlap(%b) = %.1f, want ~0", mask, got)
			}
			continue
		}
		if math.Abs(got-want)/want > 0.2 {
			t.Errorf("overlap(%b) = %.1f, want ~%.0f", mask, got, want)
		}
	}
	if u := tab.UnionSize(); math.Abs(u-100) > 8 {
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

// TestRefreshedReprobesRetainedWalks: after J2's relation gains the
// values 0..9, Refreshed with J2 dirty must reset J2, leave the clean
// joins' walk counts and sizes alone, and re-derive their overlap with
// J2 from the walks they retained — each walk's mask agreeing with what
// the joins now contain, the counters with the masks, and the estimator
// it was taken from with itself.
func TestRefreshedReprobesRetainedWalks(t *testing.T) {
	joins := threeWayJoins(t)
	e, err := New(joins, Options{MaxWalks: 2000, TargetRel: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	e.Warmup(rng.New(52))
	before := e.OverlapEstimate(0b101) // |J0 ∩ J2| = 10
	rel := joins[2].Nodes()[0].Rel
	for v := 0; v < 10; v++ {
		rel.AppendValues(relation.Value(v), relation.Value(v*3))
	}
	r, reprobed := e.Refreshed([]bool{false, false, true})
	if want := len(e.ests[0].samples) + len(e.ests[1].samples); reprobed != want {
		t.Errorf("reprobed %d walks, want the %d the clean joins retain", reprobed, want)
	}
	if r.ests[2].Walks() != 0 || len(r.wByMask[2]) != 0 || r.wAll[2] != 0 {
		t.Errorf("dirty join kept state: %d walks, masks %v", r.ests[2].Walks(), r.wByMask[2])
	}
	for j := 0; j < 2; j++ {
		if r.ests[j].Walks() != e.ests[j].Walks() || r.ests[j].Size() != e.ests[j].Size() {
			t.Errorf("clean join %d: %d walks size %v, had %d size %v",
				j, r.ests[j].Walks(), r.ests[j].Size(), e.ests[j].Walks(), e.ests[j].Size())
		}
		sums := map[uint]float64{}
		for _, s := range r.ests[j].samples {
			v := int(s.Tuple[0])
			want := uint(0)
			for i, lohi := range [][2]int{{0, 60}, {30, 90}, {50, 100}} {
				if (v >= lohi[0] && v < lohi[1]) || (i == 2 && v < 10) {
					want |= 1 << uint(i)
				}
			}
			if s.Mask != want {
				t.Fatalf("join %d walk of value %d: mask %03b, want %03b", j, v, s.Mask, want)
			}
			sums[s.Mask] += 1 / s.P
		}
		for mask, w := range sums {
			if r.wByMask[j][mask] != w {
				t.Errorf("join %d mask %03b: counter %v, retained walks sum to %v", j, mask, r.wByMask[j][mask], w)
			}
		}
		if len(sums) != len(r.wByMask[j]) {
			t.Errorf("join %d: counters %v, walks carry masks %v", j, r.wByMask[j], sums)
		}
	}
	if got := r.OverlapEstimate(0b101); math.Abs(got-20)/20 > 0.2 {
		t.Errorf("|J0 ∩ J2| estimated %.1f after the append, want ~20", got)
	}
	if got := e.OverlapEstimate(0b101); got != before {
		t.Errorf("Refreshed moved the receiver's estimate: %v, was %v", got, before)
	}
	// Nothing dirty: a plain copy, nothing probed.
	if c, n := e.Refreshed(make([]bool, 3)); n != 0 || c.OverlapEstimate(0b101) != before {
		t.Errorf("clean Refreshed probed %d walks, estimate %v (was %v)", n, c.OverlapEstimate(0b101), before)
	}
}
