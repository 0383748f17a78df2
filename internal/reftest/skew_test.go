package reftest

import (
	"testing"

	su "sampleunion"
	"sampleunion/internal/relation"
)

// Adversarial-skew differential tests: the repo's only uniformity checks
// on skewed joins. The randomized scenarios of reftest_test.go draw every
// value from a five-value domain, so their joins are all of a size; these
// are built the other way — one join orders of magnitude heavier than its
// sibling, zipfian join degrees that make the rejection subroutines pay
// tens of tries per draw, and mutation bursts that invert the skew under
// a warm session. They run under the provably uniform configuration
// (exact warm-up, subroutine EW or EO through exactCover, as in
// TestDifferentialUniform) and are held to the strict chi-square,
// statically and after the burst and a Refresh; the online configuration
// is held to membership and coverage, as in TestDifferentialRecordAndOnline.

func mkRel(name string, attrs []string, rows [][]int64) *relation.Relation {
	r := relation.New(name, relation.NewSchema(attrs...))
	for _, vals := range rows {
		row := make(relation.Tuple, len(vals))
		for i, v := range vals {
			row[i] = relation.Value(v)
		}
		r.Append(row)
	}
	return r
}

// chain2 builds a two-relation chain R(A,B) ⋈_B S(B,C) as one union
// member.
func chain2(t *testing.T, tag string, rRows, sRows [][]int64) (*su.Join, []*relation.Relation) {
	t.Helper()
	rels := []*relation.Relation{
		mkRel(tag+"_r", []string{"A", "B"}, rRows),
		mkRel(tag+"_s", []string{"B", "C"}, sRows),
	}
	j, err := su.Chain(tag, rels, []string{"B"})
	if err != nil {
		t.Fatal(err)
	}
	return j, rels
}

// constChain builds a chain whose every R row joins every S row
// (single shared B value): |R|×|S| results, constant fan-out, zero
// walk variance. Value domains are offset so unions of these chains
// are output-disjoint.
func constChain(t *testing.T, tag string, nr, ns int, base int64) (*su.Join, []*relation.Relation) {
	t.Helper()
	var rRows, sRows [][]int64
	for i := 0; i < nr; i++ {
		rRows = append(rRows, []int64{base + int64(i), base})
	}
	for i := 0; i < ns; i++ {
		sRows = append(sRows, []int64{base, base + 100 + int64(i)})
	}
	return chain2(t, tag, rRows, sRows)
}

func unionOf(t *testing.T, joins []*su.Join, relSets [][]*relation.Relation) *scenario {
	t.Helper()
	u, err := su.NewUnion(joins...)
	if err != nil {
		t.Fatal(err)
	}
	return &scenario{union: u, relSets: relSets, rels: dedup(relSets)}
}

// checkExact prepares exactCover's sampler on EW, or on EO when eo is
// set, over the scenario and chi-square-checks its draws against the
// reference, returning the sampler for follow-up mutation checks.
func checkExact(t *testing.T, sc *scenario, label string, eo bool, seed int64, draws int) exactSampler {
	t.Helper()
	sess, _ := exactCover(t, sc.union, seed, eo)
	union, _ := sc.reference()
	got, _, err := sess.SampleSeeded(draws, seed*7+3)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	checkDraws(t, label, got, UniformWeights(union), true)
	return sess
}

// TestSkewHeavyLight pits a ~1000-result join against a single-
// result sibling — the 1000x share skew under which the light join is
// selected once in a thousand draws and must still get its 1/|U|.
func TestSkewHeavyLight(t *testing.T) {
	jHeavy, rHeavy := constChain(t, "heavy", 25, 40, 0) // 1000 results
	jLight, rLight := constChain(t, "light", 1, 1, 500) // 1 result
	sc := unionOf(t, []*su.Join{jHeavy, jLight}, [][]*relation.Relation{rHeavy, rLight})
	union, _ := sc.reference()
	if len(union) != 1001 {
		t.Fatalf("scenario builds %d reference tuples, want 1001", len(union))
	}
	checkExact(t, sc, "heavy-skew static", false, 1, 30*len(union))
}

// TestSkewZipfDegrees drives zipfian join degrees — one B value
// with fan-out 64 among fifteen with fan-out 1 — through Olken sampling,
// which accepts 79 tries in 1 024 against the join's bound: the heavy
// value's results and the light ones' must come out equally likely.
func TestSkewZipfDegrees(t *testing.T) {
	// R has one row per B value; S gives B=0 fan-out 64, B=1..15
	// fan-out 1: join size 79, walk-weight cv ≈ 3.
	var rRows, sRows [][]int64
	for b := 0; b < 16; b++ {
		rRows = append(rRows, []int64{int64(b), int64(b)})
	}
	for c := 0; c < 64; c++ {
		sRows = append(sRows, []int64{0, 100 + int64(c)})
	}
	for b := 1; b < 16; b++ {
		sRows = append(sRows, []int64{int64(b), 200 + int64(b)})
	}
	jZipf, rZipf := chain2(t, "zipf", rRows, sRows)
	jFlat, rFlat := constChain(t, "flat", 2, 16, 500) // 32 results, flat
	sc := unionOf(t, []*su.Join{jZipf, jFlat}, [][]*relation.Relation{rZipf, rFlat})
	union, _ := sc.reference()
	if len(union) != 79+32 {
		t.Fatalf("scenario builds %d reference tuples, want 111", len(union))
	}
	sess := checkExact(t, sc, "zipf static", true, 2, drawCount(len(union)))

	// Post-mutation: double the heavy fan-out (64 → 128) and delete the
	// flat join's second R row, shifting the share balance further. The
	// warm sampler must stay uniform across the Refresh.
	for c := 64; c < 128; c++ {
		rZipf[1].Append(relation.Tuple{0, relation.Value(100 + c)})
	}
	rFlat[0].Delete(1)
	if err := sess.Refresh(); err != nil {
		t.Fatalf("zipf refresh: %v", err)
	}
	union, _ = sc.reference()
	if len(union) != 143+16 {
		t.Fatalf("mutated scenario builds %d reference tuples, want 159", len(union))
	}
	got, _, err := sess.SampleSeeded(drawCount(len(union)), 71)
	if err != nil {
		t.Fatalf("zipf post-burst: %v", err)
	}
	checkDraws(t, "zipf post-burst", got, UniformWeights(union), true)
}

// TestSkewInversion starts heavy/light and then inverts the
// skew under the warm session: a burst deletes most of the heavy
// join's fan-out while appending fan-out to the light join. The cover
// shares that were right at warm-up are wrong afterwards; the post-burst
// stream must be uniform over the inverted union.
func TestSkewInversion(t *testing.T) {
	jA, rA := constChain(t, "a", 12, 16, 0) // 192 results
	jB, rB := constChain(t, "b", 2, 1, 500) // 2 results
	sc := unionOf(t, []*su.Join{jA, jB}, [][]*relation.Relation{rA, rB})
	union, _ := sc.reference()
	if len(union) != 194 {
		t.Fatalf("scenario builds %d reference tuples, want 194", len(union))
	}
	sess := checkExact(t, sc, "skew-inversion static", true, 3, drawCount(len(union)))

	// Invert: shrink a's S side 16 → 1 (192 → 12 results), grow b's
	// S side 1 → 48 (2 → 96 results).
	sA := rA[1]
	for i := 0; i < sA.Len() && sA.LiveLen() > 1; i++ {
		if sA.Live(i) {
			sA.Delete(i)
		}
	}
	for c := 1; c < 48; c++ {
		rB[1].Append(relation.Tuple{500, relation.Value(600 + c)})
	}
	if err := sess.Refresh(); err != nil {
		t.Fatalf("skew-inversion refresh: %v", err)
	}
	union, _ = sc.reference()
	if len(union) != 12+96 {
		t.Fatalf("inverted scenario builds %d reference tuples, want 108", len(union))
	}
	got, _, err := sess.SampleSeeded(drawCount(len(union)), 73)
	if err != nil {
		t.Fatalf("skew-inversion post-burst: %v", err)
	}
	checkDraws(t, "skew-inversion post-burst", got, UniformWeights(union), true)
}

// TestSkewOnline runs the online (Algorithm 2) configuration
// through the heavy-skew shape. Over several joins its instance system is
// not held to the chi-square (TestDifferentialRecordAndOnline says why),
// so the check is exact membership plus full coverage, statically and
// after a skew-inverting burst.
func TestSkewOnline(t *testing.T) {
	jHeavy, rHeavy := constChain(t, "oheavy", 8, 12, 0) // 96 results
	jLight, rLight := constChain(t, "olight", 1, 2, 500)
	sc := unionOf(t, []*su.Join{jHeavy, jLight}, [][]*relation.Relation{rHeavy, rLight})
	sess, err := sc.union.Prepare(su.Options{Online: true, Seed: 4})
	if err != nil {
		t.Fatalf("online prepare: %v", err)
	}
	union, _ := sc.reference()
	got, _, err := sess.SampleSeeded(drawCount(len(union)), 79)
	if err != nil {
		t.Fatalf("online static: %v", err)
	}
	checkDraws(t, "online static", got, UniformWeights(union), false)

	// Invert: heavy loses most fan-out, light gains it.
	sH := rHeavy[1]
	for i := 0; i < sH.Len() && sH.LiveLen() > 2; i++ {
		if sH.Live(i) {
			sH.Delete(i)
		}
	}
	for c := 2; c < 24; c++ {
		rLight[1].Append(relation.Tuple{500, relation.Value(600 + c)})
	}
	if err := sess.Refresh(); err != nil {
		t.Fatalf("online refresh: %v", err)
	}
	union, _ = sc.reference()
	got, _, err = sess.SampleSeeded(drawCount(len(union)), 83)
	if err != nil {
		t.Fatalf("online post-burst: %v", err)
	}
	checkDraws(t, "online post-burst", got, UniformWeights(union), false)
}
