package reftest

import (
	"testing"

	su "sampleunion"
	"sampleunion/internal/relation"
)

// TestApproxIntervalCalibration checks the Approx* estimators'
// confidence intervals against ground truth: over reftest scenarios
// whose exact COUNT and SUM answers come from the brute-force
// reference enumerator, the 95% intervals must cover the truth at
// roughly the nominal rate. Sessions run WarmupExact, so the draws are
// exactly uniform and |U| is exact — any calibration failure is the
// interval construction itself. This guards the Wilson-floor
// fix in internal/aqp and any future estimator change.
func TestApproxIntervalCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical calibration test")
	}
	const (
		repsPerScenario = 40
		drawsPerRep     = 250
	)
	countCovered, countTotal := 0, 0
	sumCovered, sumTotal := 0, 0

	for _, seed := range []int64{11, 12, 13, 14, 15, 16} {
		sc := buildScenario(t, seed)
		sc.ensureNonEmpty()
		union, _ := sc.reference()
		out := sc.union.OutputSchema()
		attr := out.Attr(0)

		// Predicate: first output attribute <= 1 (values are 0..3), a
		// mid-range selectivity on most instances.
		pred := relation.Cmp{Attr: attr, Op: relation.LE, Val: 1}
		countTruth, sumTruth := 0.0, 0.0
		for _, tup := range union {
			sumTruth += float64(tup[0])
			if pred.Eval(tup, out) {
				countTruth++
			}
		}
		if countTruth == 0 || countTruth == float64(len(union)) {
			// Degenerate selectivity has its own test below; skip for
			// calibration (the Wald rate is undefined at the edges).
			continue
		}

		sess, err := sc.union.Prepare(su.Options{Warmup: su.WarmupExact, Seed: seed})
		if err != nil {
			t.Fatalf("scenario %s: %v", sc.name, err)
		}
		for rep := 0; rep < repsPerScenario; rep++ {
			cres, err := sess.ApproxCount(pred, drawsPerRep)
			if err != nil {
				t.Fatalf("scenario %s rep %d: %v", sc.name, rep, err)
			}
			countTotal++
			if lo, hi := cres.Interval(); lo <= countTruth && countTruth <= hi {
				countCovered++
			}
			sres, err := sess.ApproxSum(attr, relation.True{}, drawsPerRep)
			if err != nil {
				t.Fatalf("scenario %s rep %d: %v", sc.name, rep, err)
			}
			sumTotal++
			if lo, hi := sres.Interval(); lo <= sumTruth && sumTruth <= hi {
				sumCovered++
			}
		}
	}

	// Nominal coverage is 95%. With ~200 reps the binomial noise is
	// about ±1.5%, and the Wilson floor can only widen intervals, so a
	// well-calibrated estimator lands in [0.88, 1]. A systematically
	// broken interval (like the pre-fix zero width at the edges, or a
	// lost variance term) lands far below.
	checkCoverage(t, "ApproxCount", countCovered, countTotal)
	checkCoverage(t, "ApproxSum", sumCovered, sumTotal)
}

// TestApproxCountCalibratedUnderZeroOptions is the calibration half of
// ROADMAP item 1, under the options a caller gets by default: on the
// two-region shape at 10 000 customers per region (|U| = 15 000, 5 000 in
// both joins), the 95 % intervals of ApproxCount at n = 2000 must cover
// the truth at the nominal rate for the overlap and for the whole first
// cover region — both inside the region whose size the exact-weight
// subroutine knows exactly, so what is tested is that a 2000-tuple call
// is a uniform draw, not how good the overlap estimate is.
func TestApproxCountCalibratedUnderZeroOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical calibration test")
	}
	sc := twoRegions(t, 10_000)
	sess, err := sc.union.Prepare(su.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		pred  relation.Predicate
		truth float64
	}{
		{"overlap", relation.And{relation.Cmp{Attr: "B", Op: relation.GE, Val: 5000}, relation.Cmp{Attr: "B", Op: relation.LT, Val: 10_000}}, 5000},
		{"first region", relation.Cmp{Attr: "B", Op: relation.LT, Val: 10_000}, 10_000},
	} {
		covered, mean := 0, 0.0
		const reps = 200
		for rep := 0; rep < reps; rep++ {
			res, err := sess.ApproxCount(tc.pred, 2000)
			if err != nil {
				t.Fatalf("%s rep %d: %v", tc.name, rep, err)
			}
			mean += res.Value / reps
			if lo, hi := res.Interval(); lo <= tc.truth && tc.truth <= hi {
				covered++
			}
		}
		t.Logf("%s: mean %.0f for a truth of %.0f", tc.name, mean, tc.truth)
		checkCoverage(t, "ApproxCount("+tc.name+")", covered, reps)
	}
}

func checkCoverage(t *testing.T, what string, covered, total int) {
	t.Helper()
	if total < 100 {
		t.Fatalf("%s: only %d calibration reps ran; scenarios degenerated", what, total)
	}
	rate := float64(covered) / float64(total)
	t.Logf("%s: %d/%d intervals covered the truth (%.1f%%)", what, covered, total, 100*rate)
	if rate < 0.88 {
		t.Errorf("%s: coverage %.1f%% is far below the nominal 95%%", what, 100*rate)
	}
}

// TestApproxCountDegenerateCoverage pins the satellite fix end to end:
// a predicate with zero (resp. full) support must still produce an
// interval that covers the exact truth — the pre-fix Wald interval had
// width exactly 0 and claimed COUNT = 0 (resp. |U|) with certainty.
func TestApproxCountDegenerateCoverage(t *testing.T) {
	sc := buildScenario(t, 21)
	sc.ensureNonEmpty()
	union, _ := sc.reference()
	out := sc.union.OutputSchema()

	sess, err := sc.union.Prepare(su.Options{Warmup: su.WarmupExact, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}

	// Values are 0..3, so attr0 >= 100 never holds: truth is 0.
	never := relation.Cmp{Attr: out.Attr(0), Op: relation.GE, Val: 100}
	res, err := sess.ApproxCount(never, 400)
	if err != nil {
		t.Fatal(err)
	}
	if res.HalfWidth <= 0 {
		t.Fatalf("zero-support count has zero half-width: %v", res)
	}
	if lo, hi := res.Interval(); !(lo <= 0 && 0 <= hi) {
		t.Fatalf("zero-support interval [%v, %v] excludes the truth 0", lo, hi)
	}

	// attr0 >= 0 always holds: truth is |U| exactly.
	always := relation.Cmp{Attr: out.Attr(0), Op: relation.GE, Val: 0}
	truth := float64(len(union))
	res, err = sess.ApproxCount(always, 400)
	if err != nil {
		t.Fatal(err)
	}
	if res.HalfWidth <= 0 {
		t.Fatalf("full-support count has zero half-width: %v", res)
	}
	if lo, hi := res.Interval(); !(lo <= truth && truth <= hi) {
		t.Fatalf("full-support interval [%v, %v] excludes the truth %v", lo, hi, truth)
	}
}
