package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"

	su "sampleunion"
	"sampleunion/internal/core"
	"sampleunion/internal/histest"
	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
	"sampleunion/internal/tpch"
	"sampleunion/internal/walkest"
)

func quick() Options { return Options{Quick: true, Seed: 1} }

func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res, err := e.Run(quick())
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(res.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			for _, row := range res.Rows {
				if len(row) != len(res.Header) {
					t.Fatalf("%s row width %d != header %d", e.ID, len(row), len(res.Header))
				}
			}
			var buf bytes.Buffer
			if err := res.Fprint(&buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), res.Figure) {
				t.Errorf("%s print lacks figure tag", e.ID)
			}
		})
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("fig4a"); !ok {
		t.Error("fig4a missing")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("bogus id found")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.SF != 1 || o.Overlap != 0.2 || o.Samples != 2000 || o.Seed != 1 {
		t.Errorf("defaults = %+v", o)
	}
	q := Options{Quick: true, SF: 5, Samples: 99999}.withDefaults()
	if q.SF > 0.4 || q.Samples > 300 {
		t.Errorf("quick did not shrink: %+v", q)
	}
}

func TestResultFormatting(t *testing.T) {
	r := &Result{Name: "n", Figure: "FigX", Note: "note", Header: []string{"a", "bb"}}
	r.Add("1", "2")
	r.Add("333", "4")
	var buf bytes.Buffer
	if err := r.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"FigX", "note", "333"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// chainOf builds R(A,B) ⋈_B S(B,C) over the given rows.
func chainOf(t *testing.T, tag string, r, s []relation.Tuple) *su.Join {
	t.Helper()
	rr := relation.New(tag+"_r", relation.NewSchema("A", "B"))
	rr.AppendRows(r)
	rs := relation.New(tag+"_s", relation.NewSchema("B", "C"))
	rs.AppendRows(s)
	j, err := su.Chain(tag, []*relation.Relation{rr, rs}, []string{"B"})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// zipfDegreesUnion is a join with zipfian degrees — k B values, one
// fanning out heavy ways and the rest once, so heavy+k-1 results under an
// Olken bound of k·heavy — beside a flat 4×32 chain over other values.
func zipfDegreesUnion(t *testing.T, k, heavy int) *su.Union {
	t.Helper()
	var r, s, fr, fs []relation.Tuple
	for b := 0; b < k; b++ {
		r = append(r, relation.Tuple{relation.Value(b), relation.Value(b)})
		if b > 0 {
			s = append(s, relation.Tuple{relation.Value(b), relation.Value(500 + b)})
		}
	}
	for c := 0; c < heavy; c++ {
		s = append(s, relation.Tuple{0, relation.Value(1000 + c)})
	}
	const base = 100000
	for i := 0; i < 4; i++ {
		fr = append(fr, relation.Tuple{relation.Value(base + i), base})
	}
	for i := 0; i < 32; i++ {
		fs = append(fs, relation.Tuple{base, relation.Value(base + 1000 + i)})
	}
	u, err := su.NewUnion(chainOf(t, "z", r, s), chainOf(t, "f", fr, fs))
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestEWAbsorbsZipfDegrees: the shape behind EW being the one
// subroutine a session draws with (README, Choosing WarmupWalks), on
// counters. On zipfian degrees the rejection subroutine EO accepts about
// one try in k against the Olken bound; EW's weights absorb the skew.
func TestEWAbsorbsZipfDegrees(t *testing.T) {
	const n = 300
	joins := zipfDegreesUnion(t, 64, 1000).Joins()
	for _, tc := range []struct {
		m        core.JoinMethod
		name     string
		min, max float64 // subroutine draws per returned tuple
	}{
		{core.MethodEW, "EW", 1, 1.05},
		{core.MethodEO, "EO", 8, math.Inf(1)},
	} {
		p, err := core.PrepareCover(joins, core.CoverConfig{
			Method:    tc.m,
			Estimator: &core.RandomWalkEstimator{Joins: joins, Opts: walkest.Options{MaxWalks: 1000}},
		}, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		run := p.NewRun()
		if _, err := run.Sample(n, rng.New(2)); err != nil {
			t.Fatal(err)
		}
		if per := float64(run.Stats().TotalDraws) / n; per < tc.min || per > tc.max {
			t.Errorf("%s: %.2f subroutine draws per tuple, want within [%g, %g]", tc.name, per, tc.min, tc.max)
		}
	}
}

// TestRandomWalkBeatsHistogramOnUQ1: Fig 4 / Fig 5a's ordering — the
// random-walk warm-up's |J_i|/|U| ratios are closer to the truth than the
// histogram's upper bounds.
func TestRandomWalkBeatsHistogramOnUQ1(t *testing.T) {
	o := quick().withDefaults()
	w, err := tpch.UQ1(tpch.Config{SF: o.SF, Overlap: o.Overlap, Seed: o.Seed})
	if err != nil {
		t.Fatal(err)
	}
	_, hist, err := ratioErrors(w, &core.HistogramEstimator{Joins: w.Joins, Opts: histest.Options{Sizes: histest.SizeEW}}, rng.New(o.Seed))
	if err != nil {
		t.Fatal(err)
	}
	_, walk, err := ratioErrors(w, &core.RandomWalkEstimator{Joins: w.Joins, Opts: walkest.Options{MaxWalks: 1000}}, rng.New(o.Seed))
	if err != nil {
		t.Fatal(err)
	}
	if walk >= hist/2 {
		t.Errorf("mean ratio error: random-walk %.4f, histogram %.4f; want random-walk under half of it", walk, hist)
	}
}
