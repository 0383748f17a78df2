package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"sampleunion/internal/join"
	"sampleunion/internal/overlap"
	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
)

// fixtureJoins builds three overlapping 2-relation chain joins. Keys
// 0..39 / 20..59 / 40..79 with every third key fanning out, so joins
// overlap pairwise and all sizes differ.
func fixtureJoins(t testing.TB) []*join.Join {
	t.Helper()
	sa := relation.NewSchema("K", "X")
	sb := relation.NewSchema("K", "Y")
	mk := func(name string, lo, hi int) *join.Join {
		a := relation.New(name+"_a", sa)
		b := relation.New(name+"_b", sb)
		for k := lo; k < hi; k++ {
			a.AppendValues(relation.Value(k), relation.Value(k*10))
			b.AppendValues(relation.Value(k), relation.Value(k*100))
			if k%3 == 0 {
				b.AppendValues(relation.Value(k), relation.Value(k*100+1))
			}
		}
		j, err := join.NewChain(name, []*relation.Relation{a, b}, []string{"K"})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	return []*join.Join{mk("J1", 0, 40), mk("J2", 20, 60), mk("J3", 40, 80)}
}

// unionIndex returns key -> index over the exact set union, aligned to
// the first join's schema.
func unionIndex(t testing.TB, joins []*join.Join) map[string]int {
	t.Helper()
	ref := joins[0].OutputSchema()
	idx := make(map[string]int)
	for _, j := range joins {
		perm, err := ref.Perm(j.OutputSchema())
		if err != nil {
			t.Fatal(err)
		}
		buf := make(relation.Tuple, ref.Len())
		j.Enumerate(func(tu relation.Tuple) bool {
			for i, p := range perm {
				buf[i] = tu[p]
			}
			k := relation.TupleKey(buf)
			if _, ok := idx[k]; !ok {
				idx[k] = len(idx)
			}
			return true
		})
	}
	return idx
}

// chiSquare computes the statistic of counts against a uniform
// expectation.
func chiSquare(counts []int, total int) float64 {
	expected := float64(total) / float64(len(counts))
	chi := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi += d * d / expected
	}
	return chi
}

// checkUniformUnion draws n samples via sample and checks uniformity
// over the exact set union. slack scales the chi-square limit: 1 for
// exact-parameter samplers, larger for estimated parameters.
func checkUniformUnion(t *testing.T, joins []*join.Join, n int, slack float64, sample func(int, *rng.RNG) ([]relation.Tuple, error), g *rng.RNG) {
	t.Helper()
	idx := unionIndex(t, joins)
	out, err := sample(n, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("got %d samples, want %d", len(out), n)
	}
	counts := make([]int, len(idx))
	for _, tu := range out {
		i, ok := idx[relation.TupleKey(tu)]
		if !ok {
			t.Fatalf("sample %v is not in the union", tu)
		}
		counts[i]++
	}
	dof := float64(len(counts) - 1)
	limit := slack * (dof + 6*math.Sqrt(2*dof) + 6)
	if chi := chiSquare(counts, n); chi > limit {
		t.Errorf("chi2 = %.1f over %.0f dof exceeds limit %.1f", chi, dof, limit)
	}
}

// coverRun prepares Algorithm 1 over the joins (warm-up on a fixed
// seed) and mints one run — the only lifecycle there is.
func coverRun(t testing.TB, joins []*join.Join, cfg CoverConfig) Run {
	t.Helper()
	p, err := PrepareCover(joins, cfg, rng.New(1009))
	if err != nil {
		t.Fatal(err)
	}
	return p.NewRun()
}

// onlineReuseRun prepares Algorithm 2 over the joins (warm-up on a
// fixed seed) and mints the single-stream run that owns the warm-up
// pool.
func onlineReuseRun(t testing.TB, joins []*join.Join, cfg OnlineConfig) *OnlineSampler {
	t.Helper()
	p, err := PrepareOnline(joins, cfg, rng.New(1013))
	if err != nil {
		t.Fatal(err)
	}
	return p.NewReuseRun()
}

// disjointRun prepares Definition 1's sampler and mints one run.
func disjointRun(t testing.TB, joins []*join.Join, method JoinMethod) Run {
	t.Helper()
	p, err := PrepareDisjoint(joins, method)
	if err != nil {
		t.Fatal(err)
	}
	return p.NewRun()
}

// bernoulliRun prepares the union trick (warm-up on a fixed seed) and
// mints one run.
func bernoulliRun(t testing.TB, joins []*join.Join, method JoinMethod, est Estimator) Run {
	t.Helper()
	p, err := PrepareBernoulli(joins, CoverConfig{Method: method, Estimator: est}, rng.New(1009))
	if err != nil {
		t.Fatal(err)
	}
	return p.NewRun()
}

// TestCoverSamplerUniform drives Algorithm 1 through the uniformity
// check across subroutines.
func TestCoverSamplerUniform(t *testing.T) {
	cases := []struct {
		name   string
		method JoinMethod
	}{
		{"ew-oracle", MethodEW},
		{"eo-oracle", MethodEO},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			joins := fixtureJoins(t)
			s := coverRun(t, joins, CoverConfig{
				Method:    c.method,
				Estimator: &ExactEstimator{Joins: joins},
			})
			checkUniformUnion(t, joins, 60000, 1, s.Sample, rng.New(int64(200+i)))
		})
	}
}

func TestCoverSamplerRandomWalkParams(t *testing.T) {
	joins := fixtureJoins(t)
	s := coverRun(t, joins, CoverConfig{
		Method:    MethodEW,
		Estimator: &RandomWalkEstimator{Joins: joins},
	})
	// Estimated covers deviate from truth, so the output deviates from
	// uniform proportionally (this is exactly the ratio error the
	// paper's Fig 4/5a measures); allow generous slack.
	checkUniformUnion(t, joins, 40000, 8, s.Sample, rng.New(4))
	if s.Stats().Accepted < 40000 {
		t.Errorf("accepted = %d", s.Stats().Accepted)
	}
}

func TestCoverSamplerHistogramParamsProducesValidSamples(t *testing.T) {
	joins := fixtureJoins(t)
	s := coverRun(t, joins, CoverConfig{
		Method:    MethodEO,
		Estimator: &HistogramEstimator{Joins: joins},
	})
	idx := unionIndex(t, joins)
	out, err := s.Sample(5000, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, tu := range out {
		k := relation.TupleKey(tu)
		if _, ok := idx[k]; !ok {
			t.Fatalf("histogram-parameterized sample %v not in union", tu)
		}
		seen[k] = true
	}
	// Sanity: a decent share of the union shows up.
	if len(seen) < len(idx)/2 {
		t.Errorf("only %d of %d union values sampled", len(seen), len(idx))
	}
}

func TestCoverSamplerCostBound(t *testing.T) {
	// V2 (Theorem 2): total subroutine draws stay within a constant
	// factor of N + N log N for exact parameters.
	joins := fixtureJoins(t)
	s := coverRun(t, joins, CoverConfig{
		Method:    MethodEW,
		Estimator: &ExactEstimator{Joins: joins},
	})
	const n = 20000
	if _, err := s.Sample(n, rng.New(6)); err != nil {
		t.Fatal(err)
	}
	bound := 4 * (float64(n) + float64(n)*math.Log(float64(n)))
	if draws := float64(s.Stats().TotalDraws); draws > bound {
		t.Errorf("total draws %.0f exceed 4(N + N log N) = %.0f", draws, bound)
	}
	if st := s.Stats(); st.RejectedDup == 0 || st.Revised != 0 {
		t.Errorf("overlapping joins: %d draws rejected as an earlier join's, %d revisions; want some and none", st.RejectedDup, st.Revised)
	}
}

func TestBernoulliSamplerUniform(t *testing.T) {
	joins := fixtureJoins(t)
	s := bernoulliRun(t, joins, MethodEW, &ExactEstimator{Joins: joins})
	checkUniformUnion(t, joins, 60000, 1, s.Sample, rng.New(8))
	if s.Stats().RejectedDup == 0 {
		t.Error("Bernoulli sampler never rejected a duplicate on overlapping joins")
	}
	if s.Params() == nil {
		t.Error("Params nil after sampling")
	}
}

func TestDisjointSamplerUniform(t *testing.T) {
	joins := fixtureJoins(t)
	// Disjoint union: a value appearing in k joins must be sampled with
	// probability k/Σ|J_j|.
	ref := joins[0].OutputSchema()
	mult := make(map[string]int)
	var total int
	for _, j := range joins {
		perm, err := ref.Perm(j.OutputSchema())
		if err != nil {
			t.Fatal(err)
		}
		buf := make(relation.Tuple, ref.Len())
		j.Enumerate(func(tu relation.Tuple) bool {
			for i, p := range perm {
				buf[i] = tu[p]
			}
			mult[relation.TupleKey(buf)]++
			total++
			return true
		})
	}
	for _, c := range []struct {
		name   string
		method JoinMethod
	}{{"EW", MethodEW}, {"EO", MethodEO}} {
		s := disjointRun(t, joins, c.method)
		const n = 60000
		out, err := s.Sample(n, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		counts := make(map[string]int)
		for _, tu := range out {
			k := relation.TupleKey(tu)
			if mult[k] == 0 {
				t.Fatalf("%s: sample outside the disjoint union", c.name)
			}
			counts[k]++
		}
		chi := 0.0
		cells := 0
		for k, m := range mult {
			expected := float64(n) * float64(m) / float64(total)
			d := float64(counts[k]) - expected
			chi += d * d / expected
			cells++
		}
		dof := float64(cells - 1)
		if limit := dof + 6*math.Sqrt(2*dof) + 6; chi > limit {
			t.Errorf("%s: disjoint chi2 = %.1f over %.0f dof (limit %.1f)", c.name, chi, dof, limit)
		}
	}
}

func TestValidateUnionErrors(t *testing.T) {
	joins := fixtureJoins(t)
	if err := ValidateUnion(nil); err == nil {
		t.Error("empty union accepted")
	}
	bad := relation.MustFromTuples("B", relation.NewSchema("Z"), []relation.Tuple{{1}})
	jb, err := join.NewChain("JB", []*relation.Relation{bad}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateUnion([]*join.Join{joins[0], jb}); err == nil {
		t.Error("mismatched output schemas accepted")
	}
	if _, err := PrepareCover(joins, CoverConfig{}, rng.New(1)); err == nil {
		t.Error("missing estimator accepted")
	}
	if _, err := PrepareBernoulli(joins, CoverConfig{}, rng.New(1)); err == nil {
		t.Error("missing estimator accepted")
	}
}

func TestDisjointSamplerEmptyUnion(t *testing.T) {
	e := relation.New("E", relation.NewSchema("K"))
	je, err := join.NewChain("JE", []*relation.Relation{e}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PrepareDisjoint([]*join.Join{je}, MethodEW); err == nil {
		t.Error("empty union accepted by disjoint sampler")
	}
}

// TestHistogramUnionSizeIsCoverSum: the histogram warm-up reads |U| off
// the cover sizes its alias draws by. Three joins of 10, every pair
// overlapping in all 10 and the triple in none, is a monotone table
// Normalize accepts: Eq. 1 reads 30 there, while the clamped covers are
// 10, 0, 0 and every draw comes from join 0.
func TestHistogramUnionSizeIsCoverSum(t *testing.T) {
	tab, err := overlap.NewTable(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, mask := range []uint{0b001, 0b010, 0b100, 0b011, 0b101, 0b110} {
		tab.Set(mask, 10)
	}
	tab.Normalize()
	if tab.Get(0b110) != 10 || tab.Get(0b111) != 0 {
		t.Fatalf("Normalize moved the table: pair %v, triple %v", tab.Get(0b110), tab.Get(0b111))
	}
	p := NewParams(tab.JoinSizes(), tab.CoverSizes())
	sum := 0.0
	for _, c := range p.Cover {
		sum += c
	}
	if sum != 10 || p.UnionSize != sum {
		t.Errorf("cover %v (Σ %v), |U| = %v; want Σ cover = |U| = 10", p.Cover, sum, p.UnionSize)
	}
}

// shapeJoins builds a union over (A, B, C) of the three join shapes: a
// chain R0(A,B) ⋈ S0(B,C), a star tree rooted at T1(B) with children
// (B,A) and (B,C) — output order B, A, C, so owner probes align schemas —
// and a triangle R2(A,B), S2(B,C), U2(C,A). Every relation holds 12
// distinct rows over values 0..3, so the joins overlap.
func shapeJoins(t testing.TB, rnd *rand.Rand) ([]*join.Join, []*relation.Relation) {
	t.Helper()
	var rels []*relation.Relation
	mk := func(name string, attrs ...string) *relation.Relation {
		r := relation.New(name, relation.NewSchema(attrs...))
		for r.Len() < min(12, 1<<(2*len(attrs))) {
			appendFresh(r, rnd)
		}
		rels = append(rels, r)
		return r
	}
	chain, err := join.NewChain("chain", []*relation.Relation{mk("R0", "A", "B"), mk("S0", "B", "C")}, []string{"B"})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := join.NewTree("tree", []*relation.Relation{mk("T1", "B"), mk("L1", "B", "A"), mk("M1", "B", "C")},
		[]int{-1, 0, 0}, []string{"", "B", "B"})
	if err != nil {
		t.Fatal(err)
	}
	tri, err := join.NewCyclic("tri", []*relation.Relation{mk("R2", "A", "B"), mk("S2", "B", "C"), mk("U2", "C", "A")},
		[]join.Edge{{A: 0, B: 1, Attr: "B"}, {A: 1, B: 2, Attr: "C"}, {A: 2, B: 0, Attr: "A"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return []*join.Join{chain, tree, tri}, rels
}

// appendFresh appends a random row over values 0..3 that r does not hold
// live: relations stay duplicate-free (§3).
func appendFresh(r *relation.Relation, rnd *rand.Rand) {
	for {
		row := make(relation.Tuple, r.Arity())
		for i := range row {
			row[i] = relation.Value(rnd.Intn(4))
		}
		dup := false
		for i := 0; i < r.Len() && !dup; i++ {
			dup = r.Live(i) && r.Row(i).Equal(row)
		}
		if !dup {
			r.Append(row)
			return
		}
	}
}

// TestParamsFromExactTable: the exact warm-up's owner count — one
// enumeration per join, an owner probe per result — reads the same join
// sizes, cover sizes and union size as the brute-force subset table
// (overlap.Exact), on chain, tree and cyclic joins, and again after each
// of three bursts — one delete and one append per relation — and a
// Refresh of the prepared sampler.
func TestParamsFromExactTable(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	joins, rels := shapeJoins(t, rnd)
	var p PreparedSampler
	p, err := PrepareCover(joins, CoverConfig{Method: MethodEO, Estimator: &ExactEstimator{Joins: joins}}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for burst := 0; burst <= 3; burst++ {
		tab, union, err := overlap.Exact(joins)
		if err != nil {
			t.Fatal(err)
		}
		got := p.Params()
		if got.UnionSize != float64(union) || !slices.Equal(got.JoinSizes, tab.JoinSizes()) || !slices.Equal(got.Cover, tab.CoverSizes()) {
			t.Errorf("burst %d: owner count sizes %v cover %v |U| %v; subset table %v %v %d",
				burst, got.JoinSizes, got.Cover, got.UnionSize, tab.JoinSizes(), tab.CoverSizes(), union)
		}
		if got.Cover[1] == 0 || got.Cover[1] == got.JoinSizes[1] || got.Cover[2] == got.JoinSizes[2] {
			t.Errorf("burst %d: covers %v of sizes %v: the fixture lost its overlaps", burst, got.Cover, got.JoinSizes)
		}
		for j := range joins {
			if got.RatioError(j, got) != 0 {
				t.Errorf("burst %d: self ratio error nonzero for join %d", burst, j)
			}
		}
		for _, r := range rels {
			for i := rnd.Intn(r.Len()); ; i = (i + 1) % r.Len() {
				if r.Live(i) {
					r.Delete(i)
					break
				}
			}
			appendFresh(r, rnd)
		}
		np, changed, err := p.Refresh(rng.New(int64(burst)))
		if err != nil || !changed {
			t.Fatalf("burst %d: Refresh changed=%v err=%v", burst, changed, err)
		}
		p = np
	}
}
