package reftest

import (
	"fmt"
	"math/rand"
	"testing"

	su "sampleunion"
	"sampleunion/internal/relation"
)

// scenario is one randomized differential-testing instance: a union of
// joins plus the raw relation lists each join was built from (the
// reference enumerator's input).
type scenario struct {
	name    string
	union   *su.Union
	relSets [][]*relation.Relation // per join: its base relations
	rels    []*relation.Relation   // deduped, for mutation bursts
}

// chiZ is the normal deviation for chi-square thresholds: p ~ 1e-8 per
// check, so hundreds of seeded checks produce no false positives.
const chiZ = 5.7

// hasLiveRow reports whether r already holds row (live). The engine
// follows the paper's §3 set semantics — no duplicate rows per relation
// — so the generators keep instances duplicate-free: a duplicated base
// row would legitimately double its combinations' draw probability
// while the by-value reference counts them once.
func hasLiveRow(r *relation.Relation, row relation.Tuple) bool {
	for i := 0; i < r.Len(); i++ {
		if r.Live(i) && r.Row(i).Equal(row) {
			return true
		}
	}
	return false
}

func appendUnique(r *relation.Relation, row relation.Tuple) bool {
	if hasLiveRow(r, row) {
		return false
	}
	r.Append(row)
	return true
}

func randRow(rnd *rand.Rand, arity int) relation.Tuple {
	row := make(relation.Tuple, arity)
	for j := range row {
		row[j] = relation.Value(rnd.Intn(4))
	}
	return row
}

func randRel(rnd *rand.Rand, name string, attrs ...string) *relation.Relation {
	r := relation.New(name, relation.NewSchema(attrs...))
	n := 4 + rnd.Intn(5)
	for i := 0; i < n; i++ {
		appendUnique(r, randRow(rnd, len(attrs)))
	}
	return r
}

func dedup(sets [][]*relation.Relation) []*relation.Relation {
	seen := make(map[*relation.Relation]bool)
	var out []*relation.Relation
	for _, set := range sets {
		for _, r := range set {
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	return out
}

// buildScenario constructs one of five shapes from the seed: two-chain
// union, three-relation chain, star tree, cyclic triangle, or a mixed
// chain+triangle union.
func buildScenario(t *testing.T, seed int64) *scenario {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	shape := int(seed) % 5
	mkChain := func(tag string, attrs [][]string, joinAttrs []string) (*su.Join, []*relation.Relation) {
		rels := make([]*relation.Relation, len(attrs))
		for i, as := range attrs {
			rels[i] = randRel(rnd, fmt.Sprintf("%s_%d", tag, i), as...)
		}
		j, err := su.Chain(tag, rels, joinAttrs)
		if err != nil {
			t.Fatal(err)
		}
		return j, rels
	}
	sc := &scenario{}
	switch shape {
	case 0: // union of two 2-relation chains
		sc.name = "chain2x2"
		j1, r1 := mkChain("c1", [][]string{{"A", "B"}, {"B", "C"}}, []string{"B"})
		j2, r2 := mkChain("c2", [][]string{{"A", "B"}, {"B", "C"}}, []string{"B"})
		u, err := su.NewUnion(j1, j2)
		if err != nil {
			t.Fatal(err)
		}
		sc.union, sc.relSets = u, [][]*relation.Relation{r1, r2}
	case 1: // single 3-relation chain
		sc.name = "chain3"
		j, r := mkChain("c", [][]string{{"A", "B"}, {"B", "C"}, {"C", "D"}}, []string{"B", "C"})
		u, err := su.NewUnion(j)
		if err != nil {
			t.Fatal(err)
		}
		sc.union, sc.relSets = u, [][]*relation.Relation{r}
	case 2: // star tree: two children join the root on B
		sc.name = "tree"
		rels := []*relation.Relation{
			randRel(rnd, "root", "A", "B"),
			randRel(rnd, "left", "B", "C"),
			randRel(rnd, "right", "B", "D"),
		}
		j, err := su.Tree("t", rels, []int{-1, 0, 0}, []string{"", "B", "B"})
		if err != nil {
			t.Fatal(err)
		}
		u, err := su.NewUnion(j)
		if err != nil {
			t.Fatal(err)
		}
		sc.union, sc.relSets = u, [][]*relation.Relation{rels}
	case 3: // cyclic triangle
		sc.name = "triangle"
		rels := []*relation.Relation{
			randRel(rnd, "R", "A", "B"),
			randRel(rnd, "S", "B", "C"),
			randRel(rnd, "T", "C", "A"),
		}
		j, err := su.Cyclic("tri", rels, []su.Edge{
			{A: 0, B: 1, Attr: "B"}, {A: 1, B: 2, Attr: "C"}, {A: 2, B: 0, Attr: "A"},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		u, err := su.NewUnion(j)
		if err != nil {
			t.Fatal(err)
		}
		sc.union, sc.relSets = u, [][]*relation.Relation{rels}
	default: // union of a chain and a triangle over A,B,C
		sc.name = "mixed"
		j1, r1 := mkChain("c", [][]string{{"A", "B"}, {"B", "C"}}, []string{"B"})
		rels := []*relation.Relation{
			randRel(rnd, "R", "A", "B"),
			randRel(rnd, "S", "B", "C"),
			randRel(rnd, "T", "C", "A"),
		}
		j2, err := su.Cyclic("tri", rels, []su.Edge{
			{A: 0, B: 1, Attr: "B"}, {A: 1, B: 2, Attr: "C"}, {A: 2, B: 0, Attr: "A"},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		u, err := su.NewUnion(j1, j2)
		if err != nil {
			t.Fatal(err)
		}
		sc.union, sc.relSets = u, [][]*relation.Relation{r1, rels}
	}
	sc.rels = dedup(sc.relSets)
	return sc
}

// reference recomputes the brute-force union of the scenario's joins
// from the relations' current live tuples.
func (sc *scenario) reference() (map[string]relation.Tuple, map[string]int) {
	out := sc.union.OutputSchema()
	perJoin := make([]map[string]relation.Tuple, len(sc.relSets))
	for i, rels := range sc.relSets {
		perJoin[i] = JoinResults(rels, out)
	}
	return UnionResults(perJoin)
}

// ensureNonEmpty appends an all-zero row to every relation, which
// guarantees the all-zero output tuple in every join — mutation bursts
// can otherwise empty a small union, which the sampler correctly
// refuses to prepare over.
func (sc *scenario) ensureNonEmpty() {
	union, _ := sc.reference()
	if len(union) > 0 {
		return
	}
	for _, r := range sc.rels {
		appendUnique(r, make(relation.Tuple, r.Arity()))
	}
}

// drawCount picks a sample size with expected per-tuple counts around
// 50, so coverage is certain and chi-square is well-powered.
func drawCount(unionSize int) int {
	n := 50 * unionSize
	if n < 1000 {
		n = 1000
	}
	if n > 8000 {
		n = 8000
	}
	return n
}

// checkDraws verifies exact membership (and full coverage when
// expected counts are high) and, when strict, chi-square uniformity of
// the draws against the expected weights.
func checkDraws(t *testing.T, label string, draws []relation.Tuple, weights map[string]float64, strict bool) {
	t.Helper()
	obs := make(map[string]int, len(weights))
	for _, tup := range draws {
		k := relation.TupleKey(tup)
		if _, ok := weights[k]; !ok {
			t.Fatalf("%s: sampled tuple %v is not a reference result", label, tup)
		}
		obs[k]++
	}
	if len(draws) >= 40*len(weights) {
		for k := range weights {
			if obs[k] == 0 {
				t.Fatalf("%s: reference tuple %x never sampled in %d draws", label, k, len(draws))
			}
		}
	}
	if !strict {
		return
	}
	stat, df := ChiSquare(obs, weights)
	if crit := ChiSquareCritical(df, chiZ); stat > crit {
		t.Fatalf("%s: chi-square %0.1f > %0.1f (df %d): draws are not distributed as expected", label, stat, crit, df)
	}
}

// mutationBurst applies a random batch of appends and deletes across
// the scenario's base relations.
func mutationBurst(rnd *rand.Rand, rels []*relation.Relation) {
	for _, r := range rels {
		switch rnd.Intn(3) {
		case 0: // batch append (duplicate-free, widening the value domain)
			n := 1 + rnd.Intn(3)
			var rows []relation.Tuple
			for i := 0; i < n; i++ {
				row := make(relation.Tuple, r.Arity())
				for j := range row {
					row[j] = relation.Value(rnd.Intn(5))
				}
				dup := hasLiveRow(r, row)
				for _, prev := range rows {
					if prev.Equal(row) {
						dup = true
					}
				}
				if !dup {
					rows = append(rows, row)
				}
			}
			r.AppendRows(rows)
		case 1: // delete a random live row
			if r.LiveLen() > 1 {
				for {
					i := rnd.Intn(r.Len())
					if r.Live(i) {
						r.Delete(i)
						break
					}
				}
			}
		default: // single append
			appendUnique(r, randRow(rnd, r.Arity()))
		}
	}
}

// TestDifferentialUniform drives >= 50 randomized scenarios through the
// provably uniform configuration (exact warm-up, subroutine rotating
// EW/EO/WJ): sampler output must be exactly the
// reference union by membership, fully covered, and uniform by
// chi-square — statically, and again after two random mutation bursts
// and a session refresh. Each time the exact union size reads the
// reference's.
func TestDifferentialUniform(t *testing.T) {
	executed := 0
	for seed := int64(0); seed < 60; seed++ {
		sc := buildScenario(t, seed)
		sc.ensureNonEmpty()
		union, _ := sc.reference()
		if len(union) == 0 || len(union) > 400 {
			continue
		}
		method := []su.Method{su.MethodEW, su.MethodEO, su.MethodWJ}[seed%3]
		sess, err := sc.union.Prepare(su.Options{
			Seed: seed + 1, Warmup: su.WarmupExact, Method: method,
		})
		if err != nil {
			t.Fatalf("seed %d (%s): prepare: %v", seed, sc.name, err)
		}
		label := fmt.Sprintf("seed %d (%s, %v) static", seed, sc.name, method)
		draws, _, err := sess.SampleSeeded(drawCount(len(union)), seed*7+3)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		checkDraws(t, label, draws, UniformWeights(union), true)
		checkExactCount(t, label, sc, sess, len(union))

		// Mutation bursts: mutate, refresh the warm session, re-derive the
		// reference, re-check.
		rnd := rand.New(rand.NewSource(seed + 1000))
		for burst := 0; burst < 2; burst++ {
			mutationBurst(rnd, sc.rels)
			sc.ensureNonEmpty()
			if err := sess.Refresh(); err != nil {
				t.Fatalf("seed %d (%s) burst %d: refresh: %v", seed, sc.name, burst, err)
			}
			union, _ = sc.reference()
			if len(union) == 0 || len(union) > 400 {
				break
			}
			label := fmt.Sprintf("seed %d (%s, %v) burst %d", seed, sc.name, method, burst)
			draws, _, err := sess.SampleSeeded(drawCount(len(union)), seed*11+int64(burst)+5)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			checkDraws(t, label, draws, UniformWeights(union), true)
			checkExactCount(t, label, sc, sess, len(union))
		}
		executed++
	}
	if executed < 50 {
		t.Fatalf("only %d scenarios executed; differential coverage requires >= 50", executed)
	}
}

// checkExactCount holds the exact warm-up's owner count to the
// brute-force union: Union.ExactUnionSize and the (refreshed) session's
// |U| must both read its size.
func checkExactCount(t *testing.T, label string, sc *scenario, sess *su.Session, want int) {
	t.Helper()
	if n, err := sc.union.ExactUnionSize(); err != nil || n != want {
		t.Errorf("%s: ExactUnionSize = %d, %v; reference union has %d", label, n, err, want)
	}
	if got := sess.UnionSize(); got != float64(want) {
		t.Errorf("%s: session |U| = %v; reference union has %d", label, got, want)
	}
}

// TestDifferentialRecordAndOnline runs the cover sampler on a second
// seed family and the online configuration through the same scenarios.
// (The name is from when the cover sampler learned which join owns a
// value from a per-run record and was uniform only asymptotically.) The
// cover half is held to the strict chi-square like TestDifferentialUniform.
// So is the online half over a single join; over several it is held to
// exact membership plus coverage, because Algorithm 2 as implemented
// retries inside the selected join until a walk delivers an instance, which
// over-draws a join whose walks often fail (README, What a request gets) —
// a property of its instance system, not of the accept rule.
func TestDifferentialRecordAndOnline(t *testing.T) {
	executed := 0
	for seed := int64(0); seed < 24; seed++ {
		sc := buildScenario(t, seed)
		sc.ensureNonEmpty()
		union, _ := sc.reference()
		if len(union) == 0 || len(union) > 400 {
			continue
		}
		opts := su.Options{Seed: seed + 2, Warmup: su.WarmupExact, Method: su.MethodEW}
		if seed%2 == 1 {
			opts = su.Options{Seed: seed + 2, Online: true, WarmupWalks: 80}
		}
		sess, err := sc.union.Prepare(opts)
		if err != nil {
			t.Fatalf("seed %d (%s): prepare: %v", seed, sc.name, err)
		}
		strict := !opts.Online || len(sc.relSets) == 1
		draws, _, err := sess.SampleSeeded(drawCount(len(union)), seed*13+1)
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, sc.name, err)
		}
		checkDraws(t, fmt.Sprintf("seed %d (%s) static", seed, sc.name), draws, UniformWeights(union), strict)

		rnd := rand.New(rand.NewSource(seed + 2000))
		mutationBurst(rnd, sc.rels)
		sc.ensureNonEmpty()
		if err := sess.Refresh(); err != nil {
			t.Fatalf("seed %d (%s): refresh: %v", seed, sc.name, err)
		}
		union, _ = sc.reference()
		if len(union) == 0 || len(union) > 400 {
			continue
		}
		draws, _, err = sess.SampleSeeded(drawCount(len(union)), seed*17+2)
		if err != nil {
			t.Fatalf("seed %d (%s) post-burst: %v", seed, sc.name, err)
		}
		checkDraws(t, fmt.Sprintf("seed %d (%s) post-burst", seed, sc.name), draws, UniformWeights(union), strict)
		executed++
	}
	if executed < 10 {
		t.Fatalf("only %d record/online scenarios executed", executed)
	}
}

// TestDifferentialDisjoint checks the disjoint-union sampler against
// Definition 1: tuple frequency proportional to how many joins produce
// it (exact under EW sizes), statically and after a mutation burst.
func TestDifferentialDisjoint(t *testing.T) {
	executed := 0
	for seed := int64(0); seed < 20; seed++ {
		sc := buildScenario(t, seed)
		sc.ensureNonEmpty()
		union, mult := sc.reference()
		if len(union) == 0 || len(union) > 300 {
			continue
		}
		sess, err := sc.union.Prepare(su.Options{Seed: seed + 3, Warmup: su.WarmupExact, Method: su.MethodEW})
		if err != nil {
			t.Fatalf("seed %d: prepare: %v", seed, err)
		}
		draws, _, err := sess.SampleDisjointSeeded(drawCount(len(union)), seed*19+1)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkDraws(t, fmt.Sprintf("seed %d (%s) disjoint", seed, sc.name), draws, DisjointWeights(mult), true)

		rnd := rand.New(rand.NewSource(seed + 3000))
		mutationBurst(rnd, sc.rels)
		sc.ensureNonEmpty()
		if err := sess.Refresh(); err != nil {
			t.Fatalf("seed %d: refresh: %v", seed, err)
		}
		union, mult = sc.reference()
		if len(union) == 0 || len(union) > 300 {
			continue
		}
		draws, _, err = sess.SampleDisjointSeeded(drawCount(len(union)), seed*23+1)
		if err != nil {
			t.Fatalf("seed %d post-burst: %v", seed, err)
		}
		checkDraws(t, fmt.Sprintf("seed %d (%s) disjoint post-burst", seed, sc.name), draws, DisjointWeights(mult), true)
		executed++
	}
	if executed < 8 {
		t.Fatalf("only %d disjoint scenarios executed", executed)
	}
}

// TestDifferentialPredicates checks sampling-time predicate enforcement
// (§8.3) against the filtered reference: uniform over the satisfying
// subset, statically and after a mutation burst.
func TestDifferentialPredicates(t *testing.T) {
	executed := 0
	for seed := int64(0); seed < 20; seed++ {
		sc := buildScenario(t, seed)
		sc.ensureNonEmpty()
		pred := su.Cmp{Attr: "A", Op: su.LE, Val: 1}
		filter := func(union map[string]relation.Tuple) map[string]relation.Tuple {
			out := sc.union.OutputSchema()
			f := make(map[string]relation.Tuple)
			for k, tup := range union {
				if pred.Eval(tup, out) {
					f[k] = tup
				}
			}
			return f
		}
		union, _ := sc.reference()
		filtered := filter(union)
		if len(filtered) == 0 || len(union) > 300 || len(filtered) < 2 {
			continue
		}
		sess, err := sc.union.Prepare(su.Options{Seed: seed + 4, Warmup: su.WarmupExact, Method: su.MethodEW})
		if err != nil {
			t.Fatalf("seed %d: prepare: %v", seed, err)
		}
		draws, _, err := sess.SampleWhereSeeded(drawCount(len(filtered)), pred, seed*29+1)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkDraws(t, fmt.Sprintf("seed %d (%s) where", seed, sc.name), draws, UniformWeights(filtered), true)

		rnd := rand.New(rand.NewSource(seed + 4000))
		mutationBurst(rnd, sc.rels)
		sc.ensureNonEmpty()
		if err := sess.Refresh(); err != nil {
			t.Fatalf("seed %d: refresh: %v", seed, err)
		}
		union, _ = sc.reference()
		filtered = filter(union)
		if len(filtered) == 0 || len(union) > 300 {
			continue
		}
		draws, _, err = sess.SampleWhereSeeded(drawCount(len(filtered)), pred, seed*31+1)
		if err != nil {
			t.Fatalf("seed %d post-burst: %v", seed, err)
		}
		checkDraws(t, fmt.Sprintf("seed %d (%s) where post-burst", seed, sc.name), draws, UniformWeights(filtered), true)
		executed++
	}
	if executed < 8 {
		t.Fatalf("only %d predicate scenarios executed", executed)
	}
}
