package reftest

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	su "sampleunion"
	"sampleunion/internal/relation"
	"sampleunion/internal/serve"
)

// twoRegions is ROADMAP item 1's shape: two chains orders ⋈ cust over
// custkeys (attribute B) 0 to n−1 and n/2 to 3n/2−1, so a third of the
// union's 3n/2 results lie in both joins.
func twoRegions(t *testing.T, n int64) *scenario {
	t.Helper()
	region := func(tag string, lo, hi int64) (*su.Join, []*relation.Relation) {
		var orders, cust [][]int64
		for k := lo; k < hi; k++ {
			orders = append(orders, []int64{k * 10, k})
			cust = append(cust, []int64{k, k % 7})
		}
		return chain2(t, tag, orders, cust)
	}
	east, eastRels := region("east", 0, n)
	west, westRels := region("west", n/2, n+n/2)
	sc := unionOf(t, []*su.Join{east, west}, [][]*relation.Relation{eastRels, westRels})
	sc.name = "two-regions"
	return sc
}

// coverRegions assigns every reference result its cover region — the
// first join that produces it — and counts the regions.
func (sc *scenario) coverRegions() (region map[string]int, regionSize []int) {
	out := sc.union.OutputSchema()
	region = make(map[string]int)
	regionSize = make([]int, len(sc.relSets))
	for j, rels := range sc.relSets {
		for k := range JoinResults(rels, out) {
			if _, seen := region[k]; !seen {
				region[k] = j
				regionSize[j]++
			}
		}
	}
	return region, regionSize
}

// coverWeights is the distribution a sampler with cover estimates cover
// draws under exact membership: region j with probability cover[j]/Σcover,
// uniformly inside it (benchmark/checks.go's expectation).
func coverWeights(t *testing.T, label string, cover []float64, region map[string]int, regionSize []int) map[string]float64 {
	t.Helper()
	for j, n := range regionSize {
		if n > 0 && !(cover[j] > 0) {
			t.Fatalf("%s: cover region %d holds %d results but is estimated at %v", label, j, n, cover[j])
		}
	}
	w := make(map[string]float64, len(region))
	for k, j := range region {
		w[k] = cover[j] / float64(regionSize[j])
	}
	return w
}

// overlapShare is the share of weight (or, with nil weights, of draws)
// on results more than one join produces.
func overlapShare(mult map[string]int, weights map[string]float64, draws []relation.Tuple) float64 {
	in, all := 0.0, 0.0
	if draws != nil {
		for _, tup := range draws {
			if mult[relation.TupleKey(tup)] > 1 {
				in++
			}
		}
		return in / float64(len(draws))
	}
	for k, w := range weights {
		all += w
		if mult[k] > 1 {
			in += w
		}
	}
	return in / all
}

// smallRequestSizes are the request sizes the guarantee is checked at:
// a single tuple, the served dashboard read, and a quarter of the union.
func smallRequestSizes(unionSize int) []int {
	sizes := []int{1, 16}
	if q := unionSize / 4; q > 1 && q != 16 {
		sizes = append(sizes, q)
	}
	return sizes
}

// checkSmallRequests aggregates seeded n-tuple calls — each its own run —
// until every result is expected 64 times, and holds the aggregate to
// weights by the strict chi-square and to their overlap share within
// 0.05.
func checkSmallRequests(t *testing.T, label string, n int, weights map[string]float64, mult map[string]int,
	sample func(n int, seed int64) []relation.Tuple) {
	t.Helper()
	total := 64 * len(weights)
	draws := make([]relation.Tuple, 0, total+n)
	for seed := int64(1); len(draws) < total; seed++ {
		draws = append(draws, sample(n, seed)...)
	}
	label = fmt.Sprintf("%s n=%d", label, n)
	checkDraws(t, label, draws, weights, true)
	want, got := overlapShare(mult, weights, nil), overlapShare(mult, nil, draws)
	if math.Abs(got-want) > 0.05 {
		t.Errorf("%s: %.3f of draws fall in more than one join, %.3f expected", label, got, want)
	}
}

// TestSmallRequestsAreUniform is ROADMAP item 1's guarantee at the sizes
// the server is used at: a call's draws are uniform over the set union at
// every request size — n = 1 and the 16-tuple /sample included — because
// every call is its own run and nothing may lean on a run growing long.
// On the two-region shape and two overlap-heavy generator scenarios,
// seeded calls are aggregated per request size and held (i) under
// WarmupExact to the uniform distribution itself, and (ii) under the
// zero Options, Online and Shards: 2 to the distribution the session's
// own cover estimates induce — region j with probability ĉ_j/Û, uniform
// inside it: what is left when the only error is the estimate's — on the
// library and, for the zero Options, through serve's /sample handler.
func TestSmallRequestsAreUniform(t *testing.T) {
	scenarios := []*scenario{twoRegions(t, 100), buildScenario(t, 780), buildScenario(t, 1665)}
	configs := []struct {
		name  string
		opts  su.Options
		exact bool
	}{
		{"exact", su.Options{Warmup: su.WarmupExact, Seed: 3}, true},
		{"zero options", su.Options{}, false},
		{"online", su.Options{Online: true}, false},
		{"shards=2", su.Options{Shards: 2}, false},
	}
	for _, sc := range scenarios {
		union, mult := sc.reference()
		sc.name = fmt.Sprintf("%s of %d", sc.name, len(union))
		region, regionSize := sc.coverRegions()
		if share := overlapShare(mult, UniformWeights(union), nil); share < 0.2 {
			t.Fatalf("%s: only %.2f of the union lies in more than one join; the case needs a heavy overlap", sc.name, share)
		}
		for _, cfg := range configs {
			label := sc.name + ", " + cfg.name
			t.Run(label, func(t *testing.T) {
				sess, err := sc.union.Prepare(cfg.opts)
				if err != nil {
					t.Fatal(err)
				}
				weights := UniformWeights(union)
				if !cfg.exact {
					weights = coverWeights(t, label, sess.Estimate().CoverSizes, region, regionSize)
				}
				sizes := smallRequestSizes(len(union))
				if cfg.opts.Online && sc != scenarios[0] {
					// Algorithm 2 delivers a walk's result as instances, 1/(p·|J|)
					// of them in expectation, and a call that ends inside a walk's
					// instances drops the rest — always, at n = 1, so a result
					// whose walk is improbable is under-drawn there (README, What a
					// request gets). That is the instance system's doing, not the
					// accept rule's; the two regions' walks are equiprobable.
					sizes = sizes[1:]
				}
				for _, n := range sizes {
					checkSmallRequests(t, label, n, weights, mult, func(n int, seed int64) []relation.Tuple {
						out, _, err := sess.SampleSeeded(n, seed)
						if err != nil {
							t.Fatal(err)
						}
						return out
					})
				}
			})
		}
	}
	t.Run("served", servedSmallRequests)
}

// servedSmallRequests is the same check through serve's handler: the
// two-region shape as an inline spec over CSV files, the declaration's
// options left out, POST /sample with n = 16 and a seed per request.
func servedSmallRequests(t *testing.T) {
	sc := twoRegions(t, 100)
	dir := t.TempDir()
	var spec strings.Builder
	for _, r := range sc.rels {
		var csv strings.Builder
		csv.WriteString(strings.Join(r.Schema().Attrs(), ",") + "\n")
		for _, row := range r.Tuples() {
			fmt.Fprintf(&csv, "%d,%d\n", row[0], row[1])
		}
		if err := os.WriteFile(filepath.Join(dir, r.Name()+".csv"), []byte(csv.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&spec, "rel %s %s.csv\n", r.Name(), r.Name())
	}
	spec.WriteString("chain east east_r B east_s\nchain west west_r B west_s\n")
	decl, err := json.Marshal(map[string]string{"spec": spec.String()})
	if err != nil {
		t.Fatal(err)
	}
	h := serve.New(serve.Config{DataDir: dir}).Handler()
	post := func(path, body string, out any) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %s: %d %s", path, rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
	}
	var est struct {
		CoverSizes []float64 `json:"cover_sizes"`
	}
	post("/estimate", fmt.Sprintf(`{"union":%s}`, decl), &est)
	_, mult := sc.reference()
	region, regionSize := sc.coverRegions()
	weights := coverWeights(t, "served", est.CoverSizes, region, regionSize)
	checkSmallRequests(t, "served", 16, weights, mult, func(n int, seed int64) []relation.Tuple {
		var resp struct {
			Tuples []relation.Tuple `json:"tuples"`
		}
		post("/sample", fmt.Sprintf(`{"union":%s,"n":%d,"seed":%d}`, decl, n, seed), &resp)
		return resp.Tuples
	})
}
