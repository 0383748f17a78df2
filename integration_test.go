package sampleunion

import (
	"math"
	"testing"

	"sampleunion/internal/tpch"
)

// TestIntegrationUQWorkloads drives the public API over the paper's
// three evaluation workloads end to end: estimation, sampling in every
// mode, membership of every sample, and aggregate consistency.
func TestIntegrationUQWorkloads(t *testing.T) {
	ws, err := tpch.Workloads(tpch.Config{SF: 0.4, Overlap: 0.3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"UQ1", "UQ2", "UQ3"} {
		w := ws[name]
		t.Run(name, func(t *testing.T) {
			u, err := NewUnion(w.Joins...)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := u.ExactUnionSize()
			if err != nil {
				t.Fatal(err)
			}
			if exact == 0 {
				t.Fatal("empty union")
			}
			// Random-walk estimate lands near the truth.
			est, err := u.EstimateUnionSize(Options{Warmup: WarmupRandomWalk, WarmupWalks: 2000})
			if err != nil {
				t.Fatal(err)
			}
			if rel := math.Abs(est-float64(exact)) / float64(exact); rel > 0.25 {
				t.Errorf("union estimate %.0f vs exact %d (rel err %.2f)", est, exact, rel)
			}
			// Histogram estimate exists and respects the union bounds.
			hist, err := u.Estimate(Options{Warmup: WarmupHistogram, Method: MethodEO})
			if err != nil {
				t.Fatal(err)
			}
			if hist.UnionSize <= 0 {
				t.Errorf("histogram union estimate %f", hist.UnionSize)
			}
			sum := 0.0
			for _, c := range hist.CoverSizes {
				sum += c
			}
			if math.Abs(sum-hist.UnionSize) > 1e-6*hist.UnionSize {
				t.Errorf("cover sum %f != union %f", sum, hist.UnionSize)
			}
			// Every sampling mode produces in-union tuples.
			for _, o := range []Options{
				{Warmup: WarmupRandomWalk, Method: MethodEW, Seed: 6},
				{Warmup: WarmupHistogram, Method: MethodEO, Seed: 7},
				{Online: true, WarmupWalks: 300, Seed: 8},
			} {
				out, stats, err := u.Sample(400, o)
				if err != nil {
					t.Fatalf("%+v: %v", o, err)
				}
				for _, tu := range out {
					if !u.Contains(tu) {
						t.Fatalf("%+v: sample outside union", o)
					}
				}
				if stats.Accepted < 400 {
					t.Errorf("%+v: accepted %d", o, stats.Accepted)
				}
			}
			// COUNT(*) approximates |U|.
			res, err := u.ApproxCount(True{}, 4000, Options{Warmup: WarmupRandomWalk, WarmupWalks: 2000, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			if rel := math.Abs(res.Value-float64(exact)) / float64(exact); rel > 0.25 {
				t.Errorf("ApproxCount(*) = %v vs exact %d", res, exact)
			}
		})
	}
}

// TestIntegrationDisjointVsSet checks the two union semantics agree on
// sizes: disjoint total = Σ|J_j| >= set union size.
func TestIntegrationDisjointVsSet(t *testing.T) {
	ws, err := tpch.Workloads(tpch.Config{SF: 0.3, Overlap: 0.5, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	w := ws["UQ2"]
	u, err := NewUnion(w.Joins...)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := u.ExactUnionSize()
	if err != nil {
		t.Fatal(err)
	}
	var disjoint int64
	for _, j := range w.Joins {
		disjoint += j.Count()
	}
	if int64(exact) > disjoint {
		t.Fatalf("set union %d exceeds disjoint union %d", exact, disjoint)
	}
	if int64(exact) == disjoint {
		t.Fatal("UQ2 at overlap 0.5 shows no overlap; workload broken")
	}
	out, _, err := u.SampleDisjoint(500, Options{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range out {
		if !u.Contains(tu) {
			t.Fatalf("disjoint sample outside union")
		}
	}
}

// TestUnionSizeIsCoverSum: under every warm-up the union size a session
// reports is the sum of the cover sizes its join selection draws by, so
// Û and the draws never disagree about the union (UQ1, sf 1, data seeds
// 1–3). One engine sums its covers in join order, so the two are equal;
// the sharded engine sums per-shard |U_s| and per-join covers across
// shards, which may differ in the last bits.
func TestUnionSizeIsCoverSum(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		w, err := tpch.UQ1(tpch.Config{SF: 1, Overlap: 0.2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		u, err := NewUnion(w.Joins...)
		if err != nil {
			t.Fatal(err)
		}
		for _, wu := range []Warmup{"", WarmupHistogram, WarmupExact} {
			for _, shards := range []int{1, 2} {
				s, err := u.Prepare(Options{Warmup: wu, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				est, sum := s.Estimate(), 0.0
				for _, c := range est.CoverSizes {
					sum += c
				}
				tol := 0.0
				if shards > 1 {
					tol = 1e-12 * sum
				}
				if math.Abs(est.UnionSize-sum) > tol || s.UnionSize() != est.UnionSize {
					t.Errorf("data seed %d, warm-up %q, %d shards: Û = %v (Session.UnionSize %v), Σ ĉ = %v",
						seed, wu, shards, est.UnionSize, s.UnionSize(), sum)
				}
			}
		}
	}
}
