package sampleunion

import (
	"math"
	"testing"
)

func TestApproxCount(t *testing.T) {
	u := demoUnion(t)
	// Truth: customers 0..44, 2 orders each; custkey < 15 → 30 tuples.
	s := prepared(t, u, Options{Warmup: WarmupExact, Seed: 40})
	res, err := s.ApproxCount(Cmp{Attr: "custkey", Op: LT, Val: 15}, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-30) > 3*res.HalfWidth+1 {
		t.Fatalf("COUNT = %v, truth 30", res)
	}
}

func TestApproxSum(t *testing.T) {
	u := demoUnion(t)
	// SUM(custkey) over the union: each customer 0..44 contributes its
	// key twice (two orders).
	truth := 0.0
	for k := 0; k < 45; k++ {
		truth += float64(2 * k)
	}
	s := prepared(t, u, Options{Warmup: WarmupExact, Seed: 41})
	res, err := s.ApproxSum("custkey", True{}, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-truth) > 3*res.HalfWidth+1 {
		t.Fatalf("SUM = %v, truth %.0f", res, truth)
	}
}

func TestApproxAvg(t *testing.T) {
	u := demoUnion(t)
	s := prepared(t, u, Options{Warmup: WarmupExact, Seed: 42})
	res, err := s.ApproxAvg("custkey", True{}, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-22) > 3*res.HalfWidth+0.5 {
		t.Fatalf("AVG = %v, truth 22", res)
	}
}

func TestApproxWithRandomWalkWarmup(t *testing.T) {
	u := demoUnion(t)
	s := prepared(t, u, Options{Warmup: WarmupRandomWalk, WarmupWalks: 2000, Seed: 43})
	res, err := s.ApproxCount(True{}, 5000)
	if err != nil {
		t.Fatal(err)
	}
	// COUNT(*) ≈ |U| = 90; random-walk |U| estimate adds its own error.
	if math.Abs(res.Value-90) > 15 {
		t.Fatalf("COUNT(*) = %v, truth 90", res)
	}
}

func TestApproxGroupCount(t *testing.T) {
	u := demoUnion(t)
	s := prepared(t, u, Options{Warmup: WarmupExact, Seed: 45})
	groups, err := s.ApproxGroupCount("nationkey", 20000)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 5 { // nationkey = custkey % 5
		t.Fatalf("groups = %d, want 5", len(groups))
	}
	total := 0.0
	for _, g := range groups {
		total += g.Count.Value
	}
	if math.Abs(total-90) > 2 {
		t.Errorf("group totals sum to %.1f, want ~90", total)
	}
}

func TestApproxOnline(t *testing.T) {
	u := demoUnion(t)
	s := prepared(t, u, Options{Online: true, WarmupWalks: 500, Seed: 44})
	res, err := s.ApproxCount(True{}, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value <= 0 {
		t.Fatalf("online COUNT = %v", res)
	}
}
