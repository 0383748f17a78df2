package sampleunion

import (
	"testing"
)

func TestEstimateReport(t *testing.T) {
	u := demoUnion(t)
	est := prepared(t, u, Options{Warmup: WarmupExact}).Estimate()
	if len(est.JoinSizes) != 2 || len(est.CoverSizes) != 2 {
		t.Fatalf("report shapes: %+v", est)
	}
	if est.UnionSize != 90 {
		t.Fatalf("UnionSize = %f, want 90", est.UnionSize)
	}
	sum := est.CoverSizes[0] + est.CoverSizes[1]
	if sum != est.UnionSize {
		t.Errorf("cover sum %f != union %f", sum, est.UnionSize)
	}
}

func TestSampleParallel(t *testing.T) {
	u := demoUnion(t)
	s := prepared(t, u, Options{Warmup: WarmupExact, Seed: 10})
	out, err := s.SampleParallel(1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1000 {
		t.Fatalf("got %d samples", len(out))
	}
	for _, tu := range out {
		if !u.Contains(tu) {
			t.Fatalf("parallel sample %v outside union", tu)
		}
	}
}

func TestSampleParallelRace(t *testing.T) {
	// Exercised under -race in CI: many workers over shared joins, every
	// one probing the membership maps and the weight tables.
	u := demoUnion(t)
	s := prepared(t, u, Options{Warmup: WarmupHistogram, Seed: 11})
	out, err := s.SampleParallel(400, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 400 {
		t.Fatalf("got %d", len(out))
	}
	// The random-walk warm-up and the online sampler.
	s = prepared(t, u, Options{Warmup: WarmupRandomWalk, WarmupWalks: 100, Seed: 12})
	out, err = s.SampleParallel(400, 8)
	if err != nil || len(out) != 400 {
		t.Fatalf("random-walk parallel: %v, %d", err, len(out))
	}
	s = prepared(t, u, Options{Online: true, WarmupWalks: 100, Seed: 13})
	out, err = s.SampleParallel(400, 8)
	if err != nil || len(out) != 400 {
		t.Fatalf("online parallel: %v, %d", err, len(out))
	}
}

func TestSampleParallelEdgeCases(t *testing.T) {
	u := demoUnion(t)
	if _, err := prepared(t, u, Options{}).SampleParallel(10, 0); err == nil {
		t.Error("workers=0 accepted")
	}
	// workers > n clamps; workers == 1 falls back to Sample.
	out, err := prepared(t, u, Options{Warmup: WarmupExact, Seed: 12}).SampleParallel(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d", len(out))
	}
	out, err = prepared(t, u, Options{Warmup: WarmupExact, Seed: 13}).SampleParallel(5, 1)
	if err != nil || len(out) != 5 {
		t.Fatalf("workers=1: %v, %d", err, len(out))
	}
}
