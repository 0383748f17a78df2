package sampleunion

import (
	"sync"
	"testing"
)

// TestForwardersMatchEngine: the deprecated *Batch* names are one-line
// forwarders, so for every golden mode SampleBatchSeeded returns
// SampleSeeded's tuples and SampleWhereBatchSeeded returns
// SampleWhereSeeded's, tuple for tuple — the two cannot drift apart
// into a second engine again.
func TestForwardersMatchEngine(t *testing.T) {
	for _, m := range goldenModes(t) {
		t.Run(m.name, func(t *testing.T) {
			s := prepareGolden(t, m.u, m.o)
			want, _, err := s.SampleSeeded(64, goldenStream)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := s.SampleBatchSeeded(64, goldenStream)
			if err != nil {
				t.Fatal(err)
			}
			if !tuplesEqual(want, got) {
				t.Error("SampleBatchSeeded diverged from SampleSeeded")
			}
			// Selects about half of either golden union.
			pred := Cmp{Attr: m.u.OutputSchema().Attr(0), Op: GE, Val: 3}
			want, _, err = s.SampleWhereSeeded(32, pred, goldenStream)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err = s.SampleWhereBatchSeeded(32, pred, goldenStream)
			if err != nil {
				t.Fatal(err)
			}
			if !tuplesEqual(want, got) {
				t.Error("SampleWhereBatchSeeded diverged from SampleWhereSeeded")
			}
		})
	}
}

// TestSampleBatchMembership: every batch-drawn tuple is a union result,
// and so are the disjoint/where variants'.
func TestSampleBatchMembership(t *testing.T) {
	u := demoUnion(t)
	s, err := u.Prepare(Options{Warmup: WarmupExact, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	out, st, err := s.SampleBatch(500)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 500 || st.Accepted < 500 {
		t.Fatalf("%d tuples, stats %+v", len(out), st)
	}
	for _, tu := range out {
		if !u.Contains(tu) {
			t.Fatalf("batch sample %v outside union", tu)
		}
	}
	if s.Union() != u || s.OutputSchema() != u.OutputSchema() {
		t.Fatal("session accessors wrong")
	}
	if s.Options().Seed != 3 {
		t.Fatalf("Options = %+v", s.Options())
	}
	if s.UnionSize() <= 0 {
		t.Fatalf("UnionSize = %f", s.UnionSize())
	}
	if out, _, err := s.SampleDisjoint(200); err != nil || len(out) != 200 {
		t.Fatalf("disjoint: %v, %d", err, len(out))
	}
	pred := Cmp{Attr: "nationkey", Op: GE, Val: 0}
	if out, _, err := s.SampleWhere(200, pred); err != nil || len(out) != 200 {
		t.Fatalf("where: %v, %d", err, len(out))
	}
}

// TestSampleBatchSeededReproducibleConcurrent: the same explicit seed
// reproduces the same batch bit-for-bit no matter how many other batch
// calls run concurrently (also the -race check for the lazily built
// alias tables, which concurrent first batches race to publish).
func TestSampleBatchSeededReproducibleConcurrent(t *testing.T) {
	u := demoUnion(t)
	s, err := u.Prepare(Options{Warmup: WarmupExact, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := s.SampleBatchSeeded(300, 77)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	got := make([][]Tuple, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%2 == 0 {
				got[w], _, errs[w] = s.SampleBatchSeeded(300, 77)
			} else {
				_, _, _ = s.SampleBatch(100) // interleaved auto-stream noise
				got[w], _, errs[w] = s.SampleBatchSeeded(300, 77)
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if !tuplesEqual(want, got[w]) {
			t.Fatalf("worker %d: seeded batch diverged", w)
		}
	}
}
