package join

import (
	"sync"
	"testing"

	"sampleunion/internal/relation"
)

func abChainFixture(t *testing.T) (*Join, *relation.Relation, *relation.Relation) {
	t.Helper()
	a := relation.New("A", relation.NewSchema("k", "x"))
	b := relation.New("B", relation.NewSchema("k", "y"))
	for i := 0; i < 10; i++ {
		a.AppendValues(relation.Value(i), relation.Value(i*10))
		b.AppendValues(relation.Value(i), relation.Value(i*100))
	}
	j, err := NewChain("AB", []*relation.Relation{a, b}, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	return j, a, b
}

// TestAppendInvalidatesMembership pins the stale-cache hazard fixed in
// this refactor: Relation.Append used to reset the relation's own
// indexes but left a Join's cached membership tables stale, so Contains
// would keep answering from pre-append data. The membership snapshot
// now records relation versions and rebuilds when they move.
func TestAppendInvalidatesMembership(t *testing.T) {
	j, a, b := abChainFixture(t)
	// Output schema is (k, x, y).
	if !j.Contains(relation.Tuple{3, 30, 300}) {
		t.Fatal("existing tuple not contained")
	}
	if j.Contains(relation.Tuple{77, 770, 7700}) {
		t.Fatal("future tuple contained before append")
	}
	a.AppendValues(77, 770)
	b.AppendValues(77, 7700)
	if !j.Contains(relation.Tuple{77, 770, 7700}) {
		t.Fatal("tuple appended after membership build not contained (stale membership tables)")
	}
	if !j.Contains(relation.Tuple{3, 30, 300}) {
		t.Fatal("pre-append tuple lost after rebuild")
	}
	// The relation's own index must also reflect the append.
	if got := a.Degree(0, 77); got != 1 {
		t.Fatalf("Degree(k=77) = %d after append, want 1", got)
	}
}

// TestAppendInvalidatesCyclicMembership is the cyclic counterpart: the
// residual is a frozen materialization, so appends to its member base
// relations must be detected through their versions and trigger a
// re-materialization before Contains answers.
func TestAppendInvalidatesCyclicMembership(t *testing.T) {
	r := relation.New("R", relation.NewSchema("A", "B"))
	s := relation.New("S", relation.NewSchema("B", "C"))
	x := relation.New("T", relation.NewSchema("C", "A"))
	for i := 0; i < 4; i++ {
		r.AppendValues(relation.Value(i), relation.Value(i+10))
		s.AppendValues(relation.Value(i+10), relation.Value(i+20))
		x.AppendValues(relation.Value(i+20), relation.Value(i))
	}
	j, err := NewCyclic("tri", []*relation.Relation{r, s, x},
		[]Edge{{A: 0, B: 1, Attr: "B"}, {A: 1, B: 2, Attr: "C"}, {A: 2, B: 0, Attr: "A"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !j.IsCyclic() {
		t.Fatal("triangle not built cyclic")
	}
	sch := j.OutputSchema()
	mk := func(a, b, c relation.Value) relation.Tuple {
		tu := make(relation.Tuple, sch.Len())
		tu[sch.Index("A")] = a
		tu[sch.Index("B")] = b
		tu[sch.Index("C")] = c
		return tu
	}
	if !j.Contains(mk(1, 11, 21)) {
		t.Fatal("existing triangle not contained")
	}
	if j.Contains(mk(7, 17, 27)) {
		t.Fatal("future triangle contained before append")
	}
	// Append a full new triangle; every relation changes, including at
	// least one residual member (whichever the decomposition removed).
	r.AppendValues(7, 17)
	s.AppendValues(17, 27)
	x.AppendValues(27, 7)
	if !j.Contains(mk(7, 17, 27)) {
		t.Fatal("triangle appended after membership build not contained (stale residual materialization)")
	}
	if !j.Contains(mk(1, 11, 21)) {
		t.Fatal("pre-append triangle lost after rebuild")
	}
	if j.Contains(mk(7, 11, 21)) {
		t.Fatal("non-result tuple contained after rebuild")
	}
}

// TestConcurrentContainsAfterCyclicAppend races the residual refresh:
// after a (serialized) append to a residual member base relation, many
// goroutines call Contains at once. The refresh must happen exactly
// once under the membership mutex while the lock-free fast path reads
// only the immutable snapshot and atomic relation versions — under
// -race this pins the fix for the refresh/fast-path data race.
func TestConcurrentContainsAfterCyclicAppend(t *testing.T) {
	r := relation.New("R", relation.NewSchema("A", "B"))
	s := relation.New("S", relation.NewSchema("B", "C"))
	x := relation.New("T", relation.NewSchema("C", "A"))
	for i := 0; i < 4; i++ {
		r.AppendValues(relation.Value(i), relation.Value(i+10))
		s.AppendValues(relation.Value(i+10), relation.Value(i+20))
		x.AppendValues(relation.Value(i+20), relation.Value(i))
	}
	j, err := NewCyclic("tri", []*relation.Relation{r, s, x},
		[]Edge{{A: 0, B: 1, Attr: "B"}, {A: 1, B: 2, Attr: "C"}, {A: 2, B: 0, Attr: "A"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sch := j.OutputSchema()
	mk := func(a, b, c relation.Value) relation.Tuple {
		tu := make(relation.Tuple, sch.Len())
		tu[sch.Index("A")] = a
		tu[sch.Index("B")] = b
		tu[sch.Index("C")] = c
		return tu
	}
	if !j.Contains(mk(1, 11, 21)) { // build tables
		t.Fatal("existing triangle not contained")
	}
	r.AppendValues(7, 17)
	s.AppendValues(17, 27)
	x.AppendValues(27, 7)
	var wg sync.WaitGroup
	bad := make([]bool, 8)
	for w := range bad {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if !j.Contains(mk(7, 17, 27)) || !j.Contains(mk(1, 11, 21)) || j.Contains(mk(7, 11, 21)) {
					bad[w] = true
				}
			}
		}(w)
	}
	wg.Wait()
	for w, b := range bad {
		if b {
			t.Fatalf("worker %d saw wrong membership after append", w)
		}
	}
}

// TestConcurrentFirstContains probes a fresh join's membership path
// from many goroutines at once; under -race it verifies the exactly-
// once build behind the atomic publish.
func TestConcurrentFirstContains(t *testing.T) {
	j, _, _ := abChainFixture(t)
	var wg sync.WaitGroup
	fail := make([]bool, 8)
	for w := range fail {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				in := j.Contains(relation.Tuple{relation.Value(i), relation.Value(i * 10), relation.Value(i * 100)})
				out := j.Contains(relation.Tuple{relation.Value(i), relation.Value(i*10 + 1), relation.Value(i * 100)})
				if !in || out {
					fail[w] = true
				}
			}
		}(w)
	}
	wg.Wait()
	for w, f := range fail {
		if f {
			t.Fatalf("worker %d saw wrong membership", w)
		}
	}
}

// TestAlignedProbeMatchesContainsAligned checks the prepared probe on a
// permuted schema against Contains on the same tuple in the join's order.
func TestAlignedProbeMatchesContainsAligned(t *testing.T) {
	j, _, _ := abChainFixture(t)
	// External schema with the output attributes permuted: (y, k, x);
	// the join's own order is (k, x, y).
	ext := relation.NewSchema("y", "k", "x")
	probe, err := j.AlignProbe(ext)
	if err != nil {
		t.Fatalf("AlignProbe: %v", err)
	}
	own := func(tu relation.Tuple) relation.Tuple { return relation.Tuple{tu[1], tu[2], tu[0]} }
	for i := 0; i < 10; i++ {
		tu := relation.Tuple{relation.Value(i * 100), relation.Value(i), relation.Value(i * 10)}
		if !probe.Contains(tu) {
			t.Errorf("probe misses tuple %v", tu)
		}
		if probe.Contains(tu) != j.Contains(own(tu)) {
			t.Errorf("probe and Contains disagree on %v", tu)
		}
		miss := relation.Tuple{relation.Value(i * 100), relation.Value(i), relation.Value(i*10 + 5)}
		if probe.Contains(miss) || j.Contains(own(miss)) {
			t.Errorf("non-result tuple %v contained", miss)
		}
	}
}
