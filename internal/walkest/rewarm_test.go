package walkest

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
)

// mallocs returns the heap objects f allocates.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestRewarmAllocatesPoolOnce: Refreshed sizes a dirty join's new pool
// from the pool it replaces — that many walks and a quarter more, at most
// the walk budget, 16 B of p(t) and owner and 4 B of row id per node
// each — so a re-warm-up that keeps no more allocates it not again, only
// its tuple scratch, where a pool grown by doubling took an allocation a
// step.
func TestRewarmAllocatesPoolOnce(t *testing.T) {
	joins := threeWayJoins(t)
	e, err := New(joins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.Warmup(rng.New(56))
	rel := joins[1].Nodes()[0].Rel
	within := 0
	for i := 0; i < 8; i++ {
		rel.AppendValues(relation.Value(1000+i), 0)
		// The fewest objects of three refreshes of e, which walk alike:
		// the runtime allocates now and then on its own account.
		var r *Estimator
		allocs := ^uint64(0)
		for range 3 {
			r, _ = e.Refreshed([]bool{false, true, false})
			je, kept := r.ests[1], len(e.ests[1].samples)
			want := min(kept+kept/4, e.opts.MaxWalks)
			if cap(je.samples) != want || cap(je.rows) != want*len(joins[1].Nodes()) {
				t.Fatalf("refresh %d: a pool of %d walks reserved %d samples and %d row ids, want %d walks", i, kept, cap(je.samples), cap(je.rows), want)
			}
			if bytes := cap(je.samples)*int(unsafe.Sizeof(Sample{})) + cap(je.rows)*int(unsafe.Sizeof(je.rows[0])); bytes > want*(16+4*len(joins[1].Nodes())) {
				t.Fatalf("refresh %d: %d walks reserve %d B, over 16 B a walk and 4 B a node", i, want, bytes)
			}
			g := rng.New(int64(57 + i))
			allocs = min(allocs, mallocs(func() { r.Warmup(g) }))
		}
		je, reserved := r.ests[1], min(len(e.ests[1].samples)*5/4, e.opts.MaxWalks)
		t.Logf("refresh %d: kept %d walks of %d reserved in %d objects", i, len(je.samples), reserved, allocs)
		if len(je.samples) <= reserved {
			within++
			if allocs != 1 {
				t.Errorf("refresh %d: a re-warm-up keeping %d of %d reserved walks allocated %d objects, want 1 (its tuple scratch)", i, len(je.samples), reserved, allocs)
			}
		}
		e = r
	}
	if within == 0 {
		t.Error("no re-warm-up kept its walks within the reserved pool")
	}
}

// TestRewarmDrawsAsCold: the reserved pool changes nothing drawn. With
// every join dirty, a refreshed estimator warms up walk for walk as a new
// one does from the same generator: the same row ids, tuples, p(t),
// owners and estimates.
func TestRewarmDrawsAsCold(t *testing.T) {
	joins := threeWayJoins(t)
	e, err := New(joins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.Warmup(rng.New(58))
	joins[0].Nodes()[0].Rel.AppendValues(1000, 0)
	r, _ := e.Refreshed([]bool{true, true, true})
	r.Warmup(rng.New(59))
	cold, _ := New(joins, Options{})
	cold.Warmup(rng.New(59))
	for j := range joins {
		got, want := r.ests[j], cold.ests[j]
		if got.Walks() != want.Walks() || math.Float64bits(got.Size()) != math.Float64bits(want.Size()) ||
			math.Float64bits(got.Cover()) != math.Float64bits(want.Cover()) || len(got.Samples()) != len(want.Samples()) {
			t.Fatalf("join %d: %d walks, |Ĵ| %v, ĉ %v, %d kept; a new estimator %d, %v, %v, %d", j,
				got.Walks(), got.Size(), got.Cover(), len(got.Samples()), want.Walks(), want.Size(), want.Cover(), len(want.Samples()))
		}
		if !slices.Equal(got.rows, want.rows) {
			t.Fatalf("join %d: the re-warm-up picked rows %v, a new estimator %v", j, got.rows, want.rows)
		}
		for i, s := range got.Samples() {
			if w := want.Samples()[i]; !tupleOf(got, i).Equal(tupleOf(want, i)) || s != w {
				t.Fatalf("join %d walk %d: %v p %v owner %d; a new estimator's %v p %v owner %d", j, i, tupleOf(got, i), s.P, s.Owner, tupleOf(want, i), w.P, w.Owner)
			}
		}
	}
}
