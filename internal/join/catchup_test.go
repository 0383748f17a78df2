package join

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"sampleunion/internal/relation"
)

// least is min for byte counts (the package's tests declare an int min).
func least(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// bytesAllocated returns the heap bytes f allocates.
func bytesAllocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// agedChain is a chain: a small root A(x, y) over a child B(y, z, u) of
// rows rows, rows/8 distinct y values of degree 8, over oneRowLeaf.
// burst appends 32 rows to B, each on a y value no burst touched before.
type agedChain struct {
	j    *Join
	a, b *relation.Relation
	rows int
	next int
}

// oneRowLeaf is a leaf C(u) of one row, u = 0, for a chain to end in
// below a relation whose rows all hold u = 0: each of those weighs 1, as
// a leaf's row does, but the relation, no longer a leaf, keeps a weight
// table.
func oneRowLeaf() *relation.Relation {
	c := relation.New("C", relation.NewSchema("u"))
	c.AppendValues(0)
	return c
}

func newAgedChain(t *testing.T, rows int) *agedChain {
	t.Helper()
	c := &agedChain{rows: rows}
	c.a = relation.New("A", relation.NewSchema("x", "y"))
	c.b = relation.New("B", relation.NewSchema("y", "z", "u"))
	distinct := rows / 8
	for i := 0; i < 64; i++ {
		c.a.AppendValues(relation.Value(i), relation.Value(i*distinct/64))
	}
	for i := 0; i < rows; i++ {
		c.b.AppendValues(relation.Value(i%distinct), relation.Value(i), 0)
	}
	var err error
	if c.j, err = NewChain("aged", []*relation.Relation{c.a, c.b, oneRowLeaf()}, []string{"y", "u"}); err != nil {
		t.Fatal(err)
	}
	return c
}

func (c *agedChain) burst() {
	batch := make([]relation.Tuple, 32)
	for i := range batch {
		batch[i] = relation.Tuple{relation.Value(c.next), relation.Value(c.rows + c.next), 0}
		c.next++
	}
	c.b.AppendRows(batch)
}

// reconcileBytes returns the bytes the membership reconcile of one
// 32-row burst allocates after age rows were appended in 32-row bursts,
// each reconciled, since the base build.
func reconcileBytes(t *testing.T, rows, age int) uint64 {
	c := newAgedChain(t, rows)
	c.j.PrewarmMembership()
	for c.next < age {
		c.burst()
		c.j.PrewarmMembership()
	}
	c.burst()
	return bytesAllocated(c.j.PrewarmMembership)
}

// TestReconcileBytesIndependentOfAge: a membership reconcile writes in
// proportion to its burst, not to the delta it extends. The bytes a
// 32-row reconcile allocates half way to the fold budget are at most
// twice those of the same reconcile right after the base build.
func TestReconcileBytesIndependentOfAge(t *testing.T) {
	const rows = 1 << 14
	budget := relation.FoldBudget(rows)
	fresh, aged := ^uint64(0), ^uint64(0)
	for i := 0; i < 3; i++ { // the least of three: a stray collection is not the reconcile's
		fresh = least(fresh, reconcileBytes(t, rows, 0))
		aged = least(aged, reconcileBytes(t, rows, budget/2))
	}
	t.Logf("32-row reconcile: %d B at age 0, %d B half way to the fold (%.2fx)", fresh, aged, float64(aged)/float64(fresh))
	if aged > 2*fresh {
		t.Errorf("a 32-row reconcile half way to the fold allocates %d B, %.1fx the %d B at age 0: the delta is rebuilt whole again",
			aged, float64(aged)/float64(fresh), fresh)
	}
}

// patchBytes returns the bytes PatchWeights allocates for one 32-row
// burst on B after age rows were appended and patched in 32-row bursts
// since the tables were built flat. overlaid reports how many of B's
// segments the last patch's table overlays.
func patchBytes(t *testing.T, rows, age int) (bytes uint64, overlaid int) {
	c := newAgedChain(t, rows)
	w := exactWeights(t, c.j)
	for c.next < age {
		c.burst()
		var p Patch
		if w, p = patchWeights(t, c.j, w); p.Rebuilt || p.Folded[1] {
			t.Fatalf("after %d rows: the aging patch rebuilt or folded (%+v)", c.next, p)
		}
	}
	c.burst()
	c.a.Index(1) // the indexes' own catch-ups are not the patch's
	c.b.Index(0)
	var p Patch
	bytes = bytesAllocated(func() { w, p = patchWeights(t, c.j, w) })
	if p.Rebuilt || p.Folded[1] {
		t.Fatalf("the measured patch rebuilt or folded (%+v)", p)
	}
	return bytes, w.Nodes[1].ov.ents
}

// TestPatchBytesByAge: a weight patch writes in proportion to its burst,
// not to the overlay it extends. The bytes a 32-row patch allocates half
// way to the 1/8 overlay fold are at most twice those of the same patch
// right after the tables were built: the overlay's segments are written
// once, and its slot table is extended in place.
func TestPatchBytesByAge(t *testing.T) {
	const rows = 1 << 14
	// B's overlay folds once its entries and rows pass an eighth of the
	// flat table's; a touched value adds one entry and 9 rows.
	half := (rows/8 + rows) / 8 / 2 / 10
	fresh, aged := ^uint64(0), ^uint64(0)
	var ents int
	for i := 0; i < 3; i++ {
		b, _ := patchBytes(t, rows, 0)
		fresh = least(fresh, b)
		b, ents = patchBytes(t, rows, half)
		aged = least(aged, b)
	}
	t.Logf("32-row patch: %d B at age 0, %d B over an overlay of %d segments (%.2fx)", fresh, aged, ents, float64(aged)/float64(fresh))
	if aged > 2*fresh {
		t.Errorf("a 32-row patch over an overlay of %d segments allocates %d B, %.1fx the %d B at age 0: the overlay is copied whole again",
			ents, aged, float64(aged)/float64(fresh), fresh)
	}
}

// weightDump is every segment of every node of w, copied: a leaf's, its
// index's rows and degree.
func weightDump(w *Weights) [][]string {
	out := make([][]string, len(w.Nodes))
	for k := range w.Nodes {
		entries := 1
		if k > 0 {
			entries = w.Idx[k].NumEntries()
		}
		for e := 0; e < entries; e++ {
			if w.Leaf(k) {
				v := w.Idx[k].ValueAt(e)
				out[k] = append(out[k], fmt.Sprint(w.Idx[k].Rows(v), w.Total(k, v)))
				continue
			}
			rows, cum, scale := flatSegment(&w.Nodes[k], e)
			if len(rows) == 0 {
				scale = 0 // an empty segment's scale is never read
			}
			out[k] = append(out[k], fmt.Sprint(rows, cum, scale, w.Nodes[k].Total(e)))
		}
	}
	return out
}

// TestWeightGenerationsUnderPatch: readers keep probing one weight-table
// generation, against the segments it was published with, while its next
// eight generations are patched from it, each from the one before. Each
// of those gets a sibling too — patched from the same predecessor after
// one more mutation — which must equal a cold build and must leave the
// first successor as it was (run under -race: a patch that writes where
// an older generation reads, or two successors extending one overlay in
// place, is a race or a mismatch).
func TestWeightGenerationsUnderPatch(t *testing.T) {
	c := newAgedChain(t, 4096)
	rnd := rand.New(rand.NewSource(9))
	mutate := func() {
		switch rnd.Intn(4) {
		case 0: // rows on values no burst touched before
			c.burst()
		case 1:
			c.b.Delete(rnd.Intn(c.b.Len()))
		default: // rows on existing values: their segments grow
			for i := 0; i < 8; i++ {
				c.b.AppendValues(relation.Value(rnd.Intn(c.rows/8)), relation.Value(c.rows+rnd.Intn(1<<20)), 0)
			}
		}
	}
	w := exactWeights(t, c.j)
	overlaid := 0
	for round := 0; round < 12; round++ {
		pinned, want := w, weightDump(w)
		done := make(chan struct{})
		var readers sync.WaitGroup
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					if got := weightDump(pinned); !reflect.DeepEqual(got, want) {
						t.Errorf("round %d: a generation's segments changed while its successors were patched", round)
						return
					}
				}
			}()
		}
		for g := 0; g < 8; g++ {
			mutate()
			first, _ := patchWeights(t, c.j, w)
			firstWant := weightDump(first)
			mutate()
			sibling, _ := patchWeights(t, c.j, w)
			if !reflect.DeepEqual(weightDump(sibling), weightDump(exactWeights(t, c.j))) {
				t.Fatalf("round %d generation %d: the second successor of one generation differs from a cold build", round, g)
			}
			if !reflect.DeepEqual(weightDump(first), firstWant) {
				t.Fatalf("round %d generation %d: the second successor of one generation rewrote the first", round, g)
			}
			if sibling.Nodes[1].ov != nil {
				overlaid++
			}
			w = sibling
		}
		close(done)
		readers.Wait()
	}
	if overlaid < 48 {
		t.Errorf("only %d of 96 generations carried an overlay: the script no longer exercises in-place extension", overlaid)
	}
}

// perNodeChain is a chain A ⋈ B on y over oneRowLeaf: A holds two rows
// for each of values values of y, B 40 to 340 rows each with distinct z
// values, next being the first unused one.
func perNodeChain(t *testing.T, values int) (j *Join, b *relation.Relation, next int) {
	a := relation.New("A", relation.NewSchema("x", "y"))
	b = relation.New("B", relation.NewSchema("y", "z", "u"))
	for v := 0; v < values; v++ {
		a.AppendValues(relation.Value(2*v), relation.Value(v))
		a.AppendValues(relation.Value(2*v+1), relation.Value(v))
		for i := 0; i < 40+20*(v%16); i++ {
			b.AppendValues(relation.Value(v), relation.Value(next), 0)
			next++
		}
	}
	j, err := NewChain("perNode", []*relation.Relation{a, b, oneRowLeaf()}, []string{"y", "u"})
	if err != nil {
		t.Fatal(err)
	}
	return j, b, next
}

// TestPatchScratchSurvivesCollections: a join keeps its patch scratch
// where the collector leaves it, so a patch after two collections — a
// sync.Pool's lifetime — allocates no more than one right after another
// patch, where a dropped scratch regrew a node's worth by doubling.
func TestPatchScratchSurvivesCollections(t *testing.T) {
	j, b, next := perNodeChain(t, 24)
	w := exactWeights(t, j)
	for v := 0; v < 18; v++ {
		b.AppendValues(relation.Value(v), relation.Value(next+v), 0)
	}
	measure := func(collect bool) (allocs, bytes uint64) {
		allocs, bytes = math.MaxUint64, math.MaxUint64
		for range 5 {
			patchWeights(t, j, w)
			if collect {
				runtime.GC()
				runtime.GC()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			patchWeights(t, j, w)
			runtime.ReadMemStats(&after)
			allocs = least(allocs, after.Mallocs-before.Mallocs)
			bytes = least(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		return allocs, bytes
	}
	steadyAllocs, steadyBytes := measure(false)
	allocs, bytes := measure(true)
	t.Logf("a patch allocates %d objects, %d B; after two collections %d objects, %d B", steadyAllocs, steadyBytes, allocs, bytes)
	if allocs > steadyAllocs || bytes > steadyBytes {
		t.Errorf("a patch after two collections allocates %d objects, %d B; right after another %d, %d B: the scratch was dropped", allocs, bytes, steadyAllocs, steadyBytes)
	}
}

// TestConcurrentPatchesOfOneJoin: patches of one join from several
// goroutines at once each take the join's scratch or make their own, so
// none writes another's, and every one equals a cold build.
func TestConcurrentPatchesOfOneJoin(t *testing.T) {
	j, b, next := perNodeChain(t, 24)
	w := exactWeights(t, j)
	for v := 0; v < 18; v++ {
		b.AppendValues(relation.Value(v), relation.Value(next+v), 0)
	}
	want := weightDump(exactWeights(t, j))
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				ws, _, err := j.PatchWeights(w)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(weightDump(ws), want) {
					t.Error("a concurrent patch differs from a cold build")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPatchAllocatesPerNode: a patch carves the large segments it
// rewrites the way a cold build carves a node, from one set of slabs, so
// what it allocates does not grow with the segments it reaches. The
// child B of a two-relation chain holds 24 large segments of 40 to 340
// rows (one or two blocks each) under a root of 48 rows, itself one
// large segment; a burst of appends to 2 of them and one to 18 allocate
// alike, and every patched generation equals a cold build over the same
// indexes.
func TestPatchAllocatesPerNode(t *testing.T) {
	const values = 24
	j, b, next := perNodeChain(t, values)
	w := exactWeights(t, j)
	// least is the fewest allocations of ten patches from w: the runtime
	// allocates now and then on its own account, and a patch it did so
	// under is not the one measured.
	least := func() float64 {
		fewest := math.Inf(1)
		for i := 0; i < 10; i++ {
			fewest = math.Min(fewest, testing.AllocsPerRun(1, func() { patchWeights(t, j, w) }))
		}
		return fewest
	}
	var allocs []float64
	for _, reached := range []int{2, 18} {
		for v := 0; v < reached; v++ {
			b.AppendValues(relation.Value(v*values/reached), relation.Value(next), 0)
			next++
		}
		allocs = append(allocs, least())
		patched, p := patchWeights(t, j, w)
		if p.Rebuilt || len(p.Touched[1]) != reached {
			t.Fatalf("burst on %d values: patch %+v, want B's %d segments rewritten in place", reached, p, reached)
		}
		cold := exactWeights(t, j)
		if !reflect.DeepEqual(weightDump(patched), weightDump(cold)) || patched.Count() != cold.Count() {
			t.Fatalf("burst on %d values: the patched tables differ from a cold build", reached)
		}
		w = patched
	}
	t.Logf("a patch reaching 2 large segments allocates %.0f objects, one reaching 18 %.0f", allocs[0], allocs[1])
	if allocs[0] != allocs[1] {
		t.Errorf("a patch reaching 2 large segments allocates %.0f objects, one reaching 18 %.0f: it allocates per segment again", allocs[0], allocs[1])
	}
}
