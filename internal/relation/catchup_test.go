package relation

import (
	"math"
	"runtime"
	"testing"
)

// bytesAllocated returns the heap bytes f allocates.
func bytesAllocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// catchUpBytes builds an index over rows rows holding rows/8 distinct
// values of degree 8, ages its overlay by touching age further values
// in 32-row bursts (one catch-up per burst, as a refresh does), and
// returns the bytes the catch-up of one more 32-row burst on untouched
// values allocates.
func catchUpBytes(rows, age int) uint64 {
	const burst = 32
	distinct := rows / 8
	r := New("aged", NewSchema("A", "B"))
	for i := 0; i < rows; i++ {
		r.AppendValues(Value(i%distinct), Value(i))
	}
	r.Index(0)
	next := 0 // the next untouched value
	appendBurst := func() {
		batch := make([]Tuple, burst)
		for i := range batch {
			batch[i] = Tuple{Value(next), Value(rows + next)}
			next++
		}
		r.AppendRows(batch)
	}
	for next < age {
		appendBurst()
		r.Index(0)
	}
	appendBurst()
	return bytesAllocated(func() { r.Index(0) })
}

// TestCatchUpBytesIndependentOfAge: an index catch-up writes in
// proportion to its burst, not to the overlay it extends. The bytes a
// 32-row catch-up allocates half way to the overlay's compaction budget
// are at most twice those of the same catch-up over a pure CSR.
func TestCatchUpBytesIndependentOfAge(t *testing.T) {
	const rows = 1 << 14
	budget := FoldBudget(rows)
	fresh, aged := ^uint64(0), ^uint64(0)
	for i := 0; i < 3; i++ { // the least of three: a stray collection is not the catch-up's
		fresh = min(fresh, catchUpBytes(rows, 0))
		aged = min(aged, catchUpBytes(rows, budget/2))
	}
	t.Logf("32-row catch-up: %d B at age 0, %d B half way to the fold (%.2fx)", fresh, aged, float64(aged)/float64(fresh))
	if aged > 2*fresh {
		t.Errorf("a 32-row catch-up half way to the fold allocates %d B, %.1fx the %d B at age 0: the overlay is copied whole again",
			aged, float64(aged)/float64(fresh), fresh)
	}
}

// TestCatchUpAllocatesOneRowListPerValue: a catch-up allocates the row
// list of a value it adds to the overlay once, with room for the row the
// tail appends to it. k appends to k values of the base that the overlay
// does not hold yet allocate what k deletes from them do: the overlay,
// its entries and slots, and k row lists.
func TestCatchUpAllocatesOneRowListPerValue(t *testing.T) {
	const rows, distinct = 1 << 12, 1 << 9
	catchUp := func(k int, del bool) float64 {
		r := New("R", NewSchema("A", "B"))
		for i := 0; i < rows; i++ {
			r.AppendValues(Value(i%distinct), Value(i))
		}
		ix := r.Index(0)
		for v := 0; v < k; v++ {
			if del {
				r.Delete(v) // row v holds value v
			} else {
				r.AppendValues(Value(v), Value(rows+v))
			}
		}
		tail, upTo, _ := r.MutationsSince(ix.version)
		s := r.snap.Load()
		// ix is a pure CSR, so each catch-up starts a new overlay. The
		// fewest of three counts: the runtime allocates now and then on
		// its own account.
		fewest := math.Inf(1)
		for range 3 {
			fewest = math.Min(fewest, testing.AllocsPerRun(10, func() { ix.applyTail(s, 0, tail, upTo) }))
		}
		return fewest
	}
	for _, k := range []int{1, 8, 32, 100} {
		appends, deletes := catchUp(k, false), catchUp(k, true)
		t.Logf("%d values: %.0f objects", k, appends)
		if appends != deletes {
			t.Errorf("%d appends to %d values new to the overlay allocate %.0f objects, %d deletes from them %.0f: a row list is grown after it was copied",
				k, k, appends, k, deletes)
		}
	}
}
