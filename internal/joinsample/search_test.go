package joinsample

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"sampleunion/internal/join"
)

// Weight shapes of FuzzSegmentSearch.
const (
	shapeUniform = iota // equal weights: the proportional guess is the row
	shapeSkewed         // weights of random bit lengths up to 40
	shapeHuge           // weight 1 everywhere but one row near 2^62
	shapes
)

// blockedOf returns the large segment holding rows with running sums cum
// in blocks of the given sizes, then of what is left: each block's sums
// counted from its first row, the directory's running totals at each
// block's end.
func blockedOf(rows []int32, cum []int64, sizes ...int) *join.LargeSegment {
	seg := &join.LargeSegment{Scale: 1}
	var base int64
	for lo := 0; lo < len(rows); {
		hi := len(rows)
		if len(sizes) > 0 {
			hi, sizes = min(hi, lo+sizes[0]), sizes[1:]
		}
		blk := &join.Block{Rows: rows[lo:hi]}
		for _, c := range cum[lo:hi] {
			blk.Cum = append(blk.Cum, c-base)
		}
		base, lo = cum[hi-1], hi
		seg.Blocks, seg.Sums = append(seg.Blocks, blk), append(seg.Sums, base)
	}
	return seg
}

// FuzzSegmentSearch: searchCum returns the index slices.BinarySearch(cum,
// x+1) returns, over strictly increasing running sums of 1 to 4 096
// rows — on both sides of join.LargeRows — whatever the weights' shape;
// and searchLarge, over the same sums held in blocks of uneven sizes
// (from one row to past 2·join.BlockRows, as splits and drops leave
// them), returns the row at that index. Both are checked for x = 0,
// total-1, either side of every block boundary and of sampled row
// boundaries, and random x below the total.
func FuzzSegmentSearch(f *testing.F) {
	for shape := uint8(0); shape < shapes; shape++ {
		for _, n := range []uint16{1, join.LargeRows - 1, join.LargeRows, join.LargeRows + 1, 2*join.BlockRows + 1, 4095} {
			f.Add(int64(n)*7+int64(shape), n, shape)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, shape uint8) {
		r := rand.New(rand.NewSource(seed))
		cum := make([]int64, 1+int(n)%4096)
		rows := make([]int32, len(cum))
		huge := r.Intn(len(cum))
		var sum int64
		for i := range cum {
			w := int64(1)
			switch shape % shapes {
			case shapeUniform:
				w = 1 + seed&0xffff
			case shapeSkewed:
				w = 1 + r.Int63n(1<<r.Intn(41))
			case shapeHuge:
				if i == huge {
					w = math.MaxInt64/2 + r.Int63n(math.MaxInt64/2-int64(len(cum)))
				}
			}
			sum += w
			cum[i], rows[i] = sum, int32(i)
		}
		var sizes []int
		for left := len(cum); left > 0; left -= sizes[len(sizes)-1] {
			sizes = append(sizes, min(left, 1+r.Intn(2*join.BlockRows+8)))
		}
		seg := blockedOf(rows, cum, sizes...)
		if seg.Total() != sum || seg.Len() != len(rows) {
			t.Fatalf("blocked total %d of %d rows, flat %d of %d", seg.Total(), seg.Len(), sum, len(rows))
		}
		check := func(x int64) {
			if x < 0 || x >= sum {
				return
			}
			want, _ := slices.BinarySearch(cum, x+1)
			if got := searchCum(cum, x); got != want {
				t.Fatalf("n=%d shape=%d x=%d: searchCum %d, slices.BinarySearch %d", len(cum), shape%shapes, x, got, want)
			}
			if got := searchLarge(seg, x); got != rows[want] {
				t.Fatalf("n=%d shape=%d blocks=%v x=%d: searchLarge row %d, flat row %d", len(cum), shape%shapes, sizes, x, got, rows[want])
			}
		}
		check(0)
		check(sum - 1)
		for _, s := range seg.Sums {
			check(s - 1)
			check(s)
		}
		for i := 0; i < 64; i++ {
			b := cum[r.Intn(len(cum))]
			check(b - 1)
			check(b)
			check(r.Int63n(sum))
		}
	})
}
