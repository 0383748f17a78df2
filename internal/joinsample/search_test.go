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

// FuzzSegmentSearch: searchCum returns the index slices.BinarySearch(cum,
// x+1) returns, over strictly increasing running sums of 1 to 4 096
// rows — on both sides of join.LargeRows — whatever the weights' shape,
// for x = 0, total-1, either side of every sampled boundary, and random x
// below the total.
func FuzzSegmentSearch(f *testing.F) {
	for shape := uint8(0); shape < shapes; shape++ {
		for _, n := range []uint16{1, join.LargeRows - 1, join.LargeRows, join.LargeRows + 1, 4095} {
			f.Add(int64(n)*7+int64(shape), n, shape)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, shape uint8) {
		r := rand.New(rand.NewSource(seed))
		cum := make([]int64, 1+int(n)%4096)
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
			cum[i] = sum
		}
		check := func(x int64) {
			if x < 0 || x >= sum {
				return
			}
			want, _ := slices.BinarySearch(cum, x+1)
			if got := searchCum(cum, x); got != want {
				t.Fatalf("n=%d shape=%d x=%d: searchCum %d, slices.BinarySearch %d", len(cum), shape%shapes, x, got, want)
			}
		}
		check(0)
		check(sum - 1)
		for i := 0; i < 64; i++ {
			b := cum[r.Intn(len(cum))]
			check(b - 1)
			check(b)
			check(r.Int63n(sum))
		}
	})
}
