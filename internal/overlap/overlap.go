// Package overlap holds the histogram warm-up's subset table (§4): the
// overlap sizes |O_Δ| over the powerset of joins, and the cover sizes
// |J'_i| of §3.1 read off it by inclusion–exclusion. Exact fills the same
// table by brute force, the reference the estimators' tests and
// internal/bench's subset-overlap ablation compare against.
//
// Subsets of the n joins are represented as bitmasks: bit j set means
// join j is in the subset.
package overlap

import (
	"fmt"
	"math"
	"math/bits"

	"sampleunion/internal/join"
	"sampleunion/internal/relation"
)

// MaxJoins bounds the joins one Table covers: the powerset table is
// dense in 2^n. Only the histogram warm-up and Exact build one; the
// samplers and the other warm-ups take any number of joins.
const MaxJoins = 20

// Table holds (exact or estimated) overlap sizes for every non-empty
// subset of n joins. sizes[mask] = |O_Δ| where Δ is the subset encoded
// by mask; sizes[1<<j] = |J_j|.
type Table struct {
	n     int
	sizes []float64
}

// NewTable returns a zero-filled table for n joins.
func NewTable(n int) (*Table, error) {
	if n < 1 || n > MaxJoins {
		return nil, fmt.Errorf("overlap: need 1..%d joins, got %d", MaxJoins, n)
	}
	return &Table{n: n, sizes: make([]float64, 1<<uint(n))}, nil
}

// Set records |O_Δ| for the subset mask.
func (t *Table) Set(mask uint, size float64) {
	if size < 0 {
		size = 0
	}
	t.sizes[mask] = size
}

// Get returns |O_Δ| for the subset mask (0 for the empty mask).
func (t *Table) Get(mask uint) float64 {
	if mask == 0 {
		return 0
	}
	return t.sizes[mask]
}

// JoinSize returns |J_j|.
func (t *Table) JoinSize(j int) float64 { return t.sizes[1<<uint(j)] }

// JoinSizes returns |J_j| for every join, in join order.
func (t *Table) JoinSizes() []float64 {
	out := make([]float64, t.n)
	for j := range out {
		out[j] = t.JoinSize(j)
	}
	return out
}

// Normalize enforces the monotonicity every true overlap table obeys:
// adding a join to a subset cannot grow the overlap. Estimated tables
// may violate it; Normalize clamps each |O_Δ| to the minimum over its
// one-smaller subsets, processing masks in increasing popcount order.
func (t *Table) Normalize() {
	for size := 2; size <= t.n; size++ {
		for mask := uint(1); mask < uint(len(t.sizes)); mask++ {
			if bits.OnesCount(mask) != size {
				continue
			}
			min := math.Inf(1)
			for j := 0; j < t.n; j++ {
				b := uint(1) << uint(j)
				if mask&b == 0 {
					continue
				}
				if s := t.sizes[mask&^b]; s < min {
					min = s
				}
			}
			if t.sizes[mask] > min {
				t.sizes[mask] = min
			}
		}
	}
}

// CoverSizes computes |J'_i| for the cover induced by the table's join
// order (§3.1): J'_i holds the tuples of J_i not covered by any earlier
// join, so |J'_i| = Σ_{Δ ⊆ {0..i-1}} (-1)^|Δ| · |O_{Δ ∪ {i}}| by
// inclusion–exclusion. Values are clamped at zero.
func (t *Table) CoverSizes() []float64 {
	out := make([]float64, t.n)
	for i := 0; i < t.n; i++ {
		ib := uint(1) << uint(i)
		prior := ib - 1 // bits 0..i-1
		sum := 0.0
		// Iterate subsets of prior.
		for sub := uint(0); ; sub = (sub - prior) & prior {
			sign := 1.0
			if bits.OnesCount(sub)%2 == 1 {
				sign = -1
			}
			sum += sign * t.Get(sub|ib)
			if sub == prior {
				break
			}
		}
		if sum < 0 {
			sum = 0
		}
		out[i] = sum
	}
	return out
}

// Exact materializes every join and fills a Table with the true overlap
// sizes; it also returns the exact set-union size. Output tuples are
// aligned by attribute name to the first join's schema (§2: all joins
// share an output schema). This is the brute-force reference: each
// tuple's membership mask is computed once, keyed by its value, and
// aggregated with a superset-sum over the 2^n subsets. The samplers' own
// exact warm-up (core.ExactEstimator) counts covers by owner probes and
// needs none of it.
func Exact(joins []*join.Join) (*Table, int, error) {
	t, err := NewTable(len(joins))
	if err != nil {
		return nil, 0, err
	}
	ref := joins[0].OutputSchema()
	byMask := make(map[uint]int)
	seen := make(map[string]uint, 1024)
	for jIdx, j := range joins {
		perm, err := ref.Perm(j.OutputSchema())
		if err != nil {
			return nil, 0, fmt.Errorf("overlap: join %s: %w", j.Name(), err)
		}
		buf := make(relation.Tuple, ref.Len())
		j.Enumerate(func(tu relation.Tuple) bool {
			for i, p := range perm {
				buf[i] = tu[p]
			}
			seen[relation.TupleKey(buf)] |= 1 << uint(jIdx)
			return true
		})
	}
	for _, mask := range seen {
		byMask[mask]++
	}
	unionSize := len(seen)
	// sizes[Δ] = Σ over exact-membership masks m ⊇ Δ of byMask[m].
	full := uint(1<<uint(len(joins))) - 1
	for mask := uint(1); mask <= full; mask++ {
		total := 0
		for m, c := range byMask {
			if m&mask == mask {
				total += c
			}
		}
		t.Set(mask, float64(total))
	}
	return t, unionSize, nil
}
