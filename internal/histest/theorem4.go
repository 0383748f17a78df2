package histest

import (
	"fmt"
	"math"
	"slices"

	"sampleunion/internal/relation"
)

// Mode selects how Theorem 4's degree factors are instantiated.
type Mode int

const (
	// BoundMode uses maximum degrees: the result is a true upper bound
	// on the overlap (Theorem 4 as stated).
	BoundMode Mode = iota
	// AvgMode replaces maximum degrees with average degrees (§5.1's
	// refinement when full histograms are available): an estimate, not
	// a bound, and less biased under skew.
	AvgMode
)

// Bound evaluates the Theorem 4 recurrence for the overlap of the joins
// described by profiles, all of which must have the same chain length
// and join-attribute sequence (profile construction guarantees this for
// profiles built over one template):
//
//	K(1)  = Σ_v min_j d_{A1}(v, R_{j,1}) · d_{A1}(v, R_{j,2})
//	K(i)  = K(i-1) · min_j M_{j,i}          (M = 1 on fake joins)
//	|O_Δ| ≤ K(m-1)
func Bound(profiles []*Profile, mode Mode) (float64, error) {
	if len(profiles) == 0 {
		return 0, fmt.Errorf("histest: no profiles")
	}
	m := len(profiles[0].Entries)
	for _, p := range profiles[1:] {
		if len(p.Entries) != m {
			return 0, fmt.Errorf("histest: profile lengths differ (%d vs %d)", len(p.Entries), m)
		}
		for i := 1; i < m; i++ {
			if p.Entries[i].JoinAttr != profiles[0].Entries[i].JoinAttr {
				return 0, fmt.Errorf("histest: join attribute %d differs (%q vs %q)",
					i, p.Entries[i].JoinAttr, profiles[0].Entries[i].JoinAttr)
			}
		}
	}
	if m == 1 {
		// A single-relation chain: the trivial bound min_j |J_j|.
		min := math.Inf(1)
		for _, p := range profiles {
			if s := float64(p.Entries[0].Rel.LiveLen()) * p.Entries[0].PathFactor; s < min {
				min = s
			}
		}
		return min, nil
	}

	k, err := firstHop(profiles)
	if err != nil {
		return 0, err
	}
	for i := 2; i < m; i++ {
		factor, err := hopFactor(profiles, i, mode)
		if err != nil {
			return 0, err
		}
		k *= factor
		if k == 0 {
			return 0, nil
		}
	}
	return k, nil
}

// firstHop computes K(1): the per-value degree product, minimized
// across joins, summed in ascending value order over the live values of
// the join whose first element has the fewest distinct values.
func firstHop(profiles []*Profile) (float64, error) {
	attr := profiles[0].Entries[1].JoinAttr
	// Iterate the values of the smallest domain to keep the scan
	// proportional to the tightest one.
	ixs := make([][2]*relation.Index, len(profiles))
	smallest := 0
	for i, p := range profiles {
		for k := range ixs[i] {
			ix, err := attrIndex(p.Entries[k].Rel, attr)
			if err != nil {
				return 0, fmt.Errorf("histest: join %s: %w", p.Join.Name(), err)
			}
			ixs[i][k] = ix
		}
		if ixs[i][0].Distinct() < ixs[smallest][0].Distinct() {
			smallest = i
		}
	}
	sum := 0.0
	for _, v := range liveValues(ixs[smallest][0]) {
		min := math.Inf(1)
		for i, p := range profiles {
			d0 := float64(ixs[i][0].Degree(v)) * p.Entries[0].PathFactor
			d1 := float64(ixs[i][1].Degree(v)) * p.Entries[1].PathFactor
			if term := d0 * d1; term < min {
				min = term
			}
			if min == 0 {
				break
			}
		}
		sum += min
	}
	return sum, nil
}

// hopFactor computes min_j M_{j,i} for chain position i >= 2.
func hopFactor(profiles []*Profile, i int, mode Mode) (float64, error) {
	min := math.Inf(1)
	for _, p := range profiles {
		e := p.Entries[i]
		var f float64
		if e.Fake {
			f = 1 // fake join: the split rejoins one original relation
		} else {
			ix, err := attrIndex(e.Rel, e.JoinAttr)
			if err != nil {
				return 0, fmt.Errorf("histest: join %s entry %d: %w", p.Join.Name(), i, err)
			}
			if mode == AvgMode {
				if n := ix.Distinct(); n > 0 {
					f = float64(e.Rel.LiveLen()) / float64(n)
				}
			} else {
				f = float64(ix.MaxDegree())
			}
			f *= e.PathFactor
		}
		if f < min {
			min = f
		}
	}
	return min, nil
}

// attrIndex returns r's index over the named attribute.
func attrIndex(r *relation.Relation, attr string) (*relation.Index, error) {
	pos := r.Schema().Index(attr)
	if pos < 0 {
		return nil, fmt.Errorf("relation %s has no attribute %q", r.Name(), attr)
	}
	return r.Index(pos), nil
}

// liveValues returns the values of ix with a live row, ascending.
func liveValues(ix *relation.Index) []relation.Value {
	vs := make([]relation.Value, 0, ix.Distinct())
	for e := range ix.NumEntries() {
		if v := ix.ValueAt(e); ix.Degree(v) > 0 {
			vs = append(vs, v)
		}
	}
	slices.Sort(vs)
	return vs
}
