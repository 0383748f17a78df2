package join

import (
	"testing"
	"testing/quick"

	"sampleunion/internal/relation"
)

// TestExactWeightsMatchEnumeration drives the EW recurrence with random
// two-relation chains: the root weights must sum to the enumerated
// result count, and every root row's weight must equal the number of
// results it heads.
func TestExactWeightsMatchEnumeration(t *testing.T) {
	f := func(keysA, keysB []uint8) bool {
		ra := relation.New("A", relation.NewSchema("K", "X"))
		for i, k := range keysA {
			ra.AppendValues(relation.Value(k%6), relation.Value(i))
		}
		rb := relation.New("B", relation.NewSchema("K", "Y"))
		for i, k := range keysB {
			rb.AppendValues(relation.Value(k%6), relation.Value(i))
		}
		if ra.Len() == 0 || rb.Len() == 0 {
			return true
		}
		j, err := NewChain("J", []*relation.Relation{ra, rb}, []string{"K"})
		if err != nil {
			return false
		}
		w := rowWeights(j, exactWeights(t, j), 0)
		var total int64
		for _, wi := range w {
			total += wi
		}
		if total != j.Count() {
			return false
		}
		// Per-row check: weight of row i of the root = degree of its key
		// in B.
		for i := 0; i < ra.Len(); i++ {
			if w[i] != int64(rb.Degree(0, ra.Value(i, 0))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestCountMatchesEnumerationProperty checks Count (weight DP) against
// brute-force enumeration on random three-relation chains.
func TestCountMatchesEnumerationProperty(t *testing.T) {
	f := func(keysA, keysB, keysC []uint8) bool {
		ra := relation.New("A", relation.NewSchema("K", "X"))
		for i, k := range keysA {
			ra.AppendValues(relation.Value(k%5), relation.Value(i))
		}
		rb := relation.New("B", relation.NewSchema("K", "L"))
		for i, k := range keysB {
			rb.AppendValues(relation.Value(k%5), relation.Value(int(k/16)%4))
			_ = i
		}
		rc := relation.New("C", relation.NewSchema("L", "Z"))
		for i, k := range keysC {
			rc.AppendValues(relation.Value(k%4), relation.Value(i))
		}
		if ra.Len() == 0 || rb.Len() == 0 || rc.Len() == 0 {
			return true
		}
		j, err := NewChain("J", []*relation.Relation{ra, rb, rc}, []string{"K", "L"})
		if err != nil {
			return false
		}
		var enumerated int64
		j.Enumerate(func(relation.Tuple) bool {
			enumerated++
			return true
		})
		return j.Count() == enumerated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestContainsSoundAndComplete checks, on random data, that Contains
// answers exactly the enumerated result set over the full candidate
// cross product of observed values.
func TestContainsSoundAndComplete(t *testing.T) {
	f := func(keysA, keysB []uint8) bool {
		ra := relation.New("A", relation.NewSchema("K", "X"))
		for i, k := range keysA {
			ra.AppendValues(relation.Value(k%4), relation.Value(i%3))
		}
		rb := relation.New("B", relation.NewSchema("K", "Y"))
		for i, k := range keysB {
			rb.AppendValues(relation.Value(k%4), relation.Value(i%3))
		}
		if ra.Len() == 0 || rb.Len() == 0 {
			return true
		}
		j, err := NewChain("J", []*relation.Relation{ra, rb}, []string{"K"})
		if err != nil {
			return false
		}
		inJoin := make(map[string]bool)
		j.Enumerate(func(tu relation.Tuple) bool {
			inJoin[relation.TupleKey(tu)] = true
			return true
		})
		for k := relation.Value(0); k < 4; k++ {
			for x := relation.Value(0); x < 3; x++ {
				for y := relation.Value(0); y < 3; y++ {
					tu := relation.Tuple{k, x, y}
					if j.Contains(tu) != inJoin[relation.TupleKey(tu)] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestOlkenBoundProperty: the Olken bound dominates the true size on
// random chains.
func TestOlkenBoundProperty(t *testing.T) {
	f := func(keysA, keysB []uint8) bool {
		ra := relation.New("A", relation.NewSchema("K", "X"))
		for i, k := range keysA {
			ra.AppendValues(relation.Value(k%7), relation.Value(i))
		}
		rb := relation.New("B", relation.NewSchema("K", "Y"))
		for i, k := range keysB {
			rb.AppendValues(relation.Value(k%7), relation.Value(i))
		}
		if ra.Len() == 0 || rb.Len() == 0 {
			return true
		}
		j, err := NewChain("J", []*relation.Relation{ra, rb}, []string{"K"})
		if err != nil {
			return false
		}
		return j.OlkenBound() >= float64(j.Count())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
