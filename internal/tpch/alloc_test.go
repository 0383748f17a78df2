package tpch

import "testing"

// TestGenerationAllocatesPerStructure: a workload's generation allocates
// per relation — its column vectors, schema, snapshot — never per row, so
// doubling the scale factor leaves the count where it was. Either half
// fails if a per-row append (a snapshot and a column-header slice per
// row) or doubling column growth comes back.
func TestGenerationAllocatesPerStructure(t *testing.T) {
	allocs := func(sf float64) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := UQ1(Config{SF: sf, Overlap: 0.2, Seed: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
	const relations, perRelation = 21, 40 // nation + 5 variants × 4; measured ≈ 34 each, the joins over them included
	at10, at20 := allocs(10), allocs(20)
	t.Logf("UQ1 allocations: SF 10 %.0f, SF 20 %.0f", at10, at20)
	if at10 > relations*perRelation {
		t.Errorf("UQ1 at SF 10 allocates %.0f times, over %d per relation", at10, perRelation)
	}
	if at20 > at10+relations {
		t.Errorf("UQ1 allocations grow with the data: %.0f at SF 10, %.0f at SF 20", at10, at20)
	}
}
