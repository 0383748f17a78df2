package tpch

import (
	"testing"

	"sampleunion/internal/core"
	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
)

func TestUQ1NValidation(t *testing.T) {
	if _, err := UQ1N(Config{SF: 0.2}, 0); err == nil {
		t.Error("zero variants accepted")
	}
	w, err := UQ1N(Config{SF: 0.2, Seed: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Joins) != 2 {
		t.Fatalf("joins = %d", len(w.Joins))
	}
}

// TestWorkloadsSampleable is the workload-level smoke test: every
// workload supports every sampler configuration end to end.
func TestWorkloadsSampleable(t *testing.T) {
	for _, name := range []string{"UQ1", "UQ2", "UQ3"} {
		w, err := ByName(name, Config{SF: 0.2, Overlap: 0.3, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []string{"EW", "EO"} {
			method := core.MethodEW
			if m == "EO" {
				method = core.MethodEO
			}
			g := rng.New(3)
			p, err := core.PrepareCover(w.Joins, core.CoverConfig{
				Method:    method,
				Estimator: &core.HistogramEstimator{Joins: w.Joins},
			}, g)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, m, err)
			}
			out, err := p.NewRun().Sample(100, g)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, m, err)
			}
			ref := w.Joins[0].OutputSchema()
			for _, tu := range out {
				found := false
				for _, j := range w.Joins {
					if pr, err := j.AlignProbe(ref); err == nil && pr.Contains(tu) {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("%s/%s: sample %v outside union", name, m, tu)
				}
			}
		}
	}
}

// TestUQ2PredicatesActuallyFilter verifies the three UQ2 variants are
// genuinely different relations, not aliases.
func TestUQ2PredicatesActuallyFilter(t *testing.T) {
	w, err := UQ2(Config{SF: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[int64]bool{}
	for _, j := range w.Joins {
		sizes[j.Count()] = true
	}
	if len(sizes) < 2 {
		t.Error("UQ2 variants have identical sizes; predicates may be inert")
	}
	// Filtered relations are smaller than their sources.
	g := NewGenerator(Config{SF: 0.5, Seed: 1})
	fullPart := g.Part(0).Len()
	qp := w.Joins[1] // the part-filtered variant
	var partLen int
	for _, n := range qp.Nodes() {
		if n.Rel.Schema().Has("p_size") {
			partLen = n.Rel.Len()
		}
	}
	if partLen == 0 || partLen >= fullPart {
		t.Errorf("part filter inert: %d of %d rows", partLen, fullPart)
	}
	_ = relation.True{}
}
