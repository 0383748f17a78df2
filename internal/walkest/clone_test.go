package walkest

import (
	"testing"

	"sampleunion/internal/rng"
)

// TestCloneIndependence: a clone starts from the warm-up's estimates
// and pool, and diverges without touching the original — the property
// the online sampler's one-warm-up/many-runs split relies on.
func TestCloneIndependence(t *testing.T) {
	joins := overlappingJoins(t)
	e, err := New(joins, Options{MaxWalks: 200})
	if err != nil {
		t.Fatal(err)
	}
	e.Warmup(rng.New(1))

	c := e.Clone()
	for j, je := range e.ests {
		if c.ests[j].Walks() != je.Walks() || c.ests[j].Size() != je.Size() {
			t.Fatalf("join %d: clone estimate differs at birth", j)
		}
		if len(c.ests[j].Samples()) != len(je.Samples()) {
			t.Fatalf("join %d: clone pool size %d, want %d",
				j, len(c.ests[j].Samples()), len(je.Samples()))
		}
	}

	// Drain the clone's pool and keep walking it; the original must not
	// move.
	wantWalks := e.ests[0].Walks()
	wantPool := len(e.ests[0].Samples())
	g := rng.New(2)
	tu := scratchFor(joins)
	for len(c.ests[0].Samples()) > 0 {
		c.ests[0].TakeSample(0, tu)
	}
	for i := 0; i < 100; i++ {
		c.StepJoin(0, tu, g)
	}
	if e.ests[0].Walks() != wantWalks {
		t.Fatalf("original walk count moved: %d -> %d", wantWalks, e.ests[0].Walks())
	}
	if len(e.ests[0].Samples()) != wantPool {
		t.Fatalf("original pool drained by clone: %d -> %d", wantPool, len(e.ests[0].Samples()))
	}
	if c.ests[0].Walks() == wantWalks {
		t.Fatal("clone did not accumulate its own walks")
	}

	// Cover estimates are independent too: the clone's walks of a later
	// join must not perturb the original's.
	cover := e.ests[1].cover
	for i := 0; i < 100; i++ {
		c.StepJoin(1, tu, g)
	}
	if e.ests[1].cover != cover || c.ests[1].cover == cover {
		t.Fatal("clone shares cover state with the original")
	}
}

// TestCopyEstimatesRestartsInPlace: a run's estimator copied from the
// warm-up starts at the warm-up's estimates with empty pools, diverges
// without touching the warm-up, and a second copy into the same storage
// brings it back to exactly the warm-up's state — what a recycled online
// run starts from.
func TestCopyEstimatesRestartsInPlace(t *testing.T) {
	joins := overlappingJoins(t)
	e, err := New(joins, Options{MaxWalks: 200})
	if err != nil {
		t.Fatal(err)
	}
	e.Warmup(rng.New(1))
	want := e.ests[1].cover
	atWarmup := func(c *Estimator, when string) {
		t.Helper()
		for j, je := range e.ests {
			cj := c.ests[j]
			if cj.n != je.n || cj.size != je.size || cj.cover != je.cover {
				t.Fatalf("%s: join %d estimate (%d, %v, %v), warm-up has (%d, %v, %v)", when, j,
					cj.n, cj.size, cj.cover, je.n, je.size, je.cover)
			}
			if len(cj.Samples()) != 0 {
				t.Fatalf("%s: join %d starts with %d pooled walks, want none", when, j, len(cj.Samples()))
			}
		}
	}

	c := new(Estimator)
	c.CopyEstimates(e)
	atWarmup(c, "first copy")
	storage := c.ests[0]
	g := rng.New(2)
	tu := scratchFor(joins)
	for i := 0; i < 300; i++ {
		c.StepJoin(i%len(joins), tu, g)
	}
	if c.ests[0].Walks() == e.ests[0].Walks() {
		t.Fatal("the copy did not accumulate its own walks")
	}
	if e.ests[1].cover != want || c.ests[1].cover == want || len(e.ests[0].Samples()) == 0 {
		t.Fatalf("the copy's walks moved the warm-up: ĉ_1 %v, was %v; pool %d",
			e.ests[1].Cover(), want.mean, len(e.ests[0].Samples()))
	}

	c.CopyEstimates(e)
	atWarmup(c, "second copy")
	if c.ests[0] != storage {
		t.Fatal("the second copy replaced the estimate it was given instead of overwriting it")
	}
}
