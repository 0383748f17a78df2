package sampleunion

import (
	"sync"
	"sync/atomic"
	"testing"

	"sampleunion/internal/core"
	"sampleunion/internal/rng"
)

// countingEstimator wraps the exact estimator and counts Params calls.
type countingEstimator struct {
	inner core.Estimator
	calls atomic.Int64
}

func (c *countingEstimator) Params(g *rng.RNG) (*core.Params, error) {
	c.calls.Add(1)
	return c.inner.Params(g)
}

func countingOptions(u *Union) (*countingEstimator, Options) {
	ce := &countingEstimator{inner: &core.ExactEstimator{Joins: u.Joins()}}
	return ce, Options{Seed: 1, testEstimator: ce}
}

// TestPrepareRunsEstimatorOnce is the warm-up amortization contract:
// one Prepare runs the estimator exactly once, and every call served by
// the session afterwards runs it zero more times.
func TestPrepareRunsEstimatorOnce(t *testing.T) {
	u := demoUnion(t)
	ce, o := countingOptions(u)
	s, err := u.Prepare(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := ce.calls.Load(); got != 1 {
		t.Fatalf("Prepare ran the estimator %d times, want 1", got)
	}
	if _, _, err := s.Sample(100); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.SampleWhere(50, Cmp{Attr: "custkey", Op: LT, Val: 30}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.SampleDisjoint(50); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApproxCount(True{}, 200); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SampleParallel(400, 4); err != nil {
		t.Fatal(err)
	}
	if got := ce.calls.Load(); got != 1 {
		t.Fatalf("session calls re-ran the estimator: %d total runs, want 1", got)
	}
	if s.Estimate().UnionSize != 90 {
		t.Fatalf("cached estimate %f, want 90", s.UnionSize())
	}
}

// TestSampleParallelSingleWarmup: preparing and fanning a request out
// over eight workers performs exactly one warm-up total, not one per
// worker.
func TestSampleParallelSingleWarmup(t *testing.T) {
	u := demoUnion(t)
	ce, o := countingOptions(u)
	out, err := prepared(t, u, o).SampleParallel(1000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1000 {
		t.Fatalf("got %d samples", len(out))
	}
	if got := ce.calls.Load(); got != 1 {
		t.Fatalf("SampleParallel ran the estimator %d times, want exactly 1", got)
	}
}

// TestSessionConcurrentReproducibleStreams drives one session from many
// goroutines at once (exercised under -race in CI) and asserts each
// explicit stream reproduces, bit for bit, what the same seed produces
// serially — concurrency must not perturb any stream.
func TestSessionConcurrentReproducibleStreams(t *testing.T) {
	// Subtests carry fixed names: a name printed from the Options value
	// changes whenever the struct does.
	for name, o := range map[string]Options{
		"exact-ew-oracle": {Warmup: WarmupExact, Seed: 1},
		// Histogram parameters beside EO draws: Online with no warm-up
		// walks, the one session that starts from the §5 bounds.
		"histogram-eo": {Online: true, WarmupWalks: -1, Seed: 2},
		"online":       {Online: true, WarmupWalks: 200, Seed: 3},
	} {
		t.Run(name, func(t *testing.T) {
			u := demoUnion(t)
			s, err := u.Prepare(o)
			if err != nil {
				t.Fatal(err)
			}
			const workers = 8
			const n = 200
			concurrent := make([][]Tuple, workers)
			counts := make([]AggResult, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					out, _, err := s.SampleSeeded(n, int64(100+w))
					if err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					concurrent[w] = out
					res, err := s.ApproxCount(True{}, 300)
					if err != nil {
						t.Errorf("worker %d approx: %v", w, err)
						return
					}
					counts[w] = res
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			// Streams are independent: distinct seeds produce distinct data.
			if tuplesEqual(concurrent[0], concurrent[1]) {
				t.Error("streams 0 and 1 identical; streams are not independent")
			}
			// And reproducible: serial replay matches the concurrent run.
			for w := 0; w < workers; w++ {
				serial, _, err := s.SampleSeeded(n, int64(100+w))
				if err != nil {
					t.Fatal(err)
				}
				if !tuplesEqual(concurrent[w], serial) {
					t.Fatalf("stream %d not reproducible under concurrency", w)
				}
				for _, tu := range concurrent[w] {
					if !u.Contains(tu) {
						t.Fatalf("stream %d produced a tuple outside the union", w)
					}
				}
			}
			// Concurrent AQP stayed sane: COUNT(*) ≈ |U| = 90.
			for w, res := range counts {
				if res.Value < 45 || res.Value > 135 {
					t.Errorf("worker %d: ApproxCount(*) = %v, want ≈90", w, res)
				}
			}
		})
	}
}

func tuplesEqual(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				return false
			}
		}
	}
	return true
}

// TestSessionAutoStreamsDeterministic: auto-streamed calls on a fresh
// session are deterministic in serial use — two identically prepared
// sessions replay the same sequence of results.
func TestSessionAutoStreamsDeterministic(t *testing.T) {
	u := demoUnion(t)
	o := Options{Warmup: WarmupExact, Seed: 9}
	s1, err := u.Prepare(o)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := u.Prepare(o)
	if err != nil {
		t.Fatal(err)
	}
	for call := 0; call < 3; call++ {
		a, _, err := s1.Sample(50)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := s2.Sample(50)
		if err != nil {
			t.Fatal(err)
		}
		if !tuplesEqual(a, b) {
			t.Fatalf("call %d diverged between identically prepared sessions", call)
		}
		if call > 0 {
			// Different calls use different streams.
			prev, _, _ := s1.SampleSeeded(50, core.DeriveSeed(o.Seed, int64(call)))
			_ = prev
		}
	}
	// Consecutive auto streams differ from each other.
	a, _, _ := s1.Sample(50)
	b, _, _ := s1.Sample(50)
	if tuplesEqual(a, b) {
		t.Fatal("consecutive auto-streamed calls returned identical samples")
	}
}

// TestDeriveSeedNoCollapse covers the worker-seeding fix: derived
// streams must stay distinct for every base seed, including the 0 →
// default-1 path and bases that collide under additive derivation.
func TestDeriveSeedNoCollapse(t *testing.T) {
	seen := make(map[int64][2]int64)
	for _, base := range []int64{0, 1, 2, 1_000_003, -1} {
		for stream := int64(1); stream <= 64; stream++ {
			d := core.DeriveSeed(base, stream)
			if prev, dup := seen[d]; dup {
				t.Fatalf("DeriveSeed(%d,%d) == DeriveSeed(%d,%d) == %d",
					base, stream, prev[0], prev[1], d)
			}
			seen[d] = [2]int64{base, stream}
		}
	}
	// The old additive scheme collapsed exactly here: base 0 stream w+1
	// vs base 1_000_003 stream w. The mixed derivation must not.
	if core.DeriveSeed(0, 2) == core.DeriveSeed(1_000_003, 1) {
		t.Fatal("additive-style collapse survived the seed derivation fix")
	}
}

// TestSessionDisjointAndEstimate exercises the remaining session
// surface: disjoint draws reuse the prepared subroutine samplers, and
// the cached estimate matches the union.
func TestSessionDisjointAndEstimate(t *testing.T) {
	u := demoUnion(t)
	s, err := u.Prepare(Options{Warmup: WarmupExact, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	out, stats, err := s.SampleDisjoint(300)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 300 || stats.Accepted != 300 {
		t.Fatalf("disjoint: %d samples, %d accepted", len(out), stats.Accepted)
	}
	for _, tu := range out {
		if !u.Contains(tu) {
			t.Fatalf("disjoint sample outside union")
		}
	}
	est := s.Estimate()
	if est.UnionSize != 90 {
		t.Fatalf("UnionSize = %f, want 90", est.UnionSize)
	}
	if got := est.CoverSizes[0] + est.CoverSizes[1]; got != est.UnionSize {
		t.Fatalf("cover sum %f != union size %f", got, est.UnionSize)
	}
	// The returned estimate is a copy: mutating it cannot corrupt the
	// session's cache.
	est.CoverSizes[0] = -1
	if s.Estimate().CoverSizes[0] == -1 {
		t.Fatal("Estimate exposed the session's internal slice")
	}

	// An online session draws its disjoint samples through EW even
	// though its set-union sampler is EO-based internally: the disjoint
	// run has zero subroutine rejections.
	so, err := u.Prepare(Options{Online: true, WarmupWalks: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	out, stats, err = so.SampleDisjoint(200)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 200 {
		t.Fatalf("online-session disjoint: %d samples", len(out))
	}
	if stats.JoinRejects != 0 {
		t.Fatalf("online session's disjoint run saw %d subroutine rejections; it did not draw through EW", stats.JoinRejects)
	}
}

// TestSessionParallelScaling checks Session.SampleParallel over every
// prepared mode, including reuse of one session for repeated fan-outs.
func TestSessionParallelScaling(t *testing.T) {
	u := demoUnion(t)
	for _, o := range []Options{
		{Warmup: WarmupExact, Seed: 10},
		{Warmup: WarmupHistogram, Seed: 11},
		{Online: true, WarmupWalks: 100, Seed: 12},
	} {
		s, err := u.Prepare(o)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			out, err := s.SampleParallel(400, workers)
			if err != nil {
				t.Fatalf("%+v workers=%d: %v", o, workers, err)
			}
			if len(out) != 400 {
				t.Fatalf("workers=%d: got %d samples", workers, len(out))
			}
			for _, tu := range out {
				if !u.Contains(tu) {
					t.Fatalf("workers=%d: sample outside union", workers)
				}
			}
		}
		if _, err := s.SampleParallel(10, 0); err == nil {
			t.Error("workers=0 accepted")
		}
	}
}

// TestLastJoinMembershipBuildsOnFirstProbe: an owner probe asks only the
// joins before the one it drew from, so neither Prepare nor draws build
// the last join's membership tables, under any warm-up or algorithm;
// Union.Contains of a tuple only the last join holds builds them on that
// first probe and answers true.
func TestLastJoinMembershipBuildsOnFirstProbe(t *testing.T) {
	for _, o := range []Options{
		{Seed: 1},
		{Seed: 1, Warmup: WarmupExact},
		{Seed: 1, Warmup: WarmupHistogram},
		{Seed: 1, Online: true},
	} {
		u, _ := liveUnion(t)
		s, err := u.Prepare(o)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.SampleSeeded(10000, 2); err != nil {
			t.Fatal(err)
		}
		last := u.Joins()[len(u.Joins())-1]
		if b := last.MembershipBytes(); b != 0 {
			t.Errorf("%+v: last join's membership holds %d bytes after Prepare and 10 000 draws", o, b)
		}
		// Customer 40 is west's alone: east holds customers 0 to 29.
		schema := u.OutputSchema()
		tu := make(Tuple, schema.Len())
		tu[schema.Index("custkey")], tu[schema.Index("nationkey")], tu[schema.Index("orderkey")] = 40, 40%5, 400
		if !u.Contains(tu) || u.Joins()[0].Contains(tu) {
			t.Errorf("%+v: %v not held by the last join alone", o, tu)
		}
		if last.MembershipBytes() == 0 {
			t.Errorf("%+v: a probe of the last join left its membership unbuilt", o)
		}
	}
}
