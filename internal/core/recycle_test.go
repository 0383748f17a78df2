package core

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"sampleunion/internal/join"
	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
)

// drawn is everything one (n, seed) draw on a run reports: the tuples,
// the counters, and the |U| the run sampled under.
type drawn struct {
	tuples []relation.Tuple
	stats  Stats
	size   float64
	err    string
}

// drawOn draws (n, seed) on run through sample (Sample, or a SampleWhere
// loop) and copies the outcome out of the run. The wall-clock fields are
// dropped: they are the one part of Stats two equal draws cannot share.
func drawOn(run Run, seed int64, sample func(g *rng.RNG) ([]relation.Tuple, error)) drawn {
	var d drawn
	out, err := sample(run.RNG(seed))
	if err != nil {
		d.err = err.Error()
	}
	for _, t := range out {
		d.tuples = append(d.tuples, t.Clone())
	}
	d.stats = *run.Stats()
	d.stats.Joins = append([]JoinBreakdown(nil), d.stats.Joins...)
	d.stats.AcceptTime, d.stats.RejectTime, d.stats.ReuseTime, d.stats.RegularTime = 0, 0, 0, 0
	d.size = run.Params().UnionSize
	return d
}

func plain(run Run, n int) func(*rng.RNG) ([]relation.Tuple, error) {
	return func(g *rng.RNG) ([]relation.Tuple, error) { return run.Sample(n, g) }
}

// runMaker is a prepared state of any sampler: what hands out runs.
type runMaker interface{ NewRun() Run }

// recycler is one engine under the recycled ≡ fresh test: a prepared
// generation that gets its runs back, and a twin prepared the same way
// that never does — every run the twin hands out is newly built.
type recycler struct {
	name     string
	newRun   func() Run
	freshRun func() Run
}

func recyclers(t *testing.T) []recycler {
	t.Helper()
	joins := fixtureJoins(t)
	engine := func(name string, prep func() runMaker) recycler {
		p, twin := prep(), prep()
		return recycler{name,
			func() Run { return p.NewRun() },
			func() Run { return twin.NewRun() }}
	}
	must := func(p runMaker, err error) runMaker {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cover := func(cfg CoverConfig) func() runMaker {
		return func() runMaker { return must(PrepareCover(joins, cfg, rng.New(1009))) }
	}
	online := func(cfg OnlineConfig) func() runMaker {
		return func() runMaker { return must(PrepareOnline(joins, cfg, rng.New(1013))) }
	}
	sharded := func(f ShardFactory) func() runMaker {
		return func() runMaker {
			return must(PrepareSharded(joins, ShardedConfig{Shards: 3, Workers: 2, Factory: f}, rng.New(11)))
		}
	}
	backtracking := OnlineConfig{WarmupWalks: 0, Phi: 25, Gamma: 0.999}
	return []recycler{
		engine("cover-ew", cover(CoverConfig{Method: MethodEW, Estimator: &ExactEstimator{Joins: joins}})),
		engine("cover-eo", cover(CoverConfig{Method: MethodEO, Estimator: &HistogramEstimator{Joins: joins}})),
		engine("online", online(OnlineConfig{WarmupWalks: 100})),
		engine("online-backtracking", online(backtracking)),
		engine("sharded-cover", sharded(exactFactory)),
		engine("sharded-online", sharded(func(js []*join.Join, g *rng.RNG) (PreparedSampler, error) {
			return PrepareOnline(js, backtracking, g)
		})),
		engine("disjoint", func() runMaker { return must(PrepareDisjoint(joins, MethodEO)) }),
		engine("bernoulli", func() runMaker {
			return must(PrepareBernoulli(joins, CoverConfig{Method: MethodEW, Estimator: &ExactEstimator{Joins: joins}}, rng.New(1009)))
		}),
	}
}

// TestRecycledRunEqualsFresh: a draw on a run that has been used,
// released and handed out again — after a much larger batch, after a
// much smaller one, after a SampleWhere that called Sample several times
// on the run — returns the tuples, counters and |U| of the same draw on a
// newly built run. Under the race detector sync.Pool drops a share of
// what it is given, so each engine goes round several times.
func TestRecycledRunEqualsFresh(t *testing.T) {
	pred := relation.Cmp{Attr: "K", Op: relation.LT, Val: 7}
	for _, e := range recyclers(t) {
		schema := fixtureJoins(t)[0].OutputSchema()
		where := func(run Run, n int) func(*rng.RNG) ([]relation.Tuple, error) {
			return func(g *rng.RNG) ([]relation.Tuple, error) {
				return SampleWhere(run, schema, pred, n, g, 0)
			}
		}
		seed := int64(100)
		backtracks := 0
		for round := 0; round < 4; round++ {
			for _, step := range []struct {
				n     int
				where bool
			}{{2000, false}, {5, false}, {1500, false}, {30, true}, {3, false}, {900, false}} {
				seed++
				sample := plain
				if step.where {
					sample = where
				}
				run := e.newRun()
				got := drawOn(run, seed, sample(run, step.n))
				run.Release()
				fresh := e.freshRun()
				want := drawOn(fresh, seed, sample(fresh, step.n))
				if got.err != "" || len(got.tuples) != step.n {
					t.Fatalf("%s round %d n=%d: %d tuples, error %q", e.name, round, step.n, len(got.tuples), got.err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s round %d n=%d seed=%d: recycled run drew\n%+v\na fresh run\n%+v",
						e.name, round, step.n, seed, got.stats, want.stats)
				}
				backtracks += got.stats.Backtracks
			}
		}
		if (e.name == "online-backtracking" || e.name == "sharded-online") && backtracks == 0 {
			t.Fatalf("%s: no draw backtracked; the case is not covered", e.name)
		}
	}
}

// coveredEstimator reports fixed parameters, whatever the data.
type coveredEstimator struct{ p *Params }

func (e coveredEstimator) Params(*rng.RNG) (*Params, error) { return e.p, nil }

// TestRecycledRunAfterMidBatchError: a batch that fails part-way leaves
// accepted tuples and counters behind in the run; once released and
// handed out again the run must draw what a fresh one does. The failure
// is made by a run over a join that lies wholly
// inside an earlier one while the parameters claim it has cover: every
// draw from it is a duplicate, so a tuple whose 65 join selections all
// land there exhausts them.
func TestRecycledRunAfterMidBatchError(t *testing.T) {
	all := fixtureJoins(t)
	inner := func() *join.Join {
		a := relation.New("in_a", relation.NewSchema("K", "X"))
		b := relation.New("in_b", relation.NewSchema("K", "Y"))
		for k := 10; k < 30; k++ {
			a.AppendValues(relation.Value(k), relation.Value(k*10))
			b.AppendValues(relation.Value(k), relation.Value(k*100))
		}
		j, err := join.NewChain("inner", []*relation.Relation{a, b}, []string{"K"})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}()
	joins := []*join.Join{all[0], inner}
	prep := func() *CoverShared {
		p, err := PrepareCover(joins, CoverConfig{
			Method: MethodEW,
			Estimator: coveredEstimator{&Params{
				JoinSizes: []float64{54, 20},
				Cover:     []float64{1, 49},
				UnionSize: 50,
			}},
		}, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p, twin := prep(), prep()

	// A seed whose 400-tuple batch fails after accepting some tuples, and
	// one whose 3-tuple batch succeeds.
	failing, passing := int64(-1), int64(-1)
	for seed := int64(1); seed < 200 && (failing < 0 || passing < 0); seed++ {
		run := twin.NewRun()
		if d := drawOn(run, seed, plain(run, 400)); d.err != "" && d.stats.Accepted > 0 && failing < 0 {
			failing = seed
		}
		run = twin.NewRun()
		if d := drawOn(run, seed, plain(run, 3)); d.err == "" && passing < 0 {
			passing = seed
		}
	}
	if failing < 0 || passing < 0 {
		t.Fatalf("no seed found: failing %d, passing %d", failing, passing)
	}
	for round := 0; round < 6; round++ {
		run := p.NewRun()
		if d := drawOn(run, failing, plain(run, 400)); d.err == "" {
			t.Fatal("the failing batch succeeded on the recycling generation")
		}
		run.Release()
		run = p.NewRun()
		got := drawOn(run, passing, plain(run, 3))
		run.Release()
		fresh := twin.NewRun()
		if want := drawOn(fresh, passing, plain(fresh, 3)); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: after a failed batch the recycled run drew\n%+v\na fresh run\n%+v", round, got, want)
		}
	}
}

// TestRunPoolBelongsToItsGeneration: a Refresh publishes a prepared
// state with a pool of its own, so a run released to the old generation
// is never handed out by the new one, and the retention bound keeps a
// run that grew very large out of the pool altogether.
func TestRunPoolBelongsToItsGeneration(t *testing.T) {
	joins := fixtureJoins(t)
	old, err := PrepareCover(joins, CoverConfig{Method: MethodEW, Estimator: &ExactEstimator{Joins: joins}}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	inFlight := old.NewRun()
	joins[0].Nodes()[0].Rel.AppendValues(relation.Value(500), relation.Value(5000))
	joins[0].Nodes()[1].Rel.AppendValues(relation.Value(500), relation.Value(50000))
	np, changed, err := old.Refresh(rng.New(4))
	if err != nil || !changed {
		t.Fatalf("refresh: changed %v, %v", changed, err)
	}
	inFlight.Release()
	for i := 0; i < 8; i++ {
		run := np.NewRun().(*CoverSampler)
		if run == inFlight || run.prep != &np.(*CoverShared).prepared {
			t.Fatalf("run %d of the refreshed generation belongs to %p, want %p (old-generation run reused: %v)",
				i, run.prep, np, run == inFlight)
		}
		run.Release()
	}
	if run := old.NewRun().(*CoverSampler); run.prep != &old.prepared {
		t.Fatal("the old generation handed out a run of another generation")
	}

	big := np.NewRun()
	n := maxPooledValues/joins[0].OutputSchema().Len() + 1
	if _, err := big.Sample(n, big.RNG(5)); err != nil {
		t.Fatal(err)
	}
	big.Release()
	for i := 0; i < 8; i++ {
		if run := np.NewRun(); run == big {
			t.Fatalf("a run holding %d buffered values was pooled; the bound is %d", cap(big.(*CoverSampler).arena), maxPooledValues)
		}
	}
}

// TestRunBuffersSizedOncePerBatch: Sample sizes the result entries and
// the arena for the batch before the first draw, so a run that is never
// recycled allocates each of them once and not once per doubling; a
// recycled run allocates only what it returns.
func TestRunBuffersSizedOncePerBatch(t *testing.T) {
	joins := fixtureJoins(t)
	p, err := PrepareCover(joins, CoverConfig{Method: MethodEW, Estimator: &ExactEstimator{Joins: joins}}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	g := rng.New(1)
	fresh := testing.AllocsPerRun(20, func() {
		if _, err := p.NewRun().Sample(1024, g); err != nil {
			t.Fatal(err)
		}
	})
	// Run, scratch (3), Stats.Joins, entries, arena, and the two slices of
	// the returned batch: 9.
	t.Logf("never-recycled run: %.0f allocations for 1024 tuples", fresh)
	if fresh > 12 {
		t.Errorf("a never-recycled run allocates %.0f objects for 1024 tuples, want <= 12", fresh)
	}
	recycled := testing.AllocsPerRun(200, func() {
		run := p.NewRun()
		if _, err := run.Sample(1024, run.RNG(7)); err != nil {
			t.Fatal(err)
		}
		run.Release()
	})
	// sync.Pool forgets a run now and then (always, a quarter of the
	// time, under the race detector), so the average sits a little above
	// the two slices of the returned batch.
	if recycled > fresh/2 {
		t.Errorf("a recycled run allocates %.1f objects for 1024 tuples, a fresh one %.0f", recycled, fresh)
	}
}

// TestRetiredGenerationIsCollectable: a session under a stream of appends
// retires a generation per Refresh, each owning weight and alias tables.
// Pooling runs must not hold a retired generation past the next
// collection — sync.Pool keeps itself reachable for two more, so neither
// the pool nor a pooled run may lead back to the generation.
func TestRetiredGenerationIsCollectable(t *testing.T) {
	joins := fixtureJoins(t)
	collected := make(chan struct{})
	retire := func() PreparedSampler {
		old, err := PrepareCover(joins, CoverConfig{Method: MethodEW, Estimator: &ExactEstimator{Joins: joins}}, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(old, func(*CoverShared) { close(collected) })
		for i := 0; i < 8; i++ { // the race detector's sync.Pool drops some
			run := old.NewRun()
			if _, err := run.Sample(64, run.RNG(int64(i))); err != nil {
				t.Fatal(err)
			}
			run.Release()
		}
		joins[0].Nodes()[0].Rel.AppendValues(relation.Value(700), relation.Value(7000))
		np, changed, err := old.Refresh(rng.New(4))
		if err != nil || !changed {
			t.Fatalf("refresh: changed %v, %v", changed, err)
		}
		return np
	}
	np := retire()
	runtime.GC() // one collection: the finalizer is queued by it or never
	select {
	case <-collected:
	case <-time.After(5 * time.Second):
		t.Fatal("the retired generation survived a collection: something pooled still reaches it")
	}
	runtime.KeepAlive(np)
}
