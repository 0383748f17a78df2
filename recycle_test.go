package sampleunion

import (
	"errors"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// outcome is what one draw hands its caller, wall-clock fields dropped
// (the one part of Stats two equal draws cannot share).
type outcome struct {
	tuples []Tuple
	stats  Stats
	size   float64
	failed bool
}

func drawOutcome(s *Session, d drawSpec) outcome {
	out, stats, err := s.draw(d)
	o := outcome{tuples: out, size: s.UnionSize(), failed: err != nil}
	if stats != nil {
		o.stats = *stats
		o.stats.AcceptTime, o.stats.RejectTime, o.stats.ReuseTime, o.stats.RegularTime = 0, 0, 0, 0
	}
	return o
}

// TestRecycledDrawEqualsColdSession: a session hands each call a run
// the previous call gave back. Whatever that run did before — a batch
// hundreds of times larger or smaller, a predicate draw that called the
// engine several times, a draw that failed — the next (n, seed) returns
// the tuples, every counter and the |U| that a session prepared from
// scratch returns for the same (n, seed).
func TestRecycledDrawEqualsColdSession(t *testing.T) {
	selective := Cmp{Attr: "nationkey", Op: LT, Val: 1}
	impossible := Cmp{Attr: "custkey", Op: GT, Val: 1 << 40}
	for _, m := range []struct {
		name     string
		o        Options
		disjoint bool
	}{
		{"cover-ew", Options{Warmup: WarmupRandomWalk, WarmupWalks: 200}, false},
		{"cover-histogram", Options{Warmup: WarmupHistogram}, false},
		{"exact-ew", Options{Warmup: WarmupExact}, false},
		{"online", Options{Online: true, WarmupWalks: 20}, false},
		{"shard-cover-ew", Options{Warmup: WarmupExact, Shards: 3}, false},
		{"shard-online", Options{Online: true, WarmupWalks: 20, Shards: 2}, false},
		{"disjoint", Options{Warmup: WarmupExact}, true},
	} {
		warm := prepareGolden(t, goldenUnion(t), m.o)
		backtracks := 0
		for i, d := range []drawSpec{
			{n: 2000, seed: 11},
			{n: 5, seed: 12},
			{n: 1500, seed: 13},
			{n: 40, seed: 14, pred: selective}, // several engine calls on one run
			{n: 3, seed: 15},
			{n: 2, seed: 16, pred: impossible}, // fails after 2 000 draws
			{n: 700, seed: 17},
			{n: 1, seed: 18},
		} {
			d.disjoint = m.disjoint
			if m.disjoint && d.pred != nil {
				continue
			}
			got := drawOutcome(warm, d)
			want := drawOutcome(prepareGolden(t, goldenUnion(t), m.o), d)
			if got.failed != (d.pred == impossible) {
				t.Fatalf("%s draw %d: failed = %v", m.name, i, got.failed)
			}
			if !got.failed && len(got.tuples) != d.n {
				t.Fatalf("%s draw %d: %d tuples, want %d", m.name, i, len(got.tuples), d.n)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s draw %d (n=%d seed=%d): the warm session returned |U| %v and\n%+v\na cold session |U| %v and\n%+v",
					m.name, i, d.n, d.seed, got.size, got.stats, want.size, want.stats)
			}
			backtracks += got.stats.Backtracks
		}
		if m.o.Online && backtracks == 0 {
			t.Fatalf("%s: no draw backtracked; the case is not covered", m.name)
		}
	}
}

// TestReturnedStatsSurviveRunReuse: the Stats a call returns are the
// caller's. Later calls reuse the run they were read from; the earlier
// Stats, per-join breakdown included, and the earlier tuples must not
// move.
func TestReturnedStatsSurviveRunReuse(t *testing.T) {
	for _, o := range []Options{
		{Warmup: WarmupHistogram},
		{Online: true, WarmupWalks: 20},
		{Warmup: WarmupExact, Shards: 2},
	} {
		s := prepareGolden(t, goldenUnion(t), o)
		outA, statsA, err := s.SampleSeeded(50, 1)
		if err != nil {
			t.Fatal(err)
		}
		disjA, dstatsA, err := s.SampleDisjointSeeded(50, 1)
		if err != nil {
			t.Fatal(err)
		}
		keep := func(st *Stats) Stats { // not ownStats: the copy under test
			c := *st
			c.Joins = slices.Clone(st.Joins)
			return c
		}
		wantStats, wantDisj := keep(statsA), keep(dstatsA)
		wantOut, wantDisjOut := digest(outA), digest(disjA)
		for i := 0; i < 4; i++ {
			if _, _, err := s.SampleSeeded(300+i, int64(2+i)); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.SampleDisjointSeeded(7+i, int64(2+i)); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(*statsA, wantStats) || !reflect.DeepEqual(*dstatsA, wantDisj) {
			t.Fatalf("%+v: Stats returned by an earlier call changed under later calls:\n%+v\nwas\n%+v", o, *statsA, wantStats)
		}
		if digest(outA) != wantOut || digest(disjA) != wantDisjOut {
			t.Fatalf("%+v: tuples returned by an earlier call changed under later calls", o)
		}
	}
}

// yielding holds of every tuple (custkeys are not negative) but hands the
// processor over before reading each one, so a fold over it is still reading
// its samples when the other goroutines run.
type yielding struct{}

func (yielding) Eval(t Tuple, s *Schema) bool {
	runtime.Gosched()
	return Cmp{Attr: "custkey", Op: GE, Val: 0}.Eval(t, s)
}
func (yielding) String() string { return "yielding" }

// TestRecycledRunsUnderConcurrentRefresh: eight goroutines draw seeded
// batches of very different sizes — handing runs back and taking each
// other's — while another appends rows and refreshes. An exact-weight
// generation serves the snapshot it was prepared over, so every draw
// that ran under one generation must equal the same (n, seed) drawn
// alone on that generation afterwards: a run that carried anything
// across calls, or crossed from one generation's pool into another's,
// would not. Beside them two goroutines draw on an online session over the
// same relations and two fold aggregates, one on each session, refreshed by
// the same loop: a fold that read its view after the run was released, or
// two online runs walking into one scratch tuple, is a data race.
func TestRecycledRunsUnderConcurrentRefresh(t *testing.T) {
	ls, err := liveUnionSession(t, Options{Seed: 21, Warmup: WarmupExact})
	if err != nil {
		t.Fatal(err)
	}
	s := ls.s
	type observed struct {
		gen  *sessionState
		n    int
		seed int64
		out  []Tuple
		st   *Stats
	}
	const drawers, perDrawer = 8, 60
	seen := make([][]observed, drawers)
	var done atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < drawers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perDrawer; i++ {
				n, seed := 3+(i%4)*(i%4)*40, int64(w*1000+i)
				before := s.state.Load()
				out, st, err := s.SampleSeeded(n, seed)
				if err != nil {
					t.Errorf("drawer %d: %v", w, err)
					return
				}
				// Generations are never published twice, so an unchanged
				// pointer means the draw loaded this one.
				if s.state.Load() == before {
					seen[w] = append(seen[w], observed{before, n, seed, out, st})
				}
				done.Add(1)
				// A drawer never blocks, so without this the scheduler may
				// run all eight to completion before the refresher below
				// gets a core back, and there is one generation to check.
				runtime.Gosched()
			}
		}(w)
	}
	online, err := ls.u.Prepare(Options{Seed: 22, Online: true, WarmupWalks: 40})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var side sync.WaitGroup
	for w := 0; w < 4; w++ {
		side.Add(1)
		go func(w int) {
			defer side.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				n := 1 + (i%5)*(i%5)*20
				switch w {
				case 0, 1:
					if out, _, err := online.SampleSeeded(n, int64(w*1000+i)); err != nil || len(out) != n {
						t.Errorf("online drawer %d: %d of %d tuples, %v", w, len(out), n, err)
						return
					}
				default:
					sess := []*Session{s, online}[w-2]
					size := sess.state.Load().est.UnionSize
					res, err := sess.ApproxCount(yielding{}, n)
					// Every sample satisfies it, so the count is the |U| the
					// run sampled under: the generation's, unless the online run
					// refined it or a refresh landed in between.
					if err != nil || res.N != n || (w == 2 && res.Value != size && sess.state.Load().est.UnionSize == size) {
						t.Errorf("aggregate caller %d: %v, %v (|U| %v)", w, res, err, size)
						return
					}
				}
				runtime.Gosched()
			}
		}(w)
	}
	refreshed := make(chan int)
	go func() { // appends and refreshes, a few draws apart
		cycles := 0
		for done.Load() < drawers*perDrawer {
			next := done.Load() + 12
			for done.Load() < next && done.Load() < drawers*perDrawer && !t.Failed() {
				runtime.Gosched()
			}
			k := Value(2000 + cycles)
			ls.rels[cycles%2*2].Append(Tuple{k, k % 5})
			ls.rels[cycles%2*2+1].Append(Tuple{k * 10, k})
			if err := s.Refresh(); err != nil {
				t.Errorf("refresh: %v", err)
				break
			}
			if err := online.Refresh(); err != nil {
				t.Errorf("online refresh: %v", err)
				break
			}
			cycles++
			if t.Failed() {
				break
			}
		}
		refreshed <- cycles
	}()
	wg.Wait()
	cycles := <-refreshed
	close(stop)
	side.Wait()
	if t.Failed() {
		t.FailNow()
	}

	gens := make(map[*sessionState]bool)
	checked := 0
	for w := range seen {
		for _, o := range seen[w] {
			gens[o.gen] = true
			run := o.gen.prepared.NewRun()
			alone, err := run.Sample(o.n, run.RNG(o.seed))
			if err != nil {
				t.Fatal(err)
			}
			if !tuplesEqual(o.out, alone) {
				t.Fatalf("drawer %d (n=%d seed=%d): the concurrent draw differs from the same draw alone on its generation", w, o.n, o.seed)
			}
			st := run.Stats()
			if o.st.Accepted != st.Accepted || o.st.TotalDraws != st.TotalDraws || o.st.RejectedDup != st.RejectedDup ||
				o.st.Revised != st.Revised || !reflect.DeepEqual(o.st.Joins, st.Joins) {
				t.Fatalf("drawer %d (n=%d seed=%d): counters %+v, alone %+v", w, o.n, o.seed, *o.st, *st)
			}
			run.Release()
			checked++
		}
	}
	if checked < drawers*perDrawer/2 || len(gens) < 3 {
		t.Fatalf("%d of %d draws ran under one generation, over %d generations (%d refreshes): too few to say anything",
			checked, drawers*perDrawer, len(gens), cycles)
	}
}

// TestSampleViewRecyclesItsRun: a view call hands its run back once use
// returns, whatever use returned, and what use returned comes back to the
// caller. The next call then draws on the same run: its first tuple sits
// where the previous call's did, at the front of the run's arena (under
// Shards 2, of whichever shard drew first). sync.Pool may drop a run — a
// quarter of them under -race — so the test looks for that on some calls
// after a refusal, not on every one.
func TestSampleViewRecyclesItsRun(t *testing.T) {
	refused := errors.New("refused")
	for _, o := range viewOptions {
		s := prepareGolden(t, goldenUnion(t), o)
		var prev *Value
		reused := 0
		for i := 0; i < 60; i++ {
			var want error
			if i%2 == 1 {
				want = refused
			}
			err := s.SampleViewSeeded(64, int64(i), func(ts []Tuple, _ float64) error {
				if i%2 == 0 && &ts[0][0] == prev {
					reused++
				}
				prev = &ts[0][0]
				return want
			})
			if err != want {
				t.Fatalf("%+v call %d: SampleViewSeeded returned %v, use returned %v", o, i, err, want)
			}
		}
		if reused == 0 {
			t.Fatalf("%+v: no call after a refused one drew on the run the refused one had", o)
		}
	}
}
