// Micro-benchmarks of the library hot paths (draws, probes, sessions,
// refresh). The per-figure experiment benchmarks live in
// figures_bench_test.go (external package; see the note there).
package sampleunion

import (
	"fmt"
	"runtime"
	"testing"

	"sampleunion/internal/tpch"
)

// BenchmarkUnionSample measures steady-state sampling throughput of
// Algorithm 1 (exact parameters, EW subroutine) on a small union — the
// per-sample cost a library user sees.
func BenchmarkUnionSample(b *testing.B) {
	u := benchUnion(b)
	b.ReportAllocs()
	out, _, err := u.Sample(b.N+1, Options{Warmup: WarmupExact, Method: MethodEW, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if len(out) != b.N+1 {
		b.Fatal("short sample")
	}
}

// BenchmarkDisjointSample measures disjoint-union sampling throughput.
func BenchmarkDisjointSample(b *testing.B) {
	u := benchUnion(b)
	b.ReportAllocs()
	out, _, err := u.SampleDisjoint(b.N+1, Options{Method: MethodEW, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if len(out) != b.N+1 {
		b.Fatal("short sample")
	}
}

// BenchmarkColdSample measures the pre-session shape: every query pays
// the full warm-up (here random-walk estimation) before drawing its
// samples. Compare with BenchmarkPreparedReuse.
func BenchmarkColdSample(b *testing.B) {
	u := benchUnion(b)
	o := Options{Warmup: WarmupRandomWalk, WarmupWalks: 500, Method: MethodEW, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := u.Sample(100, o)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != 100 {
			b.Fatal("short sample")
		}
	}
}

// BenchmarkPreparedReuse measures the session shape on the same
// workload as BenchmarkColdSample: warm-up runs once at Prepare and
// every iteration is one query at per-draw cost. The per-op gap to
// BenchmarkColdSample is the amortized warm-up.
func BenchmarkPreparedReuse(b *testing.B) {
	u := benchUnion(b)
	s, err := u.Prepare(Options{Warmup: WarmupRandomWalk, WarmupWalks: 500, Method: MethodEW, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := s.Sample(100)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != 100 {
			b.Fatal("short sample")
		}
	}
}

// BenchmarkPrepare measures an online Union.Prepare over UQ3 at two
// scales, the shape the benchmark's lib_online workload serves, once the
// data's indexes and membership tables exist (the untimed first Prepare
// builds them). What is left is Algorithm 2's warm-up — 1000 walks per
// join and an EO base whose bounds the indexes already hold — which does
// not grow with the data: CI gates B/op at sf=20 within 10 % of sf=1
// (≈ 0.5 MB both; 1.3 and 13.8 MB while every online Prepare also built
// a histogram estimate it then discarded).
//
// The cover/sf=8 leg is a cold Prepare under the zero Options over UQ1
// data generated afresh for every iteration, and reports what the
// session keeps: the heap in use after it, collected, per row of the
// base relations (retained-B/row, data included). CI gates it; see the
// bench-smoke job for the values it sits between.
func BenchmarkPrepare(b *testing.B) {
	b.Run("cover/sf=8", func(b *testing.B) {
		var retained float64
		var ms runtime.MemStats
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			w, err := tpch.UQ1(tpch.Config{SF: 8, Overlap: 0.2, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			u, err := NewUnion(w.Joins...)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			s, err := u.Prepare(Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			rows, seen := 0, map[*Relation]bool{}
			for _, j := range w.Joins {
				for _, r := range j.Relations() {
					if !seen[r] {
						seen[r] = true
						rows += r.Len()
					}
				}
			}
			runtime.GC()
			runtime.ReadMemStats(&ms)
			retained += float64(ms.HeapInuse) / float64(rows)
			runtime.KeepAlive(s)
		}
		b.ReportMetric(retained/float64(b.N), "retained-B/row")
	})
	for _, sf := range []float64{1, 20} {
		b.Run(fmt.Sprintf("online/sf=%g", sf), func(b *testing.B) {
			w, err := tpch.UQ3(tpch.Config{SF: sf, Overlap: 0.2, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			u, err := NewUnion(w.Joins...)
			if err != nil {
				b.Fatal(err)
			}
			o := Options{Online: true, Seed: 1}
			if _, err := u.Prepare(o); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := u.Prepare(o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExactUnionSize measures the exact warm-up's count over UQ1 at
// sf 1 (≈ 24 000 results across five joins) once the indexes and
// membership tables exist (the untimed first call builds them): one
// enumeration per join, join beside join, and an owner probe per result.
// Nothing it allocates grows with the results — CI gates allocs/op — where
// the subset-table count it replaced built a string key per result.
func BenchmarkExactUnionSize(b *testing.B) {
	w, err := tpch.UQ1(tpch.Config{SF: 1, Overlap: 0.2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	u, err := NewUnion(w.Joins...)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := u.ExactUnionSize(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := u.ExactUnionSize(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionParallel measures SampleParallel scaling over one
// shared warm-up at 1/2/4/8 workers.
func BenchmarkSessionParallel(b *testing.B) {
	u := benchUnion(b)
	s, err := u.Prepare(Options{Warmup: WarmupExact, Method: MethodEW, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := s.SampleParallel(800, workers)
				if err != nil {
					b.Fatal(err)
				}
				if len(out) != 800 {
					b.Fatal("short sample")
				}
			}
		})
	}
}

// BenchmarkSampleBatch measures the batch engine end to end on a
// prepared session: each n=K op is ONE SampleBatch(K) call (ns/op ÷ K
// is the per-tuple cost; allocs/op ÷ K the per-tuple allocations —
// the acceptance bar is ≤ 2). The loop1024 baseline draws the same
// 1024 tuples as 1024 Session.Sample(1) calls; n=1024 must beat it by
// ≥ 2x in tuples/sec (31.6x when it landed; PR 5 in CHANGES.md). A
// call draws on a recycled run, so it allocates what it returns — the
// batch's two slices (width × 8 + 24 bytes per tuple) and its copy of
// the Stats: CI's bench-smoke gates n=1024 at 1.2 allocs and 76 B per
// tuple and n=16 at 8 allocs and 1500 B per call. The online legs are the
// same call on Algorithm 2 (random-walk warm-up): a walk lands in the
// run's scratch and only an accepted one is copied, into the arena, so a
// call allocates the same batch plus one parameter update (the first
// backtrack, where refinement freezes on this union) — gated at 24 allocs
// per call and width × 8 + 40 B per tuple at n=1024.
func BenchmarkSampleBatch(b *testing.B) {
	u := benchUnion(b)
	s, err := u.Prepare(Options{Warmup: WarmupExact, Method: MethodEW, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	batches := func(b *testing.B, s *Session, sizes ...int) {
		for _, n := range sizes {
			b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out, _, err := s.SampleBatch(n)
					if err != nil {
						b.Fatal(err)
					}
					if len(out) != n {
						b.Fatal("short batch")
					}
				}
			})
		}
	}
	batches(b, s, 1, 16, 256, 1024)
	b.Run("online", func(b *testing.B) { batches(b, benchOnline(b), 16, 1024) })
	b.Run("loop1024", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < 1024; k++ {
				out, _, err := s.Sample(1)
				if err != nil {
					b.Fatal(err)
				}
				if len(out) != 1 {
					b.Fatal("short sample")
				}
			}
		}
	})
}

// benchOnline prepares Algorithm 2 over benchUnion under a random-walk
// warm-up, the pairing the benchmark's lib_online workload serves.
func benchOnline(b *testing.B) *Session {
	b.Helper()
	s, err := benchUnion(b).Prepare(Options{Online: true, Warmup: WarmupRandomWalk, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkApproxCount is one aggregate over n online draws. The call
// folds the batch where the run wrote it, so what it allocates — the
// run's one parameter update — is the same at every n; CI gates B/op at
// n=256 and n=2048 within 10 % of each other.
func BenchmarkApproxCount(b *testing.B) {
	s := benchOnline(b)
	pred := Cmp{Attr: "nationkey", Op: LT, Val: 5}
	for _, n := range []int{256, 2048} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			// Size the run the timed calls recycle: a backtrack leaves dead
			// spans in the arena, so how far it grows settles over a few
			// streams, not one.
			for i := 0; i < 100; i++ {
				s.ApproxCount(pred, n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res, err := s.ApproxCount(pred, n); err != nil || res.N != n {
					b.Fatal(res, err)
				}
			}
		})
	}
}

// BenchmarkSampleWhere draws 512 tuples under a predicate a tenth of the
// union satisfies: about 5 000 candidates are read in the run's arena and
// only the kept ones copied, so CI gates B/op at 1.25 × the result
// (n × (width × 8 + 24) bytes).
func BenchmarkSampleWhere(b *testing.B) {
	s := benchOnline(b)
	pred := Cmp{Attr: "custkey", Op: LT, Val: 60}
	b.Run("n=512", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if out, _, err := s.SampleWhere(512, pred); err != nil || len(out) != 512 {
				b.Fatal(len(out), err)
			}
		}
	})
}

// BenchmarkDrawPath measures the per-draw hot path in isolation: one
// prepared session, one run, b.N tuples drawn in a single stream, every
// candidate of the second join probed against the first
// (Join.Contains projection probes). The allocs/op column is allocations
// per returned tuple — the target of the allocation-free draw path
// refactor.
func BenchmarkDrawPath(b *testing.B) {
	u := benchUnion(b)
	s, err := u.Prepare(Options{Warmup: WarmupExact, Method: MethodEW, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	out, _, err := s.SampleSeeded(b.N, 7)
	if err != nil {
		b.Fatal(err)
	}
	if len(out) != b.N {
		b.Fatal("short sample")
	}
}

// BenchmarkMembershipProbe measures a single Join.Contains probe on a
// warm join — the §6.2 membership primitive behind the accept rule and
// the overlap estimator.
func BenchmarkMembershipProbe(b *testing.B) {
	u := benchUnion(b)
	j := u.Joins()[0]
	hit, _, err := u.Sample(1, Options{Warmup: WarmupExact, Method: MethodEW, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	probe := hit[0]
	if !j.Contains(probe) {
		b.Fatal("probe tuple not in join")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !j.Contains(probe) {
			b.Fatal("probe lost")
		}
	}
}

// benchLiveUnion builds a larger two-chain union whose relations the
// mutation benchmarks append to, returning the relations for mutation.
func benchLiveUnion(b *testing.B, rows int) (*Union, []*Relation) {
	b.Helper()
	var rels []*Relation
	mk := func(suffix string, lo, hi int) *Join {
		a := NewRelation("cust_"+suffix, NewSchema("custkey", "nationkey"))
		o := NewRelation("ord_"+suffix, NewSchema("orderkey", "custkey"))
		for k := lo; k < hi; k++ {
			a.AppendValues(Value(k), Value(k%25))
			o.AppendValues(Value(k*10), Value(k))
		}
		j, err := Chain("J_"+suffix, []*Relation{a, o}, []string{"custkey"})
		if err != nil {
			b.Fatal(err)
		}
		rels = append(rels, a, o)
		return j
	}
	u, err := NewUnion(mk("east", 0, rows), mk("west", rows/2, rows+rows/2))
	if err != nil {
		b.Fatal(err)
	}
	return u, rels
}

// appendBurst appends a fresh batch of joinable rows to every relation
// (new customers with one order each, keys disjoint from everything
// appended before).
func appendBurst(rels []*Relation, iter, batch, base int) {
	for ri := 0; ri+1 < len(rels); ri += 2 {
		cust := make([]Tuple, batch)
		ord := make([]Tuple, batch)
		for i := 0; i < batch; i++ {
			k := Value(base + iter*batch + i)
			cust[i] = Tuple{k, Value(i % 25)}
			ord[i] = Tuple{k * 10, k}
		}
		rels[ri].AppendRows(cust)
		rels[ri+1].AppendRows(ord)
	}
}

// BenchmarkMutateThenDraw measures the streaming shape — one append
// burst followed by a handful of draws, repeated — under the two
// maintenance strategies:
//
//   - refresh, refresh-ew: the warm session absorbs the burst through
//     Session.Refresh (delta-overlaid indexes, membership deltas,
//     dirty-join sampler rebuilds, re-estimation).
//   - rebuild: the pre-live-relations strategy — every burst invalidates
//     the derived structures (ResetCaches) and pays a cold Prepare.
//
// refresh and rebuild run the streaming-friendly configuration
// (random-walk warm-up + EO subroutine: index-only setup, walk cost
// independent of data size), so refresh cost is O(delta + walks) while
// rebuild is O(data); the per-op gap is the amortized-maintenance claim
// (12.4x when it landed; PR 3 in CHANGES.md). refresh-ew is the
// pairing the zero Options selects (random-walk warm-up + EW):
// the dirty joins' weight tables are patched from their predecessors',
// so the work is the burst's neighbourhood — here 32 new one-row
// segments per join — plus whatever large segment the burst reaches.
// In this union that is the root's: all of cust, recomputed (one pass,
// no allocation per row beyond the packed arrays) and given a new alias
// table by the first draw, which is why the two rows= legs still
// differ. The aged leg starts timing once the bursts have built the
// member deltas and index overlays half way to their fold, where a
// refresh that copied them whole would show. CI gates the 30 000-row
// leg's allocs/op and B/op, and the aged leg's B/op.
func BenchmarkMutateThenDraw(b *testing.B) {
	const (
		rows  = 30000
		batch = 32
		draws = 16
	)
	opts := Options{Warmup: WarmupRandomWalk, WarmupWalks: 300, Method: MethodEO, Seed: 1}
	optsEW := opts
	optsEW.Method = MethodEW
	for _, leg := range []struct {
		name string
		opts Options
		rows int
		aged int // bursts run before the timer starts
	}{
		{"refresh", opts, rows, 0},
		{"refresh-ew/rows=30000", optsEW, rows, 0},
		{"refresh-ew/rows=300000", optsEW, 10 * rows, 0},
		// Half of the member-delta and index-overlay budgets (an eighth of
		// the rows each) already spent: what a refresh copies of the
		// deltas built up since their last fold shows here.
		{"refresh-ew/rows=30000/aged", optsEW, rows, rows / 16 / batch},
	} {
		b.Run(leg.name, func(b *testing.B) {
			u, rels := benchLiveUnion(b, leg.rows)
			s, err := u.Prepare(leg.opts)
			if err != nil {
				b.Fatal(err)
			}
			step := func(i int) {
				appendBurst(rels, i, batch, 10*leg.rows)
				if err := s.Refresh(); err != nil {
					b.Fatal(err)
				}
				out, _, err := s.SampleSeeded(draws, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				if len(out) != draws {
					b.Fatal("short sample")
				}
			}
			for i := 0; i < leg.aged; i++ {
				step(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(leg.aged + i)
			}
		})
	}
	b.Run("rebuild", func(b *testing.B) {
		u, rels := benchLiveUnion(b, rows)
		if _, err := u.Prepare(opts); err != nil { // match the warm start
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			appendBurst(rels, i, batch, 10*rows)
			for _, r := range rels {
				r.ResetCaches()
			}
			s, err := u.Prepare(opts)
			if err != nil {
				b.Fatal(err)
			}
			out, _, err := s.SampleSeeded(draws, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			if len(out) != draws {
				b.Fatal("short sample")
			}
		}
	})
}

func benchUnion(b *testing.B) *Union {
	b.Helper()
	mk := func(suffix string, lo, hi int) *Join {
		a := NewRelation("cust_"+suffix, NewSchema("custkey", "nationkey"))
		o := NewRelation("ord_"+suffix, NewSchema("orderkey", "custkey"))
		for k := lo; k < hi; k++ {
			a.AppendValues(Value(k), Value(k%25))
			o.AppendValues(Value(k*10), Value(k))
			o.AppendValues(Value(k*10+1), Value(k))
		}
		j, err := Chain("J_"+suffix, []*Relation{a, o}, []string{"custkey"})
		if err != nil {
			b.Fatal(err)
		}
		return j
	}
	u, err := NewUnion(mk("east", 0, 400), mk("west", 200, 600))
	if err != nil {
		b.Fatal(err)
	}
	return u
}
