package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, tc := range []struct{ q, want float64 }{{0, 10}, {0.5, 30}, {0.95, 48}, {1, 50}, {0.125, 15}} {
		if got := quantile(s, tc.q); !near(got, tc.want) {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples must be NaN, not a number that looks measured")
	}
	if got := median([]float64{9, 1, 5, 3}); !near(got, 4) {
		t.Errorf("median = %v, want 4", got)
	}
}

// The acceptance pipeline computes spreads with Python's
// statistics.quantiles(values, n=4); these are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{7, 1, 4, 9, 3})
	if !near(q1, 2) || !near(q2, 4) || !near(q3, 8) {
		t.Errorf("quartiles = %v %v %v, want 2 4 8", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestBestOfRoundsIsTheBetterQuartilePerStatistic(t *testing.T) {
	// Five rounds, two of them hit by interference: every reported timing
	// comes from the undisturbed ones, each statistic on its own; the
	// allocation counts are plain medians.
	rs := []roundStats{
		{tuplesPerS: 100, drawP50: 1.0, drawP95: 2.0, auxP50: 5, cpuMsPerOp: 0.50, allocsPerOp: 74, allocKBPerOp: 1120},
		{tuplesPerS: 10, drawP50: 9.0, drawP95: 90., auxP50: 50, cpuMsPerOp: 0.90, allocsPerOp: 75, allocKBPerOp: 1121},
		{tuplesPerS: 102, drawP50: 1.1, drawP95: 2.2, auxP50: 4, cpuMsPerOp: 0.52, allocsPerOp: 74, allocKBPerOp: 1120},
		{tuplesPerS: 12, drawP50: 8.0, drawP95: 80., auxP50: 40, cpuMsPerOp: 0.80, allocsPerOp: 76, allocKBPerOp: 1123},
		{tuplesPerS: 98, drawP50: 1.2, drawP95: 2.1, auxP50: 6, cpuMsPerOp: 0.51, allocsPerOp: 74, allocKBPerOp: 1120},
	}
	got := bestOfRounds(rs)
	want := roundStats{tuplesPerS: 100, drawP50: 1.1, drawP95: 2.1, auxP50: 5, cpuMsPerOp: 0.51, allocsPerOp: 74, allocKBPerOp: 1120}
	if got != want {
		t.Errorf("bestOfRounds = %+v, want %+v", got, want)
	}
	if lo, hi := betterQuartile([]float64{4, 1, 3, 2, 5}, false), betterQuartile([]float64{4, 1, 3, 2, 5}, true); lo != 2 || hi != 4 {
		t.Errorf("betterQuartile = %v (lower better), %v (higher better); want 2, 4", lo, hi)
	}
}

func TestScheduleIsDeterministicAndBalanced(t *testing.T) {
	for _, fx := range fixtures {
		a, b := schedule(fx, 7, 3), schedule(fx, 7, 3)
		if scheduleDigest(a) != scheduleDigest(b) {
			t.Errorf("%s: same seed and round gave different schedules", fx.name)
		}
		if scheduleDigest(a) == scheduleDigest(schedule(fx, 8, 3)) || scheduleDigest(a) == scheduleDigest(schedule(fx, 7, 4)) {
			t.Errorf("%s: another seed or round gave the same schedule", fx.name)
		}
		var aux [workers]int
		for i, o := range a {
			if o.kind == opAux {
				aux[i%workers]++
			}
		}
		want := fx.opsPerRound / workers / fx.auxEvery
		for w, n := range aux {
			if n != want {
				t.Errorf("%s: worker %d has %d aux ops, want %d", fx.name, w, n, want)
			}
		}
	}
}

// tiny shrinks a fixture to test size.
func tiny(name string) *fixture {
	fx := *fixtureByName(name)
	fx.sf /= 25
	fx.opsPerRound /= 25
	return &fx
}

func TestSameSeedSameTuplesOtherSeedOtherTuples(t *testing.T) {
	digests := func(seed int64) (uint64, uint64) {
		fx := tiny("lib_bulk")
		e, err := setup(fx, seed, false, false, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer e.close()
		c := &checker{}
		out := runRounds(config{fx: fx, seed: seed}, e, c, io.Discard, nil, 2)
		if !c.ok() {
			t.Fatalf("seed %d: %v", seed, c.failures)
		}
		return out.scheduleDigest, out.tupleDigest
	}
	s1, t1 := digests(1)
	s1b, t1b := digests(1)
	s2, t2 := digests(2)
	if s1 != s1b || t1 != t1b {
		t.Errorf("seed 1 twice: schedule %x vs %x, tuples %x vs %x", s1, s1b, t1, t1b)
	}
	if s1 == s2 || t1 == t2 {
		t.Errorf("seeds 1 and 2 share a digest: schedule %x, tuples %x", s1, t1)
	}
}

func TestSelfTimesTelescope(t *testing.T) {
	// A four-rung ladder (ids 0..3, deepest first) and a span with two
	// children (ids 4..6).
	spans := []span{
		{ID: 0, Parent: 1, StartNS: 0, EndNS: 10},
		{ID: 1, Parent: 2, StartNS: 10, EndNS: 35},
		{ID: 2, Parent: 3, StartNS: 35, EndNS: 75},
		{ID: 3, Parent: -1, StartNS: 75, EndNS: 175},
		{ID: 4, Parent: -1, StartNS: 200, EndNS: 300},
		{ID: 5, Parent: 4, StartNS: 200, EndNS: 230},
		{ID: 6, Parent: 4, StartNS: 240, EndNS: 290},
	}
	want := []int64{10, 15, 15, 60, 20, 30, 50}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
	if sum := got[0] + got[1] + got[2] + got[3]; sum != spans[3].dur() {
		t.Errorf("ladder self times sum to %d, top span is %d", sum, spans[3].dur())
	}
	if r := ladderResidual(spans); r != 0 {
		t.Errorf("ladderResidual = %v, want 0", r)
	}
}

func TestLadderRecordsDeepestFirstWithParents(t *testing.T) {
	tr := newTracer()
	order := ""
	durs := tr.ladder(42, 16, false, []rung{
		{"probe", "relation", func() { order += "a" }},
		{"draw", "core", func() { order += "b" }},
		{"post", "http", func() { order += "c" }},
	})
	if order != "abc" || len(durs) != 3 || len(tr.spans) != 3 {
		t.Fatalf("order %q, %d durations, %d spans", order, len(durs), len(tr.spans))
	}
	for i, s := range tr.spans {
		wantParent := i + 1
		if i == 2 {
			wantParent = -1
		}
		if s.ID != i || s.Parent != wantParent || s.OpID != 42 || s.N != 16 || s.EndNS < s.StartNS {
			t.Errorf("span %d = %+v", i, s)
		}
	}
}

// A run whose outputs do not match expectations must fail: here the
// env's union is swapped for one over other data, so the drawn tuples
// are not results of it.
func TestBrokenExpectationFailsTheRun(t *testing.T) {
	fx := tiny("lib_bulk")
	e, err := setup(fx, 1, false, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	other, _, err := fx.buildUnion(fx.sf, 2)
	if err != nil {
		t.Fatal(err)
	}
	e.union = other
	c := &checker{}
	runRounds(config{fx: fx, seed: 1}, e, c, io.Discard, nil, 1)
	if c.ok() {
		t.Fatal("tuples drawn from one union passed the membership check against another")
	}
}

// The quick suite is the smoke test: every workload end to end, checks
// on, plus one traced run.
func TestQuickSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	for _, fx := range fixtures {
		cfg := config{fx: fx.scaled(), seed: 3, quick: true, outDir: dir}
		res, err := runOne(cfg, false, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted != quickRounds*cfg.fx.opsPerRound {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", fx.name, res.Correct, res.Failed, res.Attempted)
		}
		for _, s := range endToEnd {
			if m, ok := res.Metrics[s.name]; !ok || !(m.Value > 0) || m.Unit != s.unit {
				t.Errorf("%s: metric %s = %+v", fx.name, s.name, m)
			}
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", fx.name, len(res.Metrics), len(endToEnd))
		}
	}
	cfg := config{fx: fixtureByName("ingest_mixed").scaled(), seed: 3, quick: true, outDir: dir}
	res, err := runOne(cfg, true, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("traced ingest_mixed: correct=%v failed=%d", res.Correct, res.Failed)
	}
	for _, s := range perLayer {
		if m, ok := res.Metrics[s.name]; !ok || m.Unit != s.unit || math.IsNaN(m.Value) {
			t.Errorf("traced: metric %s = %+v", s.name, m)
		}
	}
	raw, err := os.ReadFile(dir + "/trace-ingest_mixed.json")
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil || len(tf.Spans) == 0 {
		t.Fatalf("trace file: %v, %d spans", err, len(tf.Spans))
	}
	if r := ladderResidual(tf.Spans); r > 0.10 {
		t.Errorf("ladder self times miss the top spans by %v", r)
	}
}

// BENCHMARK.json is the contract's copy of the tables in run.go and
// workload.go; they must not drift apart.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct {
		Name, Unit, Better string
		Bound              float64
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(fixtures) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(b.Workloads), len(fixtures))
	}
	for i, w := range b.Workloads {
		if w.Name != fixtures[i].name || w.Why != fixtures[i].why {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in code", i, w.Name, fixtures[i].name)
		}
	}
	same := func(kind string, got []m, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || g.Bound != w.bound {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in code", kind, i, g, w)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
