package sampleunion

import (
	"strings"
	"testing"
	"time"
)

// unionForNTests builds a tiny two-join union for the n<=0 contract
// tests.
func unionForNTests(t *testing.T) *Union {
	t.Helper()
	r := NewRelation("r", NewSchema("a", "b"))
	s := NewRelation("s", NewSchema("b", "c"))
	for i := 0; i < 8; i++ {
		r.AppendValues(Value(i), Value(i%4))
		s.AppendValues(Value(i%4), Value(i*10))
	}
	j1, err := Chain("j1", []*Relation{r, s}, []string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := Chain("j2", []*Relation{r, s}, []string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUnion(j1, j2)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestSampleZeroIsEmpty pins the n == 0 contract: every sampling entry
// point returns an empty (non-nil) result and no error.
func TestSampleZeroIsEmpty(t *testing.T) {
	u := unionForNTests(t)
	o := Options{Seed: 7, Warmup: WarmupHistogram}
	sess, err := u.Prepare(o)
	if err != nil {
		t.Fatal(err)
	}
	pred := Cmp{Attr: "a", Op: GE, Val: 0}

	type call struct {
		name string
		run  func() (int, error)
	}
	calls := []call{
		{"Union.Sample", func() (int, error) { ts, st, err := u.Sample(0, o); mustStats(t, st); return len(ts), err }},
		{"Union.SampleDisjoint", func() (int, error) { ts, st, err := u.SampleDisjoint(0, o); mustStats(t, st); return len(ts), err }},
		{"Union.SampleWhere", func() (int, error) { ts, _, err := u.SampleWhere(0, pred, o); return len(ts), err }},
		{"Session.Sample", func() (int, error) { ts, st, err := sess.Sample(0); mustStats(t, st); return len(ts), err }},
		{"Session.SampleSeeded", func() (int, error) { ts, _, err := sess.SampleSeeded(0, 3); return len(ts), err }},
		{"Session.SampleDisjoint", func() (int, error) { ts, _, err := sess.SampleDisjoint(0); return len(ts), err }},
		{"Session.SampleWhere", func() (int, error) { ts, _, err := sess.SampleWhere(0, pred); return len(ts), err }},
		{"Session.SampleParallel", func() (int, error) { ts, err := sess.SampleParallel(0, 4); return len(ts), err }},
		{"Session.SampleBatch", func() (int, error) { ts, st, err := sess.SampleBatch(0); mustStats(t, st); return len(ts), err }},
		{"Session.SampleBatchSeeded", func() (int, error) { ts, _, err := sess.SampleBatchSeeded(0, 3); return len(ts), err }},
		{"Session.SampleDisjointSeeded", func() (int, error) { ts, _, err := sess.SampleDisjointSeeded(0, 3); return len(ts), err }},
		{"Session.SampleWhereBatchSeeded", func() (int, error) { ts, _, err := sess.SampleWhereBatchSeeded(0, pred, 3); return len(ts), err }},
	}
	for _, c := range calls {
		got, err := c.run()
		if err != nil {
			t.Errorf("%s(0): unexpected error %v", c.name, err)
		}
		if got != 0 {
			t.Errorf("%s(0): got %d tuples, want 0", c.name, got)
		}
	}
}

func mustStats(t *testing.T, st *Stats) {
	t.Helper()
	if st == nil {
		t.Error("stats must be non-nil for n == 0")
	}
}

// TestSampleNegativeIsError pins the n < 0 contract: a clear error, no
// panic, uniformly across entry points.
func TestSampleNegativeIsError(t *testing.T) {
	u := unionForNTests(t)
	o := Options{Seed: 7, Warmup: WarmupHistogram}
	sess, err := u.Prepare(o)
	if err != nil {
		t.Fatal(err)
	}
	pred := Cmp{Attr: "a", Op: GE, Val: 0}

	calls := map[string]func() error{
		"Union.Sample":           func() error { _, _, err := u.Sample(-1, o); return err },
		"Union.SampleDisjoint":   func() error { _, _, err := u.SampleDisjoint(-1, o); return err },
		"Union.SampleWhere":      func() error { _, _, err := u.SampleWhere(-1, pred, o); return err },
		"Union.ApproxCount":      func() error { _, err := u.ApproxCount(pred, -1, o); return err },
		"Session.Sample":         func() error { _, _, err := sess.Sample(-1); return err },
		"Session.SampleDisjoint": func() error { _, _, err := sess.SampleDisjoint(-1); return err },
		"Session.SampleWhere":    func() error { _, _, err := sess.SampleWhere(-1, pred); return err },
		"Session.SampleParallel": func() error { _, err := sess.SampleParallel(-1, 4); return err },
		"Session.SampleBatch":    func() error { _, _, err := sess.SampleBatch(-1); return err },
		"Session.SampleWhereBatchSeeded": func() error {
			_, _, err := sess.SampleWhereBatchSeeded(-1, pred, 3)
			return err
		},
		"Session.ApproxCount": func() error { _, err := sess.ApproxCount(pred, -1); return err },
		"Session.ApproxSum":   func() error { _, err := sess.ApproxSum("c", pred, -1); return err },
		"Session.ApproxAvg":   func() error { _, err := sess.ApproxAvg("c", pred, -1); return err },
		"Session.ApproxGroup": func() error { _, err := sess.ApproxGroupCount("a", -1); return err },
	}
	for name, run := range calls {
		err := run()
		if err == nil {
			t.Errorf("%s(-1): want error, got nil", name)
			continue
		}
		if !strings.Contains(err.Error(), "sample count") {
			t.Errorf("%s(-1): error %q does not name the sample count", name, err)
		}
	}
}

// TestApproxZeroIsError pins Approx*(n == 0): a defined no-samples
// error (an estimate from zero samples is meaningless), not a panic.
func TestApproxZeroIsError(t *testing.T) {
	u := unionForNTests(t)
	sess, err := u.Prepare(Options{Seed: 7, Warmup: WarmupHistogram})
	if err != nil {
		t.Fatal(err)
	}
	pred := Cmp{Attr: "a", Op: GE, Val: 0}
	calls := map[string]func() error{
		"ApproxCount": func() error { _, err := sess.ApproxCount(pred, 0); return err },
		"ApproxSum":   func() error { _, err := sess.ApproxSum("c", pred, 0); return err },
		"ApproxAvg":   func() error { _, err := sess.ApproxAvg("c", pred, 0); return err },
		"ApproxGroup": func() error { _, err := sess.ApproxGroupCount("a", 0); return err },
	}
	for name, run := range calls {
		if err := run(); err == nil {
			t.Errorf("%s(0): want a no-samples error, got nil", name)
		}
	}
}

// TestSampleDisjointWithoutResultsFails: R(k,x) = {(1,1)} ⋈ S(k,y) =
// {(2,1)} has Olken bound 1 and no results, so an EO disjoint draw can
// never succeed; the call must give up with a no-progress error.
func TestSampleDisjointWithoutResultsFails(t *testing.T) {
	r := NewRelation("r", NewSchema("k", "x"))
	s := NewRelation("s", NewSchema("k", "y"))
	r.AppendValues(1, 1)
	s.AppendValues(2, 1)
	j, err := Chain("dead", []*Relation{r, s}, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUnion(j)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { _, _, err := u.SampleDisjoint(1, Options{Method: MethodEO}); done <- err }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "no progress") {
			t.Fatalf("SampleDisjoint over a union without results: err = %v, want a no-progress error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SampleDisjoint over a union without results did not return")
	}
}

// TestZeroDrawStreams pins what n == 0 does to the auto streams: Sample
// and SampleView reserve one (SampleView calls use with no tuples), and an
// Approx* call, which refuses before drawing, reserves none.
func TestZeroDrawStreams(t *testing.T) {
	u := unionForNTests(t)
	pred := Cmp{Attr: "a", Op: GE, Val: 0}
	nextDraw := func(before func(*Session)) string {
		s, err := u.Prepare(Options{Seed: 7, Warmup: WarmupHistogram})
		if err != nil {
			t.Fatal(err)
		}
		before(s)
		ts, _, err := s.Sample(20)
		if err != nil {
			t.Fatal(err)
		}
		return digest(ts)
	}
	fresh := nextDraw(func(*Session) {})
	afterOne := nextDraw(func(s *Session) { s.Sample(1) })
	if fresh == afterOne {
		t.Fatal("the first and second auto streams draw alike; the test cannot tell them apart")
	}
	if got := nextDraw(func(s *Session) { s.Sample(0) }); got != afterOne {
		t.Error("Sample(0) reserved no auto stream")
	}
	if got := nextDraw(func(s *Session) {
		err := s.SampleView(0, func(ts []Tuple, _ float64) error {
			if ts == nil || len(ts) != 0 {
				t.Errorf("SampleView(0) handed use %v, want an empty non-nil batch", ts)
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	}); got != afterOne {
		t.Error("SampleView(0) reserved no auto stream")
	}
	if got := nextDraw(func(s *Session) { s.ApproxCount(pred, 0) }); got != fresh {
		t.Error("ApproxCount(0) reserved an auto stream")
	}
}
