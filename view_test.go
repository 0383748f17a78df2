package sampleunion

import (
	"slices"
	"testing"
)

// viewed runs a SampleView call and copies what it handed use out of the
// run.
func viewed(call func(use func([]Tuple, float64) error) error) (out []Tuple, unionSize float64, err error) {
	err = call(func(ts []Tuple, u float64) error {
		out = make([]Tuple, len(ts))
		for i, t := range ts {
			out[i] = slices.Clone(t)
		}
		unionSize = u
		return nil
	})
	return out, unionSize, err
}

// viewOptions are the engines a view is pinned under: cover, online and
// sharded sessions.
var viewOptions = []Options{
	{Warmup: WarmupHistogram},
	{Online: true, WarmupWalks: 20},
	{Warmup: WarmupExact, Shards: 2},
}

// TestSampleViewSeededEqualsSampleSeeded: a view hands use the tuples
// SampleSeeded returns for the same (n, seed), value for value, and a
// session that does not refine its parameters per run hands it the
// session's |U|.
func TestSampleViewSeededEqualsSampleSeeded(t *testing.T) {
	for _, o := range viewOptions {
		s := prepareGolden(t, goldenUnion(t), o)
		for i, n := range []int{1, 37, 600, 5} {
			seed := int64(40 + i)
			got, size, err := viewed(func(use func([]Tuple, float64) error) error { return s.SampleViewSeeded(n, seed, use) })
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := s.SampleSeeded(n, seed)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != n || digest(got) != digest(want) {
				t.Fatalf("%+v n=%d seed=%d: the view handed over %d tuples (%s), SampleSeeded returned %d (%s)",
					o, n, seed, len(got), digest(got), len(want), digest(want))
			}
			if !o.Online && size != s.UnionSize() {
				t.Fatalf("%+v n=%d: the view drew under |U| %v, the session estimates %v", o, n, size, s.UnionSize())
			}
		}
	}
}

// TestSampleViewTakesTheNextAutoStream: SampleView reserves exactly the
// auto stream Sample would, so Sample then SampleView yields what two
// Sample calls yield, and a third call continues both sessions alike.
func TestSampleViewTakesTheNextAutoStream(t *testing.T) {
	for _, o := range viewOptions {
		viaSample := prepareGolden(t, goldenUnion(t), o)
		viaView := prepareGolden(t, goldenUnion(t), o)
		var want, got [3]string
		for i := range want {
			ts, _, err := viaSample.Sample(25)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = digest(ts)
			if i == 1 {
				ts, _, err = viewed(func(use func([]Tuple, float64) error) error { return viaView.SampleView(25, use) })
			} else {
				ts, _, err = viaView.Sample(25)
			}
			if err != nil {
				t.Fatal(err)
			}
			got[i] = digest(ts)
		}
		if got != want {
			t.Fatalf("%+v: Sample, SampleView, Sample drew %v; three Sample calls %v", o, got, want)
		}
	}
}
