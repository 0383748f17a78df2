package sampleunion

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestCanonicalIsIdempotent: canonical options are a fixed point, so
// Session.Options() can be prepared again and a normalized declaration
// re-keyed without drifting.
func TestCanonicalIsIdempotent(t *testing.T) {
	cores := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ in, want Options }{
		{Options{}, Options{Warmup: WarmupRandomWalk, WarmupWalks: 1000, Seed: 1, Shards: 1}},
		{Options{Seed: 9}, Options{Warmup: WarmupRandomWalk, WarmupWalks: 1000, Seed: 9, Shards: 1}},
		{Options{Warmup: WarmupHistogram}, Options{Warmup: WarmupHistogram, WarmupWalks: 1000, Seed: 1, Shards: 1}},
		{Options{Online: true, WarmupWalks: -7}, Options{Warmup: WarmupRandomWalk, Online: true, WarmupWalks: -1, Seed: 1, Shards: 1}},
		{Options{Shards: ShardsAuto}, Options{Warmup: WarmupRandomWalk, WarmupWalks: 1000, Seed: 1, Shards: cores}},
		{Options{Shards: -4, AutoRefresh: true}, Options{Warmup: WarmupRandomWalk, WarmupWalks: 1000, Seed: 1, Shards: cores, AutoRefresh: true}},
	} {
		once, err := tc.in.Canonical()
		if err != nil {
			t.Fatalf("%+v: %v", tc.in, err)
		}
		if once != tc.want {
			t.Errorf("%+v canonicalizes to\n %+v, want\n %+v", tc.in, once, tc.want)
		}
		if twice, err := once.Canonical(); err != nil || twice != once {
			t.Errorf("%+v: second pass gives %+v (%v), want the first pass's %+v", tc.in, twice, err, once)
		}
	}
}

// TestCanonicalRejects: an unknown enum value — the removed "auto"
// included — is an error listing the valid ones at
// every entry point, never a silent default; so is a negative walk budget
// without Online, which used to run the 1000-walk default under a key of
// its own.
func TestCanonicalRejects(t *testing.T) {
	u := demoUnion(t)
	for _, tc := range []struct {
		o    Options
		want string
	}{
		{Options{Warmup: "histgram"}, `unknown warmup "histgram"`},
		{Options{Warmup: "auto"}, `unknown warmup "auto" (valid: histogram, random-walk, exact)`},
		{Options{WarmupWalks: -1}, `negative warmup_walks -1 needs online`},
		{Options{Warmup: WarmupHistogram, WarmupWalks: -7}, `negative warmup_walks -7 needs online`},
		{Options{Online: true, Warmup: WarmupHistogram}, `online warms with random walks, not warmup "histogram" (warmup_walks < 0 is how`},
		{Options{Online: true, Warmup: WarmupExact}, `not warmup "exact"`},
		{Options{Online: true, Warmup: WarmupHistogram, WarmupWalks: -1}, `not warmup "histogram"`},
	} {
		if _, err := tc.o.Canonical(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: Canonical err = %v, want one containing %q", tc.o, err, tc.want)
		}
		if _, err := u.Prepare(tc.o); err == nil {
			t.Errorf("%+v: Prepare accepted it", tc.o)
		}
		if _, err := u.EstimateUnionSize(tc.o); err == nil {
			t.Errorf("%+v: EstimateUnionSize accepted it", tc.o)
		}
	}
}

// sameSession fails unless a and b report the same estimate and draw
// the same tuples on the same explicit stream.
func sameSession(t *testing.T, a, b *Session) {
	t.Helper()
	if !reflect.DeepEqual(a.Estimate(), b.Estimate()) {
		t.Fatalf("estimates differ: %+v vs %+v", a.Estimate(), b.Estimate())
	}
	for _, stream := range []int64{1, 77} {
		ta, _, err := a.SampleSeeded(200, stream)
		if err != nil {
			t.Fatal(err)
		}
		tb, _, err := b.SampleSeeded(200, stream)
		if err != nil {
			t.Fatal(err)
		}
		if digest(ta) != digest(tb) {
			t.Fatalf("stream %d differs between the two sessions", stream)
		}
	}
}

// TestZeroOptionsMeanRandomWalkEW: the library's zero value is what the
// serving layer and cmd/sampler mean by "nothing declared" (the same
// literal is pinned in internal/serve and cmd/sampler), and preparing
// with it is preparing with the explicit spelling.
func TestZeroOptionsMeanRandomWalkEW(t *testing.T) {
	const seed = 7
	explicit := Options{Warmup: WarmupRandomWalk, WarmupWalks: 1000, Seed: seed, Shards: 1}
	if got, err := (Options{Seed: seed}).Canonical(); err != nil || got != explicit {
		t.Fatalf("Options{Seed: %d}.Canonical() = %+v, %v; want %+v", seed, got, err, explicit)
	}
	u := demoUnion(t)
	zero, err := u.Prepare(Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if zero.Options() != explicit {
		t.Fatalf("Session.Options() = %+v, want %+v", zero.Options(), explicit)
	}
	spelled, err := u.Prepare(explicit)
	if err != nil {
		t.Fatal(err)
	}
	sameSession(t, zero, spelled)
}

// TestEstimateMatchesSession: Union.EstimateUnionSize runs the whole-union
// warm-up a single-shard Prepare runs, so it reports exactly the |U| a
// session prepared with the same options does — Algorithm 2's fixed-budget
// walks or histogram start included, not the cover's early-stopping walk.
// (Under Shards > 1 a session sums per-shard warm-ups instead.)
func TestEstimateMatchesSession(t *testing.T) {
	u := goldenUnion(t)
	for _, o := range []Options{
		{},
		{Online: true},
		{Online: true, WarmupWalks: 150},
		{Online: true, WarmupWalks: -1},
		{Warmup: WarmupHistogram},
		{Warmup: WarmupExact},
	} {
		est, err := u.EstimateUnionSize(o)
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		s, err := u.Prepare(o)
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		if got := s.UnionSize(); est != got {
			t.Errorf("%+v: Union.EstimateUnionSize = %v, Session.UnionSize = %v", o, est, got)
		}
	}
}

// TestSessionOptionsRoundTrip: u.Prepare(s.Options()) prepares s again.
// An online session declared with no warm-up walks used to come back
// with the default 1000, because the stored 0 meant "unset" on the
// second pass.
func TestSessionOptionsRoundTrip(t *testing.T) {
	u := demoUnion(t)
	for _, o := range []Options{
		{Online: true, WarmupWalks: -1},
		{Warmup: WarmupHistogram, Shards: 2},
	} {
		s, err := u.Prepare(o)
		if err != nil {
			t.Fatal(err)
		}
		again, err := u.Prepare(s.Options())
		if err != nil {
			t.Fatal(err)
		}
		if again.Options() != s.Options() {
			t.Fatalf("%+v: options drift from %+v to %+v", o, s.Options(), again.Options())
		}
		sameSession(t, s, again)
	}
}
