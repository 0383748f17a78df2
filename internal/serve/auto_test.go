package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"sampleunion"
)

// autoDecl is a small adaptive declaration: the session plans its own
// warm-up escalation and per-join subroutines.
func autoDecl() UnionDecl {
	return UnionDecl{
		Workload: "UQ1",
		SF:       0.02,
		Overlap:  0.2,
		Options:  OptionsDecl{Warmup: "auto", Seed: 1},
	}
}

// TestAutoDeclaration pins the adaptive request surface: "auto" in
// either enum field prepares an adaptive session and serves draws.
func TestAutoDeclaration(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var resp sampleResponse
	if code := post(t, ts.URL+"/sample", sampleRequest{Union: autoDecl(), N: 16}, &resp); code != http.StatusOK {
		t.Fatalf("auto /sample: status %d", code)
	}
	if len(resp.Tuples) != 16 {
		t.Fatalf("auto /sample drew %d tuples, want 16", len(resp.Tuples))
	}
	if resp.UnionSize <= 0 {
		t.Fatalf("auto session reports union size %g", resp.UnionSize)
	}
	key, err := autoDecl().Key()
	if err != nil {
		t.Fatal(err)
	}
	e, ok := s.Registry().Lookup(key)
	if !ok {
		t.Fatal("auto entry missing after warm-up")
	}
	if e.Sess.Options().Warmup != sampleunion.WarmupAuto {
		t.Fatal("auto declaration prepared a non-adaptive session")
	}
}

// TestAutoKeyCanonicalization pins that the three equal-by-effect
// spellings of an adaptive declaration share one registry key — and
// hence one warm session.
func TestAutoKeyCanonicalization(t *testing.T) {
	base := autoDecl()
	k1, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	viaMethod := base
	viaMethod.Options = OptionsDecl{Method: "auto", Seed: 1}
	k2, err := viaMethod.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal(`{"warmup":"auto"} and {"method":"auto"} must share the key`)
	}
	spelled := base
	spelled.Options = OptionsDecl{Warmup: "auto", Method: "auto", WarmupWalks: 128, Seed: 1}
	k3, err := spelled.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k3 {
		t.Fatal("default-filled adaptive declaration must share the key")
	}
	nonAuto := base
	nonAuto.Options = OptionsDecl{Seed: 1}
	k4, err := nonAuto.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k4 == k1 {
		t.Fatal("adaptive and explicit declarations must not share a key")
	}
}

// TestAutoConflictRejected pins the PR 4 convention at the wire: an
// explicit warmup or method pinned alongside "auto" is a client error
// (400), never silently overridden — including when a legitimate
// adaptive session is already warm under the would-be canonical key.
func TestAutoConflictRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Warm the legitimate adaptive entry first, so a conflict slipping
	// past Key() validation would be served from its cache.
	if code := post(t, ts.URL+"/sample", sampleRequest{Union: autoDecl(), N: 1}, nil); code != http.StatusOK {
		t.Fatalf("warming auto entry: status %d", code)
	}
	for _, opts := range []OptionsDecl{
		{Warmup: "exact", Method: "auto", Seed: 1},
		{Warmup: "auto", Method: "WJ", Seed: 1},
	} {
		decl := autoDecl()
		decl.Options = opts
		var apiErr apiError
		code := post(t, ts.URL+"/sample", sampleRequest{Union: decl, N: 1}, &apiErr)
		if code != http.StatusBadRequest {
			t.Fatalf("conflicting options %+v: status %d, want 400", opts, code)
		}
		if apiErr.Error == "" {
			t.Fatalf("conflicting options %+v: empty error body", opts)
		}
	}
}

// TestMetricsTuningSection pins that /metrics reports per-session tuner
// decisions for adaptive entries and stays silent for explicit ones.
func TestMetricsTuningSection(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code := post(t, ts.URL+"/sample", sampleRequest{Union: autoDecl(), N: 8}, nil); code != http.StatusOK {
		t.Fatalf("auto /sample: status %d", code)
	}
	if code := post(t, ts.URL+"/sample", sampleRequest{Union: quickDecl(), N: 8}, nil); code != http.StatusOK {
		t.Fatalf("explicit /sample: status %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m metricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	autoKey, err := autoDecl().Key()
	if err != nil {
		t.Fatal(err)
	}
	sn, ok := m.Tuning[autoKey]
	if !ok {
		t.Fatalf("tuning section missing adaptive entry %s (have %d entries)", autoKey, len(m.Tuning))
	}
	if sn.Replans < 1 {
		t.Fatalf("adaptive entry reports %d plans, want >= 1", sn.Replans)
	}
	if len(sn.Joins) == 0 {
		t.Fatal("adaptive entry reports no per-join decisions")
	}
	for j, jd := range sn.Joins {
		if jd.Method == "" {
			t.Fatalf("join %d decision has no subroutine", j)
		}
	}
	quickKey, err := quickDecl().Key()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Tuning[quickKey]; ok {
		t.Fatal("explicit entry must not appear in the tuning section")
	}
}

// TestWireOptionsAreLibraryOptions: a /sample body that declares only a
// seed prepares the session the library's zero Options and cmd/sampler
// with no -warmup/-method prepare (the same literal is pinned in the
// root package and cmd/sampler), and an enum value the library does not
// know answers 400.
func TestWireOptionsAreLibraryOptions(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const union = `{"workload":"UQ1","sf":0.02,"options":{"seed":7}}`
	resp, err := http.Post(ts.URL+"/sample", "application/json", strings.NewReader(`{"union":`+union+`,"n":4}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/sample: status %d", resp.StatusCode)
	}
	var decl UnionDecl
	if err := json.Unmarshal([]byte(union), &decl); err != nil {
		t.Fatal(err)
	}
	key, err := decl.Key()
	if err != nil {
		t.Fatal(err)
	}
	e, ok := s.Registry().Lookup(key)
	if !ok {
		t.Fatal("entry missing after warm-up")
	}
	want := sampleunion.Options{Warmup: sampleunion.WarmupRandomWalk, Method: sampleunion.MethodEW, WarmupWalks: 1000, Seed: 7, Shards: 1}
	if got := e.Sess.Options(); got != want {
		t.Fatalf("session options %+v, want %+v", got, want)
	}

	typo := quickDecl()
	typo.Options.Warmup = "histgram"
	var apiErr apiError
	if code := post(t, ts.URL+"/sample", sampleRequest{Union: typo, N: 1}, &apiErr); code != http.StatusBadRequest || apiErr.Error == "" {
		t.Fatalf("unknown warmup: status %d, error %q; want 400 naming it", code, apiErr.Error)
	}
}
