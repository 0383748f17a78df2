package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"sampleunion"
)

// TestAutoDeclaration: the adaptive mode is gone, and a declaration that
// still names it fails loudly — "auto" in either enum field answers 400
// with the values that remain, and nothing is prepared for it. So does
// the removed "WJ" subroutine, a negative walk budget without "online",
// the one sampler that can start without warm-up walks, and "online"
// beside a warm-up other than random-walk, which it would ignore while
// keying a session of its own.
func TestAutoDeclaration(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		opts OptionsDecl
		want string
	}{
		{OptionsDecl{Warmup: "auto", Seed: 1}, `unknown warmup "auto" (valid: histogram, random-walk, exact)`},
		{OptionsDecl{Method: "auto", WarmupWalks: 128, Seed: 1}, `unknown method "auto" (valid: EW, EO)`},
		{OptionsDecl{Method: "WJ", Seed: 1}, `unknown method "WJ" (valid: EW, EO)`},
		{OptionsDecl{WarmupWalks: -1, Seed: 1}, `negative warmup_walks -1 needs online`},
		{OptionsDecl{Online: true, Warmup: "histogram", Seed: 1}, `not warmup "histogram" (warmup_walks < 0 is how Algorithm 2 starts from histogram parameters)`},
		{OptionsDecl{Online: true, Warmup: "exact", Seed: 1}, `not warmup "exact"`},
	} {
		decl := quickDecl()
		decl.Options = tc.opts
		var apiErr apiError
		if code := post(t, ts.URL+"/sample", sampleRequest{Union: decl, N: 16}, &apiErr); code != http.StatusBadRequest || !strings.Contains(apiErr.Error, tc.want) {
			t.Errorf("options %+v: status %d, error %q; want 400 containing %q", tc.opts, code, apiErr.Error, tc.want)
		}
	}
	if st := s.Registry().Stats(); st.Prepares != 0 {
		t.Fatalf("%d sessions were prepared for rejected declarations", st.Prepares)
	}
}

// TestAutoConflictRejected: "auto" beside an explicit pin of the other
// field is the same client error (400) — never the pinned half served
// with the unknown half dropped.
func TestAutoConflictRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, opts := range []OptionsDecl{
		{Warmup: "exact", Method: "auto", Seed: 1},
		{Warmup: "auto", Method: "EO", Seed: 1},
	} {
		decl := quickDecl()
		decl.Options = opts
		var apiErr apiError
		code := post(t, ts.URL+"/sample", sampleRequest{Union: decl, N: 1}, &apiErr)
		if code != http.StatusBadRequest || !strings.Contains(apiErr.Error, `"auto"`) {
			t.Fatalf("options %+v: status %d, error %q; want 400 naming \"auto\"", opts, code, apiErr.Error)
		}
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
