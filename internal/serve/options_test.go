package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"sampleunion"
)

// TestAutoDeclaration: the adaptive mode is gone, and a declaration that
// still names it fails loudly — "auto" as the warm-up answers 400 with
// the values that remain, and nothing is prepared for it. So does a
// negative walk budget without "online", the one sampler that can start
// without warm-up walks, and "online" beside a warm-up other than
// random-walk, which it would ignore while keying a session of its own.
func TestAutoDeclaration(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		opts OptionsDecl
		want string
	}{
		{OptionsDecl{Warmup: "auto", Seed: 1}, `unknown warmup "auto" (valid: histogram, random-walk, exact)`},
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

// TestAutoConflictRejected: a declaration that names the removed
// "method" field — beside a pinned warm-up, beside "auto", or spelling
// the EW every session draws with — is a client error (400) on every
// endpoint that takes a declaration, never the rest served with the
// field dropped: the join subroutine is not an option.
func TestAutoConflictRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, tc := range []struct{ options, want string }{
		{`{"warmup":"exact","method":"auto"}`, `unknown field "method"`},
		{`{"warmup":"auto","method":"EO"}`, `unknown field "method"`},
		{`{"method":"EW"}`, `unknown field "method"`},
	} {
		union := `{"workload":"UQ1","sf":0.02,"options":` + tc.options + `}`
		for _, path := range []string{"/sample", "/sample/where", "/approx/count", "/approx/sum", "/approx/avg", "/approx/group", "/estimate", "/refresh", "/relation/nation/append"} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(`{"union":`+union+`}`))
			if err != nil {
				t.Fatal(err)
			}
			var apiErr apiError
			err = json.NewDecoder(resp.Body).Decode(&apiErr)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Error, tc.want) {
				t.Errorf("%s with options %s: status %d, error %q (%v); want 400 containing %q", path, tc.options, resp.StatusCode, apiErr.Error, err, tc.want)
			}
		}
	}
	if st := s.Registry().Stats(); st.Prepares != 0 {
		t.Fatalf("%d sessions were prepared for rejected declarations", st.Prepares)
	}
}

// TestWireOptionsAreLibraryOptions: a /sample body that declares only a
// seed prepares the session the library's zero Options and cmd/sampler
// with no -warmup prepare (the same literal is pinned in the
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
	want := sampleunion.Options{Warmup: sampleunion.WarmupRandomWalk, WarmupWalks: 1000, Seed: 7, Shards: 1}
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
