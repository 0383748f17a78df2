package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sampleunion"
)

// legacySampleResponse and legacyEncodeTuples are the /sample encoder as
// it was when the handler copied every tuple into a [][]int64 before
// marshalling; the test below holds today's copy-free response to its
// bytes.
type legacySampleResponse struct {
	Schema    []string  `json:"schema"`
	Tuples    [][]int64 `json:"tuples"`
	UnionSize float64   `json:"union_size"`
	ElapsedUs float64   `json:"elapsed_us"`
}

func legacyEncodeTuples(ts []sampleunion.Tuple) [][]int64 {
	if len(ts) == 0 {
		return [][]int64{}
	}
	arity := len(ts[0])
	flat := make([]int64, len(ts)*arity)
	out := make([][]int64, len(ts))
	for i, t := range ts {
		row := flat[i*arity : (i+1)*arity : (i+1)*arity]
		for j, v := range t {
			row[j] = int64(v)
		}
		out[i] = row
	}
	return out
}

// TestSampleResponseBytesPinned: encoding a reply straight from the
// engine's tuples — a run's arena for plain and seeded draws, the caller's
// own tuples for predicate and worker draws — must put the same bytes on
// the wire as the copied [][]int64 did through encoding/json: for an
// empty draw ("tuples":[], never null), for ordinary draws, and for values
// at the ends of the int64 range.
func TestSampleResponseBytesPinned(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	decl := quickDecl()
	where := &PredDecl{Cmp: &CmpDecl{Attr: "nationkey", Op: "<", Value: 10}}
	seed := int64(3)
	for name, req := range map[string]struct {
		path string
		body sampleRequest
	}{
		"n=0":         {"/sample", sampleRequest{Union: decl, N: 0}},
		"n=0 seeded":  {"/sample", sampleRequest{Union: decl, N: 0, Seed: &seed}},
		"n=0 workers": {"/sample", sampleRequest{Union: decl, N: 0, Workers: 4}},
		"n=0 where":   {"/sample/where", sampleRequest{Union: decl, N: 0, Where: where}},
		"n=7 seeded":  {"/sample", sampleRequest{Union: decl, N: 7, Seed: &seed}},
		"n=40 where":  {"/sample/where", sampleRequest{Union: decl, N: 40, Seed: &seed, Where: where}},

		"n=1024 seeded":  {"/sample", sampleRequest{Union: decl, N: 1024, Seed: &seed}},
		"n=64 workers=4": {"/sample", sampleRequest{Union: decl, N: 64, Workers: 4}},
	} {
		resp, err := http.Post(ts.URL+req.path, "application/json", bytesReader(t, req.body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, read error %v", name, resp.StatusCode, err)
		}
		var got sampleResponse
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got.Tuples) != req.body.N {
			t.Fatalf("%s: %d tuples, want %d", name, len(got.Tuples), req.body.N)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(legacySampleResponse{
			Schema:    got.Schema,
			Tuples:    legacyEncodeTuples(got.Tuples),
			UnionSize: got.UnionSize,
			ElapsedUs: got.ElapsedUs,
		}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, want.Bytes()) {
			t.Fatalf("%s: response body\n%s\nthe [][]int64 encoder wrote\n%s", name, raw, want.Bytes())
		}
		if req.body.N == 0 && !bytes.Contains(raw, []byte(`"tuples":[]`)) {
			t.Fatalf("%s: empty draw encoded as %s, want \"tuples\":[]", name, raw)
		}
	}

	extremes := []sampleunion.Tuple{{-1 << 63, 1<<63 - 1, 0}, {-1, 1, 42}}
	schema := []string{"lo", "hi", "a<b&c"}
	marshalled, err := json.Marshal(schema)
	if err != nil {
		t.Fatal(err)
	}
	got, err := appendSample(nil, marshalled, extremes, 1e21, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(legacySampleResponse{
		Schema: schema, Tuples: legacyEncodeTuples(extremes), UnionSize: 1e21, ElapsedUs: 0.5,
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("extreme values encode as %s, the [][]int64 encoder wrote %s", got, want.Bytes())
	}
}

// TestAppendFloatMatchesEncodingJSON: union_size and elapsed_us are
// written as encoding/json writes a float64, on both sides of its switch
// to exponent form; what it refuses to encode answers the 500 envelope it
// answered when encoding/json wrote the reply.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{0, 1e-7, 1e-6, 123.25, 5e20, 1e21, -2.5e-9, -31.75, math.SmallestNonzeroFloat64, math.MaxFloat64} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendFloat([]byte("x"), f)
		if err != nil || string(got) != "x"+string(want) {
			t.Errorf("appendFloat(%v) = %s (%v), encoding/json writes %s", f, got[1:], err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, want := json.Marshal(f)
		if _, err := appendFloat(nil, f); err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("appendFloat(%v): error %v, encoding/json: %v", f, err, want)
		}
		_, err := encodeSample(&Entry{schemaJSON: []byte("[]")}, nil, f, time.Now())
		rec := httptest.NewRecorder()
		(&Server{}).writeResult(rec, nil, err)
		envelope := fmt.Sprintf("{\"error\":%q}\n", "serve: response encoding failed: "+want.Error())
		if rec.Code != http.StatusInternalServerError || rec.Body.String() != envelope || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("union_size %v: status %d body %q, want 500 %q", f, rec.Code, rec.Body.String(), envelope)
		}
	}
}

// TestRegistryKeyCache: remembering a declaration's key in front of
// UnionDecl.Key changes nothing a client or /metrics can see. Hits and
// prepares count as before, a declaration whose options the library
// rejects is refused on every request (an error is never remembered), a flood of distinct
// declarations cannot grow the memo past its bound, and an evicted
// session's remembered key leads to a fresh prepare, not to the evicted
// entry.
func TestRegistryKeyCache(t *testing.T) {
	r := NewRegistry("", 2)
	d := quickDecl()
	want, err := d.Key()
	if err != nil {
		t.Fatal(err)
	}
	first, err := r.Get(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		e, err := r.Get(d)
		if err != nil || e != first || e.Key != want {
			t.Fatalf("repeat %d: entry %p key %q (%v), want %p %q", i, e, e.Key, err, first, want)
		}
	}
	if st := r.Stats(); st.Prepares != 1 || st.Hits != 3 || first.Hits() != 4 {
		t.Fatalf("after 4 lookups: prepares %d hits %d entry hits %d, want 1, 3, 4", st.Prepares, st.Hits, first.Hits())
	}
	if got, ok := r.keys[d]; !ok || got != want {
		t.Fatalf("memo holds %q (%v) for the declaration, want %q", got, ok, want)
	}

	bad := quickDecl()
	bad.Options = OptionsDecl{Warmup: "exact", Method: "auto", Seed: 1}
	for i := 0; i < 3; i++ {
		if _, err := r.Get(bad); err == nil {
			t.Fatalf("request %d with the removed method \"auto\" was served", i)
		}
	}
	if _, ok := r.keys[bad]; ok {
		t.Fatal("a declaration whose key failed was remembered")
	}

	// A declaration whose Spec is large keys fine and is not remembered:
	// the memo is bounded in bytes, not only in entries. (Both fail to
	// prepare — x.csv does not exist — which Key does not look at.)
	small := UnionDecl{Spec: "rel x x.csv\nchain J x k x", Options: OptionsDecl{Seed: 1}}
	large := small
	large.Spec += "\n#" + strings.Repeat("x", maxCachedSpecBytes)
	for _, d := range []UnionDecl{small, large} {
		if _, err := d.Key(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Get(d); err == nil {
			t.Fatal("a spec over a missing file was served")
		}
	}
	if _, ok := r.keys[small]; !ok {
		t.Fatal("a small spec declaration was not remembered")
	}
	if _, ok := r.keys[large]; ok {
		t.Fatalf("a declaration with a %d-byte spec was remembered", len(large.Spec))
	}

	// build time, not by Key) and then fail to prepare.
	for i := 0; i < 3*keyCacheFactor*2; i++ {
		flood := quickDecl()
		flood.Workload = "no-such-workload"
		flood.DataSeed = int64(100 + i)
		if _, err := r.Get(flood); err == nil {
			t.Fatal("unknown workload was served")
		}
		if len(r.keys) > keyCacheFactor*2 {
			t.Fatalf("memo grew to %d entries, bound is %d", len(r.keys), keyCacheFactor*2)
		}
	}
	if e, err := r.Get(d); err != nil || e != first {
		t.Fatalf("warm entry after the flood: %p (%v), want %p", e, err, first)
	}

	// Evict d's session; its remembered key must not resurrect the entry.
	for i := 0; i < 2; i++ {
		o := quickDecl()
		o.Options.Seed = int64(50 + i)
		if _, err := r.Get(o); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := r.Lookup(want); ok {
		t.Fatal("the oldest session was not evicted")
	}
	prepares := r.Stats().Prepares
	again, err := r.Get(d)
	if err != nil {
		t.Fatal(err)
	}
	if again == first || again.Key != want || r.Stats().Prepares != prepares+1 {
		t.Fatalf("lookup after eviction: same entry %v, key %q, prepares %d → %d; want a fresh prepare under %q",
			again == first, again.Key, prepares, r.Stats().Prepares, want)
	}
	if e, ok := r.Lookup(want); !ok || e != again {
		t.Fatal("the re-prepared entry is not the one the registry holds")
	}
}
