package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"sampleunion"
)

// sampleResponse is the body of /sample and /sample/where as a client
// decodes it.
type sampleResponse struct {
	Schema    []string            `json:"schema"`
	Tuples    []sampleunion.Tuple `json:"tuples"`
	UnionSize float64             `json:"union_size"`
	ElapsedUs float64             `json:"elapsed_us"`
}

// quickDecl is a small, fast-to-prepare declaration shared by most
// tests: tiny data, histogram warm-up (no walks).
func quickDecl() UnionDecl {
	return UnionDecl{
		Workload: "UQ1",
		SF:       0.02,
		Overlap:  0.2,
		Options:  OptionsDecl{Warmup: "histogram", Seed: 1},
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a JSON body and decodes the JSON response.
func post(t *testing.T, url string, body, out any) (status int) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestRegistrySingleWarmup is the acceptance gate: 64 concurrent
// clients hitting a cold key must share exactly one warm-up, and all
// 64 must be answered.
func TestRegistrySingleWarmup(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 256})
	const clients = 64
	var wg sync.WaitGroup
	codes := make([]int, clients)
	tuples := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp sampleResponse
			b, _ := json.Marshal(sampleRequest{Union: quickDecl(), N: 20})
			r, err := http.Post(ts.URL+"/sample", "application/json", bytes.NewReader(b))
			if err != nil {
				return
			}
			defer r.Body.Close()
			codes[i] = r.StatusCode
			if json.NewDecoder(r.Body).Decode(&resp) == nil {
				tuples[i] = len(resp.Tuples)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d: status %d", i, codes[i])
		}
		if tuples[i] != 20 {
			t.Fatalf("client %d: %d tuples, want 20", i, tuples[i])
		}
	}
	st := s.Registry().Stats()
	if st.Prepares != 1 {
		t.Fatalf("64 concurrent clients ran %d warm-ups, want exactly 1", st.Prepares)
	}
	// Every client is accounted for: one ran the warm-up, the rest
	// either waited on it (coalesced) or found the entry warm (hits).
	if st.Hits+st.Coalesced+st.Prepares != clients {
		t.Fatalf("hits %d + coalesced %d + prepares %d != %d clients", st.Hits, st.Coalesced, st.Prepares, clients)
	}
	key, err := quickDecl().Key()
	if err != nil {
		t.Fatal(err)
	}
	e, ok := s.Registry().Lookup(key)
	if !ok {
		t.Fatal("entry missing after warm-up")
	}
	if e.hits.Load() != clients {
		t.Fatalf("entry hits %d, want %d", e.hits.Load(), clients)
	}
}

// TestDeclKeyAllocationBounded: every request keys its declaration
// (Registry.Get), so Key must not pay the spec scanner's 1 MiB line
// limit up front — for workload declarations (empty spec) or short
// inline specs alike.
func TestDeclKeyAllocationBounded(t *testing.T) {
	decls := map[string]UnionDecl{
		"workload": quickDecl(),
		"spec":     {Spec: "rel x x.csv\nchain J x k x", Options: OptionsDecl{Seed: 1}},
	}
	for name, d := range decls {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := d.Key(); err != nil {
					b.Fatal(err)
				}
			}
		})
		if got := res.AllocedBytesPerOp(); got > 64<<10 {
			t.Errorf("%s: Key() allocates %d B/op, want <= 64 KiB", name, got)
		}
	}
}

// TestDeclKeyCanonicalization pins that formatting and default-filling
// do not split keys, while real differences do.
func TestDeclKeyCanonicalization(t *testing.T) {
	base := quickDecl()
	k1, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	// Same declaration with defaults spelled out.
	explicit := base
	explicit.DataSeed = 1
	explicit.Options.WarmupWalks = 1000
	k2, err := explicit.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("default-filled declaration must share the key")
	}
	diff := base
	diff.Options.Seed = 2
	k3, _ := diff.Key()
	if k3 == k1 {
		t.Fatal("different options must produce a different key")
	}
	diff2 := base
	diff2.SF = 0.03
	k4, _ := diff2.Key()
	if k4 == k1 {
		t.Fatal("different data must produce a different key")
	}

	s1 := UnionDecl{Spec: "rel x x.csv\nchain  J x k x  # c\n", Options: OptionsDecl{Seed: 1}}
	s2 := UnionDecl{Spec: "rel x x.csv\nchain J x k x", Options: OptionsDecl{Seed: 1}}
	ks1, err := s1.Key()
	if err != nil {
		t.Fatal(err)
	}
	ks2, err := s2.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ks1 != ks2 {
		t.Fatal("spec formatting must not split registry keys")
	}
	if _, err := (UnionDecl{Workload: "UQ1", Spec: "rel x x.csv"}).Key(); err == nil {
		t.Fatal("workload+spec declaration must be rejected")
	}
}

// TestLRUEviction fills the registry past capacity and checks the
// oldest entry is recycled while the newest stay warm.
func TestLRUEviction(t *testing.T) {
	r := NewRegistry("", 2)
	decls := make([]UnionDecl, 3)
	for i := range decls {
		d := quickDecl()
		d.Options.Seed = int64(i + 1)
		decls[i] = d
		if _, err := r.Get(d); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Stats()
	if st.Sessions != 2 {
		t.Fatalf("sessions %d, want 2", st.Sessions)
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions %d, want 1", st.Evictions)
	}
	k0, _ := decls[0].Key()
	if _, ok := r.Lookup(k0); ok {
		t.Fatal("oldest entry should be evicted")
	}
	k2, _ := decls[2].Key()
	if _, ok := r.Lookup(k2); !ok {
		t.Fatal("newest entry should be warm")
	}
	// Re-requesting the evicted key re-prepares (cold) and works.
	if _, err := r.Get(decls[0]); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Prepares; got != 4 {
		t.Fatalf("prepares %d, want 4 (3 cold + 1 re-prepare)", got)
	}
}

// TestLRUEvictionSparesMutated pins the eviction policy: entries that
// received wire-level appends outlive clean ones, because their data
// cannot be regenerated from the declaration.
func TestLRUEvictionSparesMutated(t *testing.T) {
	r := NewRegistry("", 2)
	d1, d2, d3 := quickDecl(), quickDecl(), quickDecl()
	d2.Options.Seed = 2
	d3.Options.Seed = 3

	e1, err := r.Get(d1)
	if err != nil {
		t.Fatal(err)
	}
	e1.mutated.Store(true) // e1 holds appended rows
	if _, err := r.Get(d2); err != nil {
		t.Fatal(err)
	}
	// Inserting d3 must evict the clean d2, not the older-but-mutated d1.
	if _, err := r.Get(d3); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Lookup(e1.Key); !ok {
		t.Fatal("mutated entry was evicted while a clean one remained")
	}
	k2, _ := d2.Key()
	if _, ok := r.Lookup(k2); ok {
		t.Fatal("clean entry should have been the victim")
	}
}

// TestSampleEndpoints exercises the draw endpoints end to end against
// one warm session.
func TestSampleEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	decl := quickDecl()

	var sr sampleResponse
	if code := post(t, ts.URL+"/sample", sampleRequest{Union: decl, N: 50}, &sr); code != 200 {
		t.Fatalf("/sample: %d", code)
	}
	if len(sr.Tuples) != 50 || len(sr.Schema) == 0 || sr.UnionSize <= 0 {
		t.Fatalf("bad /sample response: %d tuples, %d attrs, |U|=%v", len(sr.Tuples), len(sr.Schema), sr.UnionSize)
	}
	for _, row := range sr.Tuples {
		if len(row) != len(sr.Schema) {
			t.Fatalf("row width %d != schema %d", len(row), len(sr.Schema))
		}
	}

	// Seeded draws reproduce bit-for-bit.
	seed := int64(42)
	var a, b sampleResponse
	post(t, ts.URL+"/sample", sampleRequest{Union: decl, N: 10, Seed: &seed}, &a)
	post(t, ts.URL+"/sample", sampleRequest{Union: decl, N: 10, Seed: &seed}, &b)
	if fmt.Sprint(a.Tuples) != fmt.Sprint(b.Tuples) {
		t.Fatal("seeded draws must be reproducible")
	}

	// Parallel draw.
	var pr sampleResponse
	if code := post(t, ts.URL+"/sample", sampleRequest{Union: decl, N: 64, Workers: 4}, &pr); code != 200 || len(pr.Tuples) != 64 {
		t.Fatalf("/sample workers=4: code %d, %d tuples", code, len(pr.Tuples))
	}

	// Predicate-filtered draw: every returned tuple satisfies it.
	where := &PredDecl{Cmp: &CmpDecl{Attr: "nationkey", Op: "<", Value: 10}}
	var wr sampleResponse
	if code := post(t, ts.URL+"/sample/where", sampleRequest{Union: decl, N: 20, Where: where}, &wr); code != 200 {
		t.Fatalf("/sample/where: %d", code)
	}
	nk := -1
	for i, attr := range wr.Schema {
		if attr == "nationkey" {
			nk = i
		}
	}
	if nk < 0 {
		t.Fatal("nationkey missing from schema")
	}
	for _, row := range wr.Tuples {
		if row[nk] >= 10 {
			t.Fatalf("predicate violated: nationkey=%d", row[nk])
		}
	}

	// Aggregates.
	var cr approxResponse
	if code := post(t, ts.URL+"/approx/count", approxRequest{Union: decl, N: 200, Where: where}, &cr); code != 200 {
		t.Fatalf("/approx/count: %d", code)
	}
	if cr.N != 200 || cr.HalfWidth <= 0 {
		t.Fatalf("bad count response: %+v", cr)
	}
	var sumr approxResponse
	if code := post(t, ts.URL+"/approx/sum", approxRequest{Union: decl, N: 200, Attr: "l_quantity"}, &sumr); code != 200 {
		t.Fatalf("/approx/sum: %d", code)
	}
	var avgr approxResponse
	if code := post(t, ts.URL+"/approx/avg", approxRequest{Union: decl, N: 200, Attr: "l_quantity"}, &avgr); code != 200 {
		t.Fatalf("/approx/avg: %d", code)
	}
	if avgr.Value <= 0 {
		t.Fatalf("avg l_quantity = %v, want > 0", avgr.Value)
	}
	var gr groupResponse
	if code := post(t, ts.URL+"/approx/group", approxRequest{Union: decl, N: 200, Attr: "o_status"}, &gr); code != 200 {
		t.Fatalf("/approx/group: %d", code)
	}
	if len(gr.Groups) == 0 {
		t.Fatal("no groups")
	}

	// Estimate.
	var er estimateResponse
	if code := post(t, ts.URL+"/estimate", unionRequest{Union: decl}, &er); code != 200 {
		t.Fatalf("/estimate: %d", code)
	}
	if er.UnionSize <= 0 || len(er.JoinSizes) != 5 {
		t.Fatalf("bad estimate: %+v", er)
	}
}

func getMetrics(t *testing.T, base string) metricsResponse {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m metricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestAppendRefresh drives the live path end to end over HTTP: append
// rows into a base relation, then observe the refreshed session serve
// them.
func TestAppendRefresh(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	decl := quickDecl()

	var before estimateResponse
	post(t, ts.URL+"/estimate", unionRequest{Union: decl}, &before)

	// Appending nation rows with a fresh nationkey grows every join
	// once matching suppliers/customers exist; here we instead clone a
	// plausible nation row so the estimate moves. Relation "nation" has
	// schema (nationkey, n_name, regionkey).
	rows := [][]int64{{25, 990001, 1}, {26, 990002, 2}}
	var ar appendResponse
	if code := post(t, ts.URL+"/relation/nation/append", appendRequest{Union: decl, Rows: rows}, &ar); code != 200 {
		t.Fatalf("/relation/nation/append: %d", code)
	}
	if ar.Appended != 2 {
		t.Fatalf("appended %d, want 2", ar.Appended)
	}
	if !ar.Refreshed || ar.RefreshError != "" {
		t.Fatalf("append not refreshed: %+v", ar)
	}

	// The session must be fresh after the mutation endpoint: /estimate
	// reports stale == false.
	var after estimateResponse
	if code := post(t, ts.URL+"/estimate", unionRequest{Union: decl}, &after); code != 200 {
		t.Fatal("estimate after append failed")
	}
	if after.Stale {
		t.Fatal("session still stale after mutation endpoint")
	}

	// Draws still work.
	var sr sampleResponse
	if code := post(t, ts.URL+"/sample", sampleRequest{Union: decl, N: 10}, &sr); code != 200 || len(sr.Tuples) != 10 {
		t.Fatalf("post-append sample: code %d, %d tuples", code, len(sr.Tuples))
	}

	// /metrics says what that refresh did — nation is every join's
	// root, so all five were dirty — and which indexes appends keep up:
	// nation's join attribute, not its payload columns.
	m := getMetrics(t, ts.URL)
	if len(m.Refresh) != 1 {
		t.Fatalf("refresh section has %d sessions, want 1", len(m.Refresh))
	}
	for key, st := range m.Refresh {
		if st.DirtyJoins != 5 || st.Duration <= 0 {
			t.Errorf("refresh stats %+v, want 5 dirty joins and a duration", st)
		}
		if got := m.Storage[key].Relations["nation"].Indexes; len(got) != 1 || got[0] != "nationkey" {
			t.Errorf("nation indexes %v, want [nationkey]", got)
		}
	}

	// A sharded entry reports its shards' summed work, not zeros.
	sharded := quickDecl()
	sharded.Options.Shards = 2
	if code := post(t, ts.URL+"/relation/nation/append", appendRequest{Union: sharded, Rows: [][]int64{{27, 990003, 3}}}, &ar); code != 200 || !ar.Refreshed {
		t.Fatalf("sharded append: code %d, %+v", code, ar)
	}
	shardedKey, err := sharded.Key()
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := getMetrics(t, ts.URL).Refresh[shardedKey]; !ok || st.DirtyJoins == 0 {
		t.Errorf("sharded entry's refresh stats %+v (present %t), want dirty joins", st, ok)
	}

	// Explicit refresh endpoint: idempotent when nothing mutated.
	var rr refreshResponse
	if code := post(t, ts.URL+"/refresh", unionRequest{Union: decl}, &rr); code != 200 {
		t.Fatal("refresh failed")
	}
	if rr.Refreshed {
		t.Fatal("refresh reported work with no pending mutations")
	}

	// Bad arity is a 400, not a panic.
	if code := post(t, ts.URL+"/relation/nation/append", appendRequest{Union: decl, Rows: [][]int64{{1}}}, nil); code != 400 {
		t.Fatalf("bad arity: code %d, want 400", code)
	}
	// Unknown relation is a 400.
	if code := post(t, ts.URL+"/relation/nope/append", appendRequest{Union: decl, Rows: rows}, nil); code != 400 {
		t.Fatalf("unknown relation: code %d, want 400", code)
	}
}

// TestSpecDeclaration serves an inline-spec union with CSVs from the
// server's data directory, including appends against it.
func TestSpecDeclaration(t *testing.T) {
	dir := t.TempDir()
	writeCSV := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeCSV("r.csv", "a,b\n1,10\n2,20\n3,10\n")
	writeCSV("s.csv", "b,c\n10,7\n20,8\n")
	specText := `
rel r r.csv
rel s s.csv
chain J1 r b s
chain J2 r b s
`
	_, ts := newTestServer(t, Config{DataDir: dir})
	decl := UnionDecl{Spec: specText, Options: OptionsDecl{Warmup: "histogram", Seed: 1}}

	var sr sampleResponse
	if code := post(t, ts.URL+"/sample", sampleRequest{Union: decl, N: 30}, &sr); code != 200 {
		t.Fatalf("/sample over spec: %d", code)
	}
	if len(sr.Tuples) != 30 {
		t.Fatalf("%d tuples, want 30", len(sr.Tuples))
	}

	var ar appendResponse
	if code := post(t, ts.URL+"/relation/r/append", appendRequest{Union: decl, Rows: [][]int64{{4, 20}}}, &ar); code != 200 {
		t.Fatalf("append over spec: %d", code)
	}
	if ar.UnionSize <= sr.UnionSize {
		t.Fatalf("|U| did not grow after join-extending append: %v -> %v", sr.UnionSize, ar.UnionSize)
	}

	// A server without a data directory rejects spec declarations.
	_, tsNoData := newTestServer(t, Config{})
	if code := post(t, tsNoData.URL+"/sample", sampleRequest{Union: decl, N: 1}, nil); code != 400 {
		t.Fatalf("spec without data dir: code %d, want 400", code)
	}
}

// TestSpecStringColumns serves a spec whose CSVs carry string payload
// columns: they dictionary-encode on load (per-entry dictionary) and
// the dictionary size surfaces as a /metrics storage gauge.
func TestSpecStringColumns(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "city.csv"),
		[]byte("a,b,city\n1,10,tokyo\n2,20,lagos\n3,10,tokyo\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "s.csv"),
		[]byte("b,c\n10,7\n20,8\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	specText := `
rel r city.csv
rel s s.csv
chain J1 r b s
`
	_, ts := newTestServer(t, Config{DataDir: dir})
	decl := UnionDecl{Spec: specText, Options: OptionsDecl{Warmup: "histogram", Seed: 1}}

	var sr sampleResponse
	if code := post(t, ts.URL+"/sample", sampleRequest{Union: decl, N: 10}, &sr); code != 200 {
		t.Fatalf("/sample over string-column spec: %d", code)
	}
	if len(sr.Tuples) != 10 {
		t.Fatalf("%d tuples, want 10", len(sr.Tuples))
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
	found := false
	for _, es := range m.Storage {
		if _, ok := es.Relations["r"]; !ok {
			continue
		}
		found = true
		if es.DictLen != 2 {
			t.Errorf("dict_len %d, want 2 (tokyo, lagos)", es.DictLen)
		}
		rs := es.Relations["r"]
		if rs.Rows != 3 || len(rs.ColBytes) != 3 {
			t.Errorf("relation r gauges %+v, want 3 rows over 3 columns", rs)
		}
	}
	if !found {
		t.Fatal("no storage gauges for the spec entry")
	}
}

// TestAdmissionControl saturates the in-flight bound and checks
// overload answers 429 with Retry-After instead of queueing.
func TestAdmissionControl(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1})
	// Warm the session first so the blocking request is draw-only.
	if code := post(t, ts.URL+"/sample", sampleRequest{Union: quickDecl(), N: 1}, nil); code != 200 {
		t.Fatal("warm-up request failed")
	}
	// Occupy the only slot.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	b, _ := json.Marshal(sampleRequest{Union: quickDecl(), N: 1})
	resp, err := http.Post(ts.URL+"/sample", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var apiErr apiError
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil || apiErr.Error == "" {
		t.Fatalf("429 body not a JSON error envelope: %v", err)
	}

	// Health and metrics stay reachable under overload.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil || hr.StatusCode != 200 {
		t.Fatalf("healthz under overload: %v %v", err, hr)
	}
	hr.Body.Close()
}

// TestMetricsEndpoint checks the scrape shape: per-endpoint ops,
// error counts, latency quantiles, and registry counters.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 5; i++ {
		post(t, ts.URL+"/sample", sampleRequest{Union: quickDecl(), N: 5}, nil)
	}
	// One client error.
	post(t, ts.URL+"/sample", sampleRequest{Union: UnionDecl{Workload: "NOPE"}, N: 1}, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m metricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	ep, ok := m.Endpoints["sample"]
	if !ok {
		t.Fatal("no sample endpoint metrics")
	}
	if ep.Ops != 6 || ep.Errors != 1 {
		t.Fatalf("ops=%d errors=%d, want 6/1", ep.Ops, ep.Errors)
	}
	if ep.P50us <= 0 || ep.P99us < ep.P50us {
		t.Fatalf("bad quantiles: %+v", ep)
	}
	if m.Registry.Prepares != 1 {
		t.Fatalf("registry prepares %d, want 1", m.Registry.Prepares)
	}
	if len(m.Storage) != 1 {
		t.Fatalf("storage gauges for %d entries, want 1", len(m.Storage))
	}
	for key, es := range m.Storage {
		if len(es.Relations) == 0 {
			t.Fatalf("entry %s: no relation storage gauges", key)
		}
		for name, rs := range es.Relations {
			if rs.Rows <= 0 || rs.LiveRows <= 0 || rs.LiveRows > rs.Rows {
				t.Errorf("%s: bad row gauges %+v", name, rs)
			}
			var sum int64
			for _, b := range rs.ColBytes {
				sum += b
			}
			if sum != rs.Bytes || rs.Bytes < int64(rs.Rows*8) {
				t.Errorf("%s: bytes %d (cols sum %d) inconsistent for %d rows", name, rs.Bytes, sum, rs.Rows)
			}
		}
		if es.DictLen != 0 {
			t.Errorf("workload entry %s reports dict_len %d, want 0", key, es.DictLen)
		}
	}
}

// TestMetricsStorageBytes: beside col_bytes, /metrics reports the bytes
// each built index holds, under exactly the attributes "indexes" lists,
// and the bytes each join's membership sets hold: 8-byte row-id slots at
// most three-quarters full and at least 16 per set, so under 22 bytes per
// live row of the entry's relations and 128 more per set.
func TestMetricsStorageBytes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code := post(t, ts.URL+"/sample", sampleRequest{Union: quickDecl(), N: 5}, nil); code != 200 {
		t.Fatalf("/sample: %d", code)
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
	for key, es := range m.Storage {
		indexed, live := 0, 0
		for name, rs := range es.Relations {
			live += rs.LiveRows
			if len(rs.IndexBytes) != len(rs.Indexes) {
				t.Errorf("%s: index_bytes %v for indexes %v", name, rs.IndexBytes, rs.Indexes)
			}
			for _, a := range rs.Indexes {
				if rs.IndexBytes[a] < int64(rs.LiveRows)*8 {
					t.Errorf("%s: index on %s holds %d bytes for %d live rows", name, a, rs.IndexBytes[a], rs.LiveRows)
				}
				indexed++
			}
		}
		if indexed == 0 {
			t.Errorf("entry %s: no index bytes reported", key)
		}
		if len(es.MemberBytes) == 0 {
			t.Fatalf("entry %s: no membership bytes", key)
		}
		for j, b := range es.MemberBytes {
			if b <= 0 || b > int64(live)*22+1024 {
				t.Errorf("entry %s: join %s membership holds %d bytes over %d live rows", key, j, b, live)
			}
		}
	}
}

// TestBadRequests pins the 400 surface: malformed JSON, unknown
// fields, bad enums, bad predicates, negative n.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		url  string
		body string
	}{
		{"malformed", "/sample", `{"union": `},
		{"unknown field", "/sample", `{"union": {}, "n": 1, "bogus": true}`},
		{"bad warmup", "/sample", `{"union": {"options": {"warmup": "histgram"}}, "n": 1}`},
		{"bad method", "/sample", `{"union": {"options": {"method": "XX"}}, "n": 1}`},
		{"bad workload", "/sample", `{"union": {"workload": "UQ9"}, "n": 1}`},
		{"negative n", "/sample", `{"union": {"workload": "UQ1", "sf": 0.02, "options": {"warmup": "histogram"}}, "n": -1}`},
		{"zero n aggregate", "/approx/count", `{"union": {"workload": "UQ1", "sf": 0.02, "options": {"warmup": "histogram"}}, "n": 0}`},
		{"bad op", "/sample/where", `{"union": {"workload": "UQ1", "sf": 0.02, "options": {"warmup": "histogram"}}, "n": 1, "where": {"cmp": {"attr": "x", "op": "~", "value": 1}}}`},
		{"two-field pred", "/sample/where", `{"union": {"workload": "UQ1", "sf": 0.02, "options": {"warmup": "histogram"}}, "n": 1, "where": {"true": true, "cmp": {"attr": "x", "op": "=", "value": 1}}}`},
		{"missing attr", "/approx/sum", `{"union": {"workload": "UQ1", "sf": 0.02, "options": {"warmup": "histogram"}}, "n": 10}`},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+c.url, "application/json", bytes.NewReader([]byte(c.body)))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var apiErr apiError
		dec := json.NewDecoder(resp.Body)
		if err := dec.Decode(&apiErr); err != nil || apiErr.Error == "" {
			t.Errorf("%s: body is not an error envelope", c.name)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
	}
	// Wrong HTTP method on an action endpoint.
	resp, err := http.Get(ts.URL + "/sample")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /sample: status %d, want 405", resp.StatusCode)
	}
}

// TestN0Sample pins the n == 0 contract over HTTP: 200 with an empty
// tuple list.
func TestN0Sample(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var sr sampleResponse
	if code := post(t, ts.URL+"/sample", sampleRequest{Union: quickDecl(), N: 0}, &sr); code != 200 {
		t.Fatalf("n=0: status %d, want 200", code)
	}
	if len(sr.Tuples) != 0 {
		t.Fatalf("n=0: %d tuples, want 0", len(sr.Tuples))
	}
}

func TestPredicateDeclCompilation(t *testing.T) {
	cmp := func(attr, op string, v int64) *PredDecl {
		return &PredDecl{Cmp: &CmpDecl{Attr: attr, Op: op, Value: v}}
	}
	good := []PredDecl{
		{}, // zero node means true
		{True: true},
		*cmp("a", "=", 1),
		*cmp("a", "==", 1),
		*cmp("a", "!=", 1),
		*cmp("a", "<", 1),
		*cmp("a", "<=", 1),
		*cmp("a", ">", 1),
		*cmp("a", ">=", 1),
		{And: []PredDecl{*cmp("a", "<", 5), *cmp("b", ">", 1)}},
		{Or: []PredDecl{*cmp("a", "=", 5), {True: true}}},
		{Not: cmp("a", "=", 5)},
		{In: &InDecl{Attr: "a", Values: []int64{1, 2, 3}}},
	}
	for i, d := range good {
		if _, err := d.toPredicate(); err != nil {
			t.Fatalf("decl %d: %v", i, err)
		}
	}
	bad := []PredDecl{
		{True: true, Cmp: &CmpDecl{Attr: "a", Op: "=", Value: 1}}, // two nodes set
		*cmp("a", "~", 1),                    // unknown operator
		{And: []PredDecl{*cmp("a", "~", 1)}}, // error inside and
		{Or: []PredDecl{*cmp("a", "~", 1)}},  // error inside or
		{Not: cmp("a", "~", 1)},              // error inside not
	}
	for i, d := range bad {
		if _, err := d.toPredicate(); err == nil {
			t.Fatalf("bad decl %d compiled", i)
		}
	}
}

func TestDrainingFlag(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	if s.draining.Load() {
		t.Fatal("fresh server reports draining")
	}
	s.SetDraining()
	if !s.draining.Load() {
		t.Fatal("SetDraining did not stick")
	}
}
