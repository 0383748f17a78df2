package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sampleunion"
	"sampleunion/internal/wal"
)

func bytesReader(t *testing.T, body any) *bytes.Reader {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

func jsonDecode(r io.Reader, out any) error {
	return json.NewDecoder(r).Decode(out)
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := jsonDecode(resp.Body, out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
}

func durableCfg(dir string) Config {
	return Config{
		DurableDir:      dir,
		FsyncPolicy:     wal.SyncNever, // durability across clean close/kill, no fsync latency in tests
		CheckpointEvery: 7,             // small: exercise checkpoint + WAL-truncate during the test
	}
}

// seededDraw pulls an explicitly seeded batch so two servers can be
// compared draw-for-draw regardless of their auto-stream positions.
func seededDraw(t *testing.T, url string, decl UnionDecl, n int, seed int64) []sampleunion.Tuple {
	t.Helper()
	var resp sampleResponse
	if code := post(t, url+"/sample", sampleRequest{Union: decl, N: n, Seed: &seed}, &resp); code != http.StatusOK {
		t.Fatalf("seeded sample: status %d", code)
	}
	return resp.Tuples
}

// TestDurableWarmRestart is the tentpole acceptance test at the serve
// layer: appends acked by a durable server survive into a second
// server booted on the same directory, which comes up warm (no
// request-triggered warm-up) and produces the same seeded draws as the
// uninterrupted first server.
func TestDurableWarmRestart(t *testing.T) {
	dir := t.TempDir()
	decl := quickDecl()

	s1, ts1 := newTestServer(t, durableCfg(dir))
	// Prepare via a draw, then ingest: 20 acked single-row appends so
	// the CheckpointEvery=7 trigger fires at least twice.
	seededDraw(t, ts1.URL, decl, 4, 7)
	for i := 0; i < 20; i++ {
		var ap appendResponse
		row := []int64{int64(100 + i), int64(i), int64(i % 5)}
		code := post(t, ts1.URL+"/relation/nation/append", appendRequest{Union: decl, Rows: [][]int64{row}}, &ap)
		if code != http.StatusOK {
			t.Fatalf("append %d: status %d", i, code)
		}
		if !ap.Durable || ap.Appended != 1 {
			t.Fatalf("append %d: %+v, want durable single-row ack", i, ap)
		}
	}
	key, err := decl.Key()
	if err != nil {
		t.Fatal(err)
	}
	e1, ok := s1.Registry().Lookup(key)
	if !ok {
		t.Fatal("entry missing")
	}
	wantTuples := e1.Rels["nation"].Tuples()
	wantVersion := e1.Rels["nation"].Version()
	wantDraw := seededDraw(t, ts1.URL, decl, 32, 99)
	if d := s1.reg.durable.snapshot(); d.Commits != 20 || d.Checkpoints < 2 {
		t.Fatalf("durability counters: %+v, want 20 commits and >= 2 checkpoints", d)
	}
	ts1.Close()
	s1.Close()

	// "Reboot": a fresh server over the same directory restores the
	// session from the manifest before any request arrives.
	s2, ts2 := newTestServer(t, durableCfg(dir))
	defer s2.Close()
	n, err := s2.RestoreSessions()
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if n != 1 {
		t.Fatalf("restored %d sessions, want 1", n)
	}
	e2, ok := s2.Registry().Lookup(key)
	if !ok {
		t.Fatal("restored entry missing from registry")
	}
	if got := e2.Rels["nation"].Version(); got != wantVersion {
		t.Fatalf("restored version %d, want %d", got, wantVersion)
	}
	gotTuples := e2.Rels["nation"].Tuples()
	if len(gotTuples) != len(wantTuples) {
		t.Fatalf("restored %d tuples, want %d", len(gotTuples), len(wantTuples))
	}
	for i := range wantTuples {
		if !gotTuples[i].Equal(wantTuples[i]) {
			t.Fatalf("restored tuple %d = %v, want %v", i, gotTuples[i], wantTuples[i])
		}
	}
	// Warm restart: the seeded stream must be byte-identical to the
	// uninterrupted server's, and serving it must not re-prepare.
	if got := seededDraw(t, ts2.URL, decl, 32, 99); !reflect.DeepEqual(got, wantDraw) {
		t.Fatalf("post-restart seeded draw diverged:\n got %v\nwant %v", got, wantDraw)
	}
	if st := s2.Registry().Stats(); st.Prepares != 1 {
		t.Fatalf("prepares after restore+draw = %d, want 1 (warm)", st.Prepares)
	}
}

// TestRestoreRefusesMovedKey: a manifest entry is stored under the key
// its declaration hashed to when it was written, and that key names its
// WAL directory. An entry this binary cannot key the same way must stop
// the boot with the stored key in the error, not be prepared over an
// empty directory beside its data: one whose declaration no longer hashes
// to its key (written by a binary that still had the "oracle" option,
// which this one drops on reading — both keys are named), and one whose
// declaration no longer keys at all (written by a binary that still had
// the adaptive mode: the key and normalized declaration TestDeclKeysPinned
// pinned for "auto"), and one whose options no longer canonicalize (an
// online session declared with the histogram warm-up it ignored). An
// entry written by a binary that still had the "method" option under EO
// or the WJ subroutine is the first kind: the field is dropped on
// reading, so its declaration hashes to the EW key.
func TestRestoreRefusesMovedKey(t *testing.T) {
	const (
		oracleKey = "5810111f9085c9e6531da3ebbe3e1dfe7e6774258ea59f6434a8c877812b3efe"
		oracleDoc = `{"workload":"UQ1","sf":0.1,"overlap":0.2,"data_seed":1,"options":{"warmup":"exact","method":"EO","warmup_walks":1000,"oracle":true,"seed":1,"shards":1}}`
		autoKey   = "0f386402b9ca9b8d3ca1511c7d9ee198611d64eb099d5641e54af9f0ee7d4d13"
		autoDoc   = `{"workload":"UQ1","sf":0.1,"overlap":0.2,"data_seed":1,"options":{"warmup":"auto","method":"auto","warmup_walks":128,"seed":1,"shards":1}}`
		// The key a binary with the WJ subroutine gave this declaration.
		wjKey = "b33df6b4dca26e7ca721a370a92a107de7e725363b4f63a3155ad34e73de8ac4"
		wjDoc = `{"workload":"UQ1","sf":0.1,"overlap":0.2,"data_seed":1,"options":{"warmup":"exact","method":"WJ","warmup_walks":1000,"seed":1,"shards":1}}`
		// The key and normalized declaration TestDeclKeysPinned pinned for
		// a histogram warm-up beside the EO subroutine.
		eoKey = "96b3c76d7aa99b3c155cc2bb9343abcd98cfdf098da27a51f3d0761bfdd45112"
		eoDoc = `{"workload":"UQ2","sf":0.05,"overlap":0.2,"data_seed":1,"options":{"warmup":"histogram","method":"EO","warmup_walks":1000,"seed":7,"shards":1}}`
		// A cover declaration with no warm-up walks once canonicalized to a
		// key of its own while it drew like the default budget.
		walklessKey = "02713526c81f42684acde6cfc410149364bd1c3ae322891b0e3b9cf0b5148dbe"
		walklessDoc = `{"workload":"UQ1","sf":0.1,"overlap":0.2,"data_seed":1,"options":{"warmup":"random-walk","method":"EW","warmup_walks":-1,"seed":1,"shards":1}}`
		// Online options once kept the Warmup they ignored, so this drew
		// like the random-walk spelling under a key of its own.
		onlineHistKey = "53fb1883ab94b46c08dd26f4b53923d57b9096f38468cb44eb3a19820b89426d"
		onlineHistDoc = `{"workload":"UQ1","sf":0.1,"overlap":0.2,"data_seed":1,"options":{"warmup":"histogram","method":"EW","online":true,"warmup_walks":1000,"seed":1,"shards":1}}`
	)
	keyOf := func(decl string) string {
		var d UnionDecl
		if err := json.Unmarshal([]byte(decl), &d); err != nil {
			t.Fatal(err)
		}
		key, err := d.Key()
		if err != nil {
			t.Fatal(err)
		}
		return key
	}
	recomputed := keyOf(`{"options":{"warmup":"exact"}}`)
	for _, tc := range []struct {
		name, key, doc string
		wants          []string
	}{
		{"dropped option", oracleKey, oracleDoc, []string{"entry 0", oracleKey, recomputed}},
		{"removed auto", autoKey, autoDoc, []string{autoKey, `unknown warmup "auto"`}},
		{"removed WJ", wjKey, wjDoc, []string{"entry 0", wjKey, recomputed}},
		{"removed EO", eoKey, eoDoc, []string{"entry 0", eoKey, keyOf(`{"workload":"UQ2","sf":0.05,"options":{"warmup":"histogram","seed":7}}`)}},
		{"walkless cover", walklessKey, walklessDoc, []string{walklessKey, "negative warmup_walks -1 needs online"}},
		{"online histogram", onlineHistKey, onlineHistDoc, []string{onlineHistKey, `not warmup "histogram"`}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			manifest := `{"entries":[{"key":"` + tc.key + `","decl":` + tc.doc + `}]}`
			if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(manifest), 0o644); err != nil {
				t.Fatal(err)
			}
			s, _ := newTestServer(t, durableCfg(dir))
			defer s.Close()
			n, err := s.RestoreSessions()
			if err == nil || n != 0 {
				t.Fatalf("restored %d sessions, err %v; want the entry refused", n, err)
			}
			for _, want := range tc.wants {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %q", err, want)
				}
			}
			if st := s.Registry().Stats(); st.Prepares != 0 {
				t.Fatalf("%d sessions were prepared for a refused manifest", st.Prepares)
			}
		})
	}
}

// TestRestoreKeepsEWEntry: a manifest entry written while "method" was
// an option, under the EW subroutine every session now draws with,
// restores under its stored key: reading drops the field, and the key
// text still spells "method=EW".
func TestRestoreKeepsEWEntry(t *testing.T) {
	decl := quickDecl()
	key, err := decl.Key()
	if err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(decl.normalize())
	if err != nil {
		t.Fatal(err)
	}
	written := strings.Replace(string(doc), `"options":{`, `"options":{"method":"EW",`, 1)
	dir := t.TempDir()
	manifest := `{"entries":[{"key":"` + key + `","decl":` + written + `}]}`
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, durableCfg(dir))
	defer s.Close()
	if n, err := s.RestoreSessions(); err != nil || n != 1 {
		t.Fatalf("restored %d sessions, err %v; want the EW entry restored", n, err)
	}
	if _, ok := s.Registry().Lookup(key); !ok {
		t.Fatal("restored entry missing from the registry under its stored key")
	}
}

// TestDurableEvictionKeepsMutations pins the durability upgrade to the
// LRU contract: a memory-only registry loses wire-level appends when a
// mutated entry is evicted, a durable one recovers them on the next
// Get for the key.
func TestDurableEvictionKeepsMutations(t *testing.T) {
	cfg := durableCfg(t.TempDir())
	cfg.SessionCap = 1
	s, ts := newTestServer(t, cfg)
	defer s.Close()

	declA := quickDecl()
	declB := quickDecl()
	declB.Options.Seed = 2 // distinct key, same tiny workload

	var ap appendResponse
	row := []int64{500, 1, 2}
	if code := post(t, ts.URL+"/relation/nation/append", appendRequest{Union: declA, Rows: [][]int64{row}}, &ap); code != http.StatusOK || !ap.Durable {
		t.Fatalf("append: code %d resp %+v", code, ap)
	}
	keyA, _ := declA.Key()
	eA, _ := s.Registry().Lookup(keyA)
	want := eA.Rels["nation"].Tuples()

	// Cap 1: preparing B must evict A (mutated or not — capacity is a
	// hard bound) and close its WAL.
	if _, err := s.Registry().Get(declB); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Registry().Lookup(keyA); ok {
		t.Fatal("A still resident; eviction did not happen")
	}
	if open := s.reg.durable.open(); open != 1 {
		t.Fatalf("open durable entries = %d, want 1 (A released)", open)
	}

	// Re-Get A: recovery must bring the appended row back.
	e2, err := s.Registry().Get(declA)
	if err != nil {
		t.Fatal(err)
	}
	got := e2.Rels["nation"].Tuples()
	if len(got) != len(want) {
		t.Fatalf("recovered %d tuples, want %d (wire append lost in eviction)", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("recovered tuple %d = %v, want %v", i, got[i], want[i])
		}
	}
	if !e2.mutated.Load() {
		t.Fatal("recovered entry not marked mutated")
	}
}

// TestDrainModeSheddingAndHealth covers the drain satellite: before
// SetDraining the shed path answers 429 + Retry-After, after it the
// same pressure answers 503 + Connection: close and /healthz flips to
// draining.
func TestDrainModeSheddingAndHealth(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1})
	// Fill the admission semaphore so every draw request sheds.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	shed := func() *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/sample", "application/json",
			bytesReader(t, sampleRequest{Union: quickDecl(), N: 1}))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if resp := shed(); resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("pre-drain shed: %d %q, want 429 with Retry-After 1", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	s.SetDraining()
	resp := shed()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining shed: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "" {
		t.Fatal("draining shed still advertises Retry-After")
	}
	if !resp.Close {
		t.Fatal("draining shed did not signal Connection: close")
	}

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz: %d, want 503", hr.StatusCode)
	}
	var h healthzResponse
	if err := jsonDecode(hr.Body, &h); err != nil || h.Status != "draining" {
		t.Fatalf("draining /healthz status %q (err %v), want draining", h.Status, err)
	}
}

// TestDurableCommitFailureRefusesAck closes an entry's WAL out from
// under it (the eviction race) and expects the next append to answer
// 500 rather than ack rows that will not survive.
func TestDurableCommitFailureRefusesAck(t *testing.T) {
	s, ts := newTestServer(t, durableCfg(t.TempDir()))
	defer s.Close()
	decl := quickDecl()
	seededDraw(t, ts.URL, decl, 1, 1)
	key, _ := decl.Key()
	s.reg.durable.release(key) // closes the WAL; sticky ErrClosed

	var apiErr apiError
	code := post(t, ts.URL+"/relation/nation/append",
		appendRequest{Union: decl, Rows: [][]int64{{1, 2, 3}}}, &apiErr)
	if code != http.StatusInternalServerError {
		t.Fatalf("append on closed WAL: status %d, want 500", code)
	}
	if apiErr.Error == "" {
		t.Fatal("append on closed WAL: empty error body")
	}
	if d := s.reg.durable.snapshot(); d.CommitErrors != 1 {
		t.Fatalf("commit errors = %d, want 1", d.CommitErrors)
	}
}

// TestMetricsDurabilitySection asserts /metrics grows the durability
// gauge block exactly when durability is on.
func TestMetricsDurabilitySection(t *testing.T) {
	sOff, tsOff := newTestServer(t, Config{})
	_ = sOff
	var m map[string]any
	if code := post(t, tsOff.URL+"/sample", sampleRequest{Union: quickDecl(), N: 1}, nil); code != http.StatusOK {
		t.Fatalf("sample: %d", code)
	}
	getJSON(t, tsOff.URL+"/metrics", &m)
	if _, ok := m["durability"]; ok {
		t.Fatal("memory-only /metrics reports durability")
	}

	sOn, tsOn := newTestServer(t, durableCfg(t.TempDir()))
	defer sOn.Close()
	if code := post(t, tsOn.URL+"/relation/nation/append",
		appendRequest{Union: quickDecl(), Rows: [][]int64{{9, 9, 9}}}, nil); code != http.StatusOK {
		t.Fatalf("append: %d", code)
	}
	m = nil
	getJSON(t, tsOn.URL+"/metrics", &m)
	dur, ok := m["durability"].(map[string]any)
	if !ok {
		t.Fatal("durable /metrics missing durability block")
	}
	if dur["policy"] != "off" || dur["commits"].(float64) != 1 {
		t.Fatalf("durability block: %+v", dur)
	}
}
