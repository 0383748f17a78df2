package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"sampleunion/internal/repl"
	"sampleunion/internal/wal"
)

// postIdem is post with an Idempotency-Key header.
func postIdem(t *testing.T, url, key string, body, out any) (status int) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", key)
	resp, err := http.DefaultClient.Do(req)
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

func TestAppendIdempotencyKeyDedupes(t *testing.T) {
	s, ts := newTestServer(t, durableCfg(t.TempDir()))
	defer s.Close()
	decl := quickDecl()
	seededDraw(t, ts.URL, decl, 2, 1)
	key, _ := decl.Key()
	e, _ := s.Registry().Lookup(key)
	base := e.Rels["nation"].Version()

	rows := [][]int64{{90, 1, 1}, {91, 2, 2}}
	var ap appendResponse
	if code := postIdem(t, ts.URL+"/relation/nation/append", "batch-1", appendRequest{Union: decl, Rows: rows}, &ap); code != http.StatusOK {
		t.Fatalf("first append: status %d", code)
	}
	if ap.Deduped || ap.Appended != 2 {
		t.Fatalf("first append: %+v, want fresh 2-row ack", ap)
	}
	// The retry: same key, nothing appended, original count echoed.
	if code := postIdem(t, ts.URL+"/relation/nation/append", "batch-1", appendRequest{Union: decl, Rows: rows}, &ap); code != http.StatusOK {
		t.Fatalf("retried append: status %d", code)
	}
	if !ap.Deduped || ap.Appended != 2 || !ap.Durable {
		t.Fatalf("retried append: %+v, want deduped 2-row ack", ap)
	}
	if got := e.Rels["nation"].Version(); got != base+2 {
		t.Fatalf("version %d after dedupe, want %d (rows must not double)", got, base+2)
	}
	// A different key is a different batch. (Fresh struct: deduped is
	// omitempty, so decoding would not clear a stale true.)
	ap = appendResponse{}
	if code := postIdem(t, ts.URL+"/relation/nation/append", "batch-2", appendRequest{Union: decl, Rows: rows}, &ap); code != http.StatusOK || ap.Deduped {
		t.Fatalf("distinct key: status %d %+v", code, ap)
	}
	if got := e.Rels["nation"].Version(); got != base+4 {
		t.Fatalf("version %d, want %d", got, base+4)
	}
	// Absurd keys are client errors, not silent truncations.
	long := string(bytes.Repeat([]byte("k"), maxIdemHeaderLen+1))
	if code := postIdem(t, ts.URL+"/relation/nation/append", long, appendRequest{Union: decl, Rows: rows}, nil); code != http.StatusBadRequest {
		t.Fatalf("oversized key: status %d, want 400", code)
	}
}

// TestAppendIdempotencySurvivesRestart pins the WAL tagging: the key
// rides in the tagged append record, so a retry that lands after a
// crash+restart still dedupes instead of double-appending.
func TestAppendIdempotencySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	decl := quickDecl()
	rows := [][]int64{{95, 5, 5}}

	s1, ts1 := newTestServer(t, durableCfg(dir))
	seededDraw(t, ts1.URL, decl, 2, 1)
	var ap appendResponse
	if code := postIdem(t, ts1.URL+"/relation/nation/append", "retry-me", appendRequest{Union: decl, Rows: rows}, &ap); code != http.StatusOK || ap.Deduped {
		t.Fatalf("append: status %d %+v", code, ap)
	}
	key, _ := decl.Key()
	e1, _ := s1.Registry().Lookup(key)
	want := e1.Rels["nation"].Version()
	ts1.Close()
	s1.Close()

	s2, ts2 := newTestServer(t, durableCfg(dir))
	defer s2.Close()
	if _, err := s2.RestoreSessions(); err != nil {
		t.Fatal(err)
	}
	if code := postIdem(t, ts2.URL+"/relation/nation/append", "retry-me", appendRequest{Union: decl, Rows: rows}, &ap); code != http.StatusOK {
		t.Fatalf("post-restart retry: status %d", code)
	}
	if !ap.Deduped || ap.Appended != 1 {
		t.Fatalf("post-restart retry: %+v, want deduped", ap)
	}
	e2, _ := s2.Registry().Lookup(key)
	if got := e2.Rels["nation"].Version(); got != want {
		t.Fatalf("version %d after restart+retry, want %d", got, want)
	}
}

// TestRequestTimeoutShedsSlowDraws pins the per-request deadline: a
// draw that cannot finish inside RequestTimeout answers 503 with a
// Retry-After hint instead of pinning the connection.
func TestRequestTimeoutShedsSlowDraws(t *testing.T) {
	s, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	defer s.Close()
	b, _ := json.Marshal(sampleRequest{Union: quickDecl(), N: 4})
	resp, err := http.Post(ts.URL+"/sample", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("timed-out draw carries no Retry-After")
	}
	var apiErr struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil || apiErr.Error == "" {
		t.Fatalf("timeout error envelope: %q, %v", apiErr.Error, err)
	}
}

// TestFollowerRedirectsWrites pins the read-only contract: a follower
// answers appends with 307 + Location at the primary, preserving
// method and body so the client's replay (with its Idempotency-Key)
// lands verbatim.
func TestFollowerRedirectsWrites(t *testing.T) {
	s, ts := newTestServer(t, Config{FollowPrimary: "http://primary.example:8080"})
	defer s.Close()
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	b, _ := json.Marshal(appendRequest{Union: quickDecl(), Rows: [][]int64{{1, 2, 3}}})
	resp, err := client.Post(ts.URL+"/relation/nation/append", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("follower append: status %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "http://primary.example:8080/relation/nation/append" {
		t.Fatalf("Location = %q", loc)
	}
}

// --- end-to-end chaos ---

// replCfg is the durable config both chaos nodes run: fast heartbeats,
// checkpoints rare enough that the WAL stays streamable through the
// test (truncation-driven resync has its own test in internal/repl).
func replCfg(dir string) Config {
	return Config{
		DurableDir:      dir,
		FsyncPolicy:     wal.SyncNever,
		CheckpointEvery: 1 << 20,
		ReplHeartbeat:   25 * time.Millisecond,
	}
}

// startServerAt boots a serve.Server on a specific listen address (or
// any free one when addr is ""), so a "restarted" primary comes back
// where its followers expect it.
func startServerAt(t *testing.T, addr string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	s := New(cfg)
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Listener.Close()
	ts.Listener = l
	ts.Start()
	return s, ts
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicationChaosConvergence is the acceptance test for the
// replication tentpole: a primary ingests idempotent batches (with
// deliberate duplicate resends) while its follower replicates through
// a transport that drops, duplicates, reorders, delays, and truncates
// — and the primary is restarted mid-stream. Once the storm ends, the
// follower must hold the identical relation (zero lost, zero
// duplicated rows) and produce byte-identical seeded draws.
func TestReplicationChaosConvergence(t *testing.T) {
	dirP, dirF := t.TempDir(), t.TempDir()
	decl := quickDecl()
	key, _ := decl.Key()

	sP, tsP := startServerAt(t, "", replCfg(dirP))
	primaryURL := tsP.URL
	primaryAddr := tsP.Listener.Addr().String()
	seededDraw(t, primaryURL, decl, 2, 1) // warm + into the boot manifest
	eP, _ := sP.Registry().Lookup(key)
	baseVersion := eP.Rels["nation"].Version()

	// The follower dials the primary through the fault injector; its
	// serving endpoints and the test's ingest use clean connections.
	fi := repl.NewFaultInjector(repl.FaultConfig{
		Seed: 99, SegmentBytes: 256,
		DropProb: 0.05, DupProb: 0.05, ReorderProb: 0.05,
		TruncateProb: 0.02, DelayProb: 0.05, MaxDelay: time.Millisecond,
	})
	fcfg := replCfg(dirF)
	fcfg.FollowPrimary = primaryURL
	fcfg.ReplClient = &http.Client{Transport: &http.Transport{DialContext: fi.DialContext(nil)}}
	sF, tsF := startServerAt(t, "", fcfg)
	defer func() {
		sF.Close()
		tsF.Close()
	}()
	if err := sF.StartFollower(25 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Let the follower discover and prepare the session and open its
	// streams over a clean link, then unleash the storm on the streams
	// themselves.
	nationTarget := func() (ts repl.TargetSnapshot) {
		for _, ts = range sF.follower.Snapshot().Targets {
			if ts.Relation == "nation" {
				return ts
			}
		}
		return repl.TargetSnapshot{}
	}
	waitFor(t, "follower session prepare", func() bool {
		e, ok := sF.Registry().Lookup(key)
		return ok && e.Rels["nation"].Version() >= baseVersion && nationTarget().Connected
	})
	eF, _ := sF.Registry().Lookup(key)
	fi.Enable()

	const batches = 25
	rowsSent := 0
	for i := 0; i < batches; i++ {
		if i == batches/2 {
			// Restart the primary mid-stream: followers must survive the
			// outage, reconnect with backoff, and resume.
			sP.Close()
			tsP.Close()
			sP, tsP = startServerAt(t, primaryAddr, replCfg(dirP))
			if _, err := sP.RestoreSessions(); err != nil {
				t.Fatal(err)
			}
			eP, _ = sP.Registry().Lookup(key)
		}
		rows := [][]int64{
			{int64(200 + 2*i), int64(i), int64(i % 5)},
			{int64(201 + 2*i), int64(i), int64(i % 5)},
		}
		ikey := fmt.Sprintf("chaos-batch-%d", i)
		var ap appendResponse
		if code := postIdem(t, primaryURL+"/relation/nation/append", ikey, appendRequest{Union: decl, Rows: rows}, &ap); code != http.StatusOK {
			t.Fatalf("batch %d: status %d", i, code)
		}
		if ap.Deduped {
			t.Fatalf("batch %d: fresh key answered as duplicate", i)
		}
		rowsSent += 2
		if i%5 == 0 {
			// The at-least-once client: resend the batch we just sent.
			if code := postIdem(t, primaryURL+"/relation/nation/append", ikey, appendRequest{Union: decl, Rows: rows}, &ap); code != http.StatusOK || !ap.Deduped {
				t.Fatalf("batch %d resend: status %d %+v, want deduped", i, code, ap)
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	defer func() {
		sP.Close()
		tsP.Close()
	}()

	// End the storm; the follower must now fully converge.
	fi.Disable()
	wantVersion := baseVersion + uint64(rowsSent)
	if got := eP.Rels["nation"].Version(); got != wantVersion {
		t.Fatalf("primary version %d, want %d (idempotent resends must not double)", got, wantVersion)
	}
	defer func() {
		if t.Failed() {
			t.Logf("primary at version %d; follower's nation stream: %+v", wantVersion, nationTarget())
		}
	}()
	waitFor(t, "follower convergence", func() bool {
		return eF.Rels["nation"].Version() == wantVersion
	})
	pT, fT := eP.Rels["nation"].Tuples(), eF.Rels["nation"].Tuples()
	if len(pT) != len(fT) {
		t.Fatalf("follower has %d tuples, primary %d", len(fT), len(pT))
	}
	for i := range pT {
		if !pT[i].Equal(fT[i]) {
			t.Fatalf("tuple %d: follower %v, primary %v", i, fT[i], pT[i])
		}
	}
	st := fi.Stats()
	if st.Drops+st.Dups+st.Reorders+st.Truncates+st.Delays == 0 {
		t.Fatal("fault injector never fired; the chaos test asserted nothing")
	}

	// Byte-identical seeded draws: the replicated state and the primary
	// state answer the same seeded request identically (the histogram
	// warm-up is RNG-free, so draws are a pure function of state+seed).
	// The follower's sampler refreshes at wire-idle boundaries, so poll.
	wantDraw := seededDraw(t, primaryURL, decl, 32, 4242)
	waitFor(t, "seeded draw convergence", func() bool {
		return reflect.DeepEqual(seededDraw(t, tsF.URL, decl, 32, 4242), wantDraw)
	})

	// The follower is read-only end to end: its append answers 307 home.
	noRedirect := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	b, _ := json.Marshal(appendRequest{Union: decl, Rows: [][]int64{{1, 2, 3}}})
	resp, err := noRedirect.Post(tsF.URL+"/relation/nation/append", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("follower append under replication: status %d, want 307", resp.StatusCode)
	}

	// Both /metrics expose their replication role; the follower's shows
	// the reconnects the restart and the storm forced.
	var pm, fm struct {
		Replication *ReplicationSnapshot `json:"replication"`
	}
	getJSON(t, primaryURL+"/metrics", &pm)
	getJSON(t, tsF.URL+"/metrics", &fm)
	if pm.Replication == nil || pm.Replication.Role != "primary" {
		t.Fatalf("primary metrics replication block: %+v", pm.Replication)
	}
	if fm.Replication == nil || fm.Replication.Role != "follower" || len(fm.Replication.Follower.Targets) == 0 {
		t.Fatalf("follower metrics replication block: %+v", fm.Replication)
	}
	// The appended relation's stream was up before the storm and caught
	// up after the restart, so it connected at least twice. (Its idle
	// siblings may still be backing off.)
	ts := nationTarget()
	if ts.Reconnects < 2 {
		t.Fatalf("reconnects = %d, want >= 2 (initial + primary restart)", ts.Reconnects)
	}
	if ts.LagRecords != 0 {
		t.Fatalf("lag_records = %d after convergence", ts.LagRecords)
	}
	t.Logf("chaos: faults=%+v reconnects=%d resyncs=%d duplicates=%d",
		st, ts.Reconnects, ts.Resyncs, ts.Duplicates)
}

// TestFollowerCatchUpAcrossSiblingRelations is the regression test for
// the follower crash on multi-relation catch-up: the primary takes
// interleaved appends on several relations of one session, then a fresh
// follower replays all of their logs at once — one replicator per
// relation, each flushing (Commit + Session.Refresh) at its own
// wire-idle boundaries. A Refresh re-reads every relation of the
// session; before sibling targets shared the entry's lock, one
// replicator's Refresh ran while its siblings were mid-append and
// Join.ExactWeights indexed past a weight slice sized from an earlier
// Rel.Len(). The follower must converge without a panic and answer
// seeded draws byte-identically to the primary.
func TestFollowerCatchUpAcrossSiblingRelations(t *testing.T) {
	decl := quickDecl()
	key, _ := decl.Key()

	sP, tsP := startServerAt(t, "", replCfg(t.TempDir()))
	defer func() {
		sP.Close()
		tsP.Close()
	}()
	seededDraw(t, tsP.URL, decl, 2, 1)
	eP, _ := sP.Registry().Lookup(key)
	rels := []string{"nation", "supplier_v0", "customer_v0", "orders_v0"}
	for _, name := range rels {
		if eP.Rels[name] == nil {
			t.Fatalf("UQ1 has no relation %q", name)
		}
	}
	// Many small frames per relation, interleaved, so every replicator
	// is still applying while its siblings flush.
	const rounds = 150
	for i := 0; i < rounds; i++ {
		for _, name := range rels {
			row := make([]int64, eP.Rels[name].Arity())
			for c := range row {
				row[c] = int64(500000 + i)
			}
			var ap appendResponse
			if code := post(t, tsP.URL+"/relation/"+name+"/append", appendRequest{Union: decl, Rows: [][]int64{row}}, &ap); code != http.StatusOK {
				t.Fatalf("append %d to %s: status %d", i, name, code)
			}
		}
	}

	fcfg := replCfg(t.TempDir())
	fcfg.FollowPrimary = tsP.URL
	sF, tsF := startServerAt(t, "", fcfg)
	defer func() {
		sF.Close()
		tsF.Close()
	}()
	if err := sF.StartFollower(25 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "follower catch-up on every relation", func() bool {
		eF, ok := sF.Registry().Lookup(key)
		if !ok {
			return false
		}
		for name, rel := range eP.Rels {
			if eF.Rels[name].Version() != rel.Version() {
				return false
			}
		}
		return true
	})
	wantDraw := seededDraw(t, tsP.URL, decl, 32, 4242)
	waitFor(t, "seeded draw convergence", func() bool {
		return reflect.DeepEqual(seededDraw(t, tsF.URL, decl, 32, 4242), wantDraw)
	})
}
