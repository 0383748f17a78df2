package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"sampleunion/internal/repl"
)

// oversized returns body padded with leading whitespace — which JSON
// allows, so the decoder keeps reading — to one byte over the limit.
func oversized(t *testing.T, body any) []byte {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return append(bytes.Repeat([]byte{' '}, maxBodyBytes+1-len(b)), b...)
}

// TestRequestBodyLimit pins the hostile-request outcome: a body one
// byte over maxBodyBytes answers 413 through the error envelope and
// changes nothing, and ordinary requests are untouched by the limit.
func TestRequestBodyLimit(t *testing.T) {
	s, ts := newTestServer(t, durableCfg(t.TempDir()))
	defer s.Close()
	decl := quickDecl()
	seededDraw(t, ts.URL, decl, 1, 1)
	key, _ := decl.Key()
	e, _ := s.Registry().Lookup(key)
	base := e.Rels["nation"].Version()

	rows := make([][]int64, 32)
	for i := range rows {
		rows[i] = []int64{int64(700 + i), int64(i), int64(i % 5)}
	}
	for path, body := range map[string]any{
		"/sample":                 sampleRequest{Union: decl, N: 1},
		"/relation/nation/append": appendRequest{Union: decl, Rows: rows},
	} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(oversized(t, body)))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var apiErr apiError
		err = json.NewDecoder(resp.Body).Decode(&apiErr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || apiErr.Error == "" {
			t.Fatalf("%s over the limit: status %d, envelope %q (%v); want 413 with an error", path, resp.StatusCode, apiErr.Error, err)
		}
	}
	if got := e.Rels["nation"].Version(); got != base {
		t.Fatalf("refused append moved the relation from version %d to %d", base, got)
	}

	var ap appendResponse
	if code := post(t, ts.URL+"/relation/nation/append", appendRequest{Union: decl, Rows: rows}, &ap); code != http.StatusOK || ap.Appended != 32 {
		t.Fatalf("32-row append under the limit: status %d %+v", code, ap)
	}
}

// TestReplAckValidated: /repl/ack is open to anyone who can reach the
// daemon, so it stores nothing for a (session, relation) it does not
// serve and bounds its body like every other endpoint.
func TestReplAckValidated(t *testing.T) {
	s, ts := newTestServer(t, durableCfg(t.TempDir()))
	defer s.Close()
	decl := quickDecl()
	seededDraw(t, ts.URL, decl, 1, 1)
	key, _ := decl.Key()

	if code := post(t, ts.URL+"/repl/ack", repl.AckRequest{Follower: "f", Session: "no-such-session", Relation: "nation"}, nil); code != http.StatusNotFound {
		t.Fatalf("ack for an unknown session: status %d, want 404", code)
	}
	if code := post(t, ts.URL+"/repl/ack", repl.AckRequest{Follower: "f", Session: key, Relation: "nation", Applied: 3}, nil); code != http.StatusOK {
		t.Fatalf("ack for a served relation: status %d, want 200", code)
	}
	fs := s.hub.Snapshot().Followers
	if len(fs) != 1 || fs[0].Session != key || fs[0].Applied != 3 {
		t.Fatalf("ack table after one refused and one accepted ack: %+v", fs)
	}
	if testing.Short() {
		return // the oversized body costs seconds under -race
	}
	resp, err := http.Post(ts.URL+"/repl/ack", "application/json", bytes.NewReader(oversized(t, repl.AckRequest{Follower: "f"})))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ack: status %d, want 413", resp.StatusCode)
	}
}

// TestDrawCountLimit pins the hostile-n outcome on every draw endpoint:
// the engine sizes its buffers for the whole batch up front, so an n the
// process could never hold must end in a 400 that names the limit — not
// in a makeslice panic or an out-of-memory kill — and must give its
// admission slot back.
func TestDrawCountLimit(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1})
	decl := quickDecl()
	seededDraw(t, ts.URL, decl, 1, 1)
	where := &PredDecl{Cmp: &CmpDecl{Attr: "nationkey", Op: "<", Value: 10}}

	for _, n := range []int{maxDrawN + 1, 2_000_000_000, 4_000_000_000_000} {
		for path, body := range map[string]any{
			"/sample":       sampleRequest{Union: decl, N: n},
			"/sample/where": sampleRequest{Union: decl, N: n, Where: where},
			"/approx/count": approxRequest{Union: decl, N: n, Where: where},
			"/approx/sum":   approxRequest{Union: decl, N: n, Attr: "nationkey"},
			"/approx/avg":   approxRequest{Union: decl, N: n, Attr: "nationkey"},
			"/approx/group": approxRequest{Union: decl, N: n, Attr: "nationkey"},
		} {
			var apiErr apiError
			if code := post(t, ts.URL+path, body, &apiErr); code != http.StatusBadRequest {
				t.Fatalf("%s n=%d: status %d (%q), want 400", path, n, code, apiErr.Error)
			}
			if !strings.Contains(apiErr.Error, strconv.Itoa(maxDrawN)) {
				t.Fatalf("%s n=%d: error %q does not name the limit %d", path, n, apiErr.Error, maxDrawN)
			}
			if got := s.Inflight(); got != 0 {
				t.Fatalf("%s n=%d: %d admission slots held after the refusal", path, n, got)
			}
		}
	}
	// With one slot in all, a leaked one would answer 429 here.
	if got := len(seededDraw(t, ts.URL, decl, 3, 2)); got != 3 {
		t.Fatalf("draw after the refusals returned %d tuples, want 3", got)
	}
	if err := checkDrawN(maxDrawN, 1); err != nil {
		t.Fatalf("n at the limit refused: %v", err)
	}
}

// TestWorkersLimit pins the hostile-workers outcome: SampleParallel starts
// a goroutine per worker behind a single admission slot, so a workers
// count over the bound answers 400 naming it, starts nothing and gives the
// slot back, while the bound itself is served. /sample/where draws on one
// goroutine, so any workers count there answers 400 naming the field — as
// /sample answers 400 to a where predicate — instead of being ignored.
func TestWorkersLimit(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1})
	decl := quickDecl()
	seed := int64(1)
	where := &PredDecl{Cmp: &CmpDecl{Attr: "nationkey", Op: "<", Value: 10}}
	for _, c := range []struct {
		path string
		body sampleRequest
		want string
	}{
		{"/sample", sampleRequest{Union: decl, N: 1 << 20, Workers: 1 << 20}, strconv.Itoa(maxWorkers)},
		{"/sample", sampleRequest{Union: decl, N: 8, Workers: maxWorkers + 1}, strconv.Itoa(maxWorkers)},
		{"/sample", sampleRequest{Union: decl, N: 8, Workers: maxWorkers + 1, Seed: &seed}, strconv.Itoa(maxWorkers)},
		{"/sample/where", sampleRequest{Union: decl, N: 8, Workers: 1, Where: where}, "workers"},
		{"/sample/where", sampleRequest{Union: decl, N: 8, Workers: 4, Where: where}, "workers"},
	} {
		var apiErr apiError
		if code := post(t, ts.URL+c.path, c.body, &apiErr); code != http.StatusBadRequest {
			t.Fatalf("%s workers=%d: status %d (%q), want 400", c.path, c.body.Workers, code, apiErr.Error)
		}
		if !strings.Contains(apiErr.Error, c.want) {
			t.Fatalf("%s workers=%d: error %q does not name %q", c.path, c.body.Workers, apiErr.Error, c.want)
		}
		if got := s.Inflight(); got != 0 {
			t.Fatalf("%s workers=%d: %d admission slots held after the refusal", c.path, c.body.Workers, got)
		}
	}
	var sr sampleResponse
	if code := post(t, ts.URL+"/sample", sampleRequest{Union: decl, N: 2 * maxWorkers, Workers: maxWorkers}, &sr); code != http.StatusOK || len(sr.Tuples) != 2*maxWorkers {
		t.Fatalf("workers at the limit: status %d, %d tuples", code, len(sr.Tuples))
	}
}
