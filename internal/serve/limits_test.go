package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
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
