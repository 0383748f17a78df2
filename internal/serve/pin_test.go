package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestDeclKeysPinned pins, byte for byte, what a declaration hashes to
// and what its normalized form serializes to. Keys name on-disk WAL
// directories and manifest entries, and followers exchange the
// normalized declaration JSON, so neither may move when the option
// vocabulary is refactored: a changed row here means a -data-dir
// written by an older binary no longer restores. Declarations are given
// as the wire spells them, so the table does not depend on how the Go
// types behind the wire are declared. A row without a key is a
// declaration the wire no longer accepts: the server must answer it 400
// with the text in its last column.
func TestDeclKeysPinned(t *testing.T) {
	const (
		defaultKey = "d6b0ff43c5fe0e3d7656dfe601e5d87a714016c13505311afb27f411fa601c3e"
		defaultDoc = `{"workload":"UQ1","sf":0.1,"overlap":0.2,"data_seed":1,"options":{"warmup":"random-walk","warmup_walks":1000,"seed":1,"shards":1}}`
	)
	for _, tc := range []struct {
		name, decl, key, normalized string
	}{
		{"empty options", `{}`, defaultKey, defaultDoc},
		{"explicit random-walk EW", `{"workload":"UQ1","options":{"warmup":"random-walk"}}`, defaultKey, defaultDoc},
		// The adaptive mode is gone; its two spellings used to share key
		// 0f386402… (TestRestoreRefusesMovedKey holds the manifest entry).
		{"warmup auto", `{"options":{"warmup":"auto"}}`, "", `unknown warmup "auto" (valid: histogram, random-walk, exact)`},
		// The join subroutine is not an option: "method" is an unknown
		// field whatever its value. EO declarations used to key apart
		// (histogram EO was 96b3c76d…; TestRestoreRefusesMovedKey holds
		// the manifest entry); the EW keys above did not move.
		{"method auto spelled out", `{"options":{"method":"auto","warmup_walks":128}}`, "", `unknown field "method"`},
		{"histogram EO", `{"workload":"UQ2","sf":0.05,"options":{"warmup":"histogram","method":"EO","seed":7}}`, "", `unknown field "method"`},
		{"online", `{"options":{"online":true}}`,
			"1b21793157cf2dd168a52b20996b417c5443601a9049fdb8537766741f05be2c",
			`{"workload":"UQ1","sf":0.1,"overlap":0.2,"data_seed":1,"options":{"warmup":"random-walk","online":true,"warmup_walks":1000,"seed":1,"shards":1}}`},
		{"negative walks", `{"options":{"online":true,"warmup_walks":-7}}`,
			"816b370351943aadb474f90ab66c76e6fa87fe956f4d744b058370045614148f",
			`{"workload":"UQ1","sf":0.1,"overlap":0.2,"data_seed":1,"options":{"warmup":"random-walk","online":true,"warmup_walks":-1,"seed":1,"shards":1}}`},
		{"shards", `{"workload":"UQ3","overlap":0.5,"data_seed":9,"options":{"shards":3}}`,
			"ff02c9a5d44bd32f58c6d104917507cd613b81c36487fbf7e45088edbbdd26c4",
			`{"workload":"UQ3","sf":0.1,"overlap":0.5,"data_seed":9,"options":{"warmup":"random-walk","warmup_walks":1000,"seed":1,"shards":3}}`},
		{"inline spec", `{"spec":"rel x x.csv\nchain J x k x","options":{"seed":1}}`,
			"c14fa8ac2b5797e7ce3828467501416efe8eb10158097908c7dc58393a233668",
			`{"spec":"rel x x.csv\nchain J x k x","options":{"warmup":"random-walk","warmup_walks":1000,"seed":1,"shards":1}}`},
		// Membership is the only accept rule: the option that used to select
		// it is an unknown field, not a silently ignored one. ("method" is
		// one too, so it follows "oracle" here to keep this row about it.)
		{"exact WJ oracle", `{"options":{"warmup":"exact","oracle":true,"method":"WJ"}}`, "", `unknown field "oracle"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.key == "" {
				_, ts := newTestServer(t, Config{})
				resp, err := http.Post(ts.URL+"/estimate", "application/json", strings.NewReader(`{"union":`+tc.decl+`}`))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var e apiError
				if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, tc.normalized) {
					t.Fatalf("status %d, error %q; want 400 containing %q", resp.StatusCode, e.Error, tc.normalized)
				}
				return
			}
			var d UnionDecl
			if err := json.Unmarshal([]byte(tc.decl), &d); err != nil {
				t.Fatal(err)
			}
			key, err := d.Key()
			if err != nil {
				t.Fatal(err)
			}
			if key != tc.key {
				t.Errorf("Key() = %s, pinned %s", key, tc.key)
			}
			got, err := json.Marshal(d.normalize())
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.normalized {
				t.Errorf("normalized declaration\n got %s\nwant %s", got, tc.normalized)
			}
		})
	}
}
