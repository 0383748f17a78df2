package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"sampleunion/internal/repl"
)

// resolveSource maps a replication stream's (session key, relation
// name) to the live relation and its WAL — the hub's lens into the
// registry. Only warm entries resolve: a cold key means the primary
// itself has not restored that session, and the follower retries.
func (s *Server) resolveSource(session, relName string) (repl.Source, error) {
	e, ok := s.reg.Lookup(session)
	if !ok {
		return repl.Source{}, fmt.Errorf("serve: no warm session %q", session)
	}
	rel, ok := e.Rels[relName]
	if !ok {
		return repl.Source{}, fmt.Errorf("serve: session %q has no relation %q", session, relName)
	}
	if e.durable == nil {
		return repl.Source{}, fmt.Errorf("serve: session %q has no durable state to stream", session)
	}
	rl, ok := e.durable.rels[relName]
	if !ok {
		return repl.Source{}, fmt.Errorf("serve: relation %q has no WAL", relName)
	}
	return repl.Source{Rel: rel, Log: rl}, nil
}

func (s *Server) replUnavailable(w http.ResponseWriter) bool {
	if s.hub != nil {
		return false
	}
	msg := "serve: replication requires a durable primary (start with -data-dir)"
	if s.primaryURL != "" {
		msg = "serve: this node is a follower; replicate from the primary at " + s.primaryURL
	}
	writeJSON(w, http.StatusServiceUnavailable, apiError{Error: msg})
	return true
}

// handleReplSessions lists the durable sessions a follower should
// replicate: the boot manifest, verbatim — key plus the declaration
// the follower re-prepares to get the identical deterministic base.
func (s *Server) handleReplSessions(w http.ResponseWriter, r *http.Request) {
	if s.replUnavailable(w) {
		return
	}
	ents, err := s.reg.durable.loadManifest()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	out := make([]repl.RemoteSession, 0, len(ents))
	for _, me := range ents {
		raw, err := json.Marshal(me.Decl)
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
			return
		}
		out = append(out, repl.RemoteSession{Key: me.Key, Decl: raw})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleReplStream(w http.ResponseWriter, r *http.Request) {
	if s.replUnavailable(w) {
		return
	}
	s.hub.ServeStream(w, r)
}

func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.replUnavailable(w) {
		return
	}
	s.hub.ServeSnapshot(w, r)
}

func (s *Server) handleReplAck(w http.ResponseWriter, r *http.Request) {
	if s.replUnavailable(w) {
		return
	}
	var req repl.AckRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "serve: bad ack body: " + err.Error()})
		return
	}
	s.hub.RecordAck(req.Follower, req.Session, req.Relation, req.Applied, req.Reconnects, req.Resyncs)
	writeJSON(w, http.StatusOK, struct{}{})
}

// StartFollower begins replicating from the configured primary: it
// adds targets for every already-warm session (restored from the
// follower's own durable state), then polls the primary's session list
// — forever, in the background — preparing and following any it does
// not serve yet. An unreachable primary is not fatal at any point;
// restored sessions keep serving reads and the poll retries. Call it
// once, after RestoreSessions.
func (s *Server) StartFollower(pollEvery time.Duration) error {
	if s.primaryURL == "" {
		return fmt.Errorf("serve: StartFollower on a server with no FollowPrimary")
	}
	if s.follower != nil {
		return fmt.Errorf("serve: follower already started")
	}
	if pollEvery <= 0 {
		pollEvery = 30 * time.Second
	}
	// Reconnect backoff and ack cadence scale with the heartbeat: it is
	// the deployment's one statement about how fast replication should
	// notice and react to change.
	s.follower = repl.NewFollower(repl.Options{
		Primary:    s.primaryURL,
		Client:     s.replClient,
		FollowerID: followerID(),
		Heartbeat:  s.heartbeat,
		AckEvery:   2 * s.heartbeat,
		BackoffMin: s.heartbeat,
		BackoffMax: 20 * s.heartbeat,
		Seed:       uint64(time.Now().UnixNano()),
		Logf:       nil,
	})
	for _, e := range s.warmEntries() {
		s.followEntry(e)
	}
	go func() {
		t := time.NewTicker(pollEvery)
		defer t.Stop()
		s.syncFollowTargets()
		for {
			select {
			case <-s.stopCh:
				return
			case <-t.C:
				s.syncFollowTargets()
			}
		}
	}()
	return nil
}

var followerSeq sync.Mutex

func followerID() string {
	followerSeq.Lock()
	defer followerSeq.Unlock()
	return fmt.Sprintf("follower-%d", time.Now().UnixNano()%1e9)
}

func (s *Server) warmEntries() []*Entry {
	s.reg.mu.Lock()
	defer s.reg.mu.Unlock()
	out := make([]*Entry, 0, s.reg.lru.Len())
	for el := s.reg.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*Entry))
	}
	return out
}

// syncFollowTargets pulls the primary's session list and prepares +
// follows anything new. Failures are swallowed (the ticker retries):
// a follower must boot, serve its restored state, and wait out a dead
// primary.
func (s *Server) syncFollowTargets() {
	client := s.replClient
	if client == nil {
		client = http.DefaultClient
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sessions, err := repl.FetchSessions(ctx, client, s.primaryURL)
	if err != nil {
		return
	}
	for _, rs := range sessions {
		if _, ok := s.reg.Lookup(rs.Key); ok {
			continue // followEntry already ran for it (Add is idempotent anyway)
		}
		var decl UnionDecl
		if err := json.Unmarshal(rs.Decl, &decl); err != nil {
			continue
		}
		e, err := s.reg.Get(decl)
		if err != nil {
			continue
		}
		s.followEntry(e)
	}
}

// followEntry pins an entry (replicators hold its relations; eviction
// would orphan them) and registers one replication target per
// relation. The targets share the entry's appendMu, so a sibling's
// frame apply never interleaves with a Refresh of the shared session —
// the order the wire append path keeps on the primary.
func (s *Server) followEntry(e *Entry) {
	e.pinned.Store(true)
	for name, rel := range e.Rels {
		t := repl.Target{
			Session:  e.Key,
			Relation: name,
			Rel:      rel,
			Mu:       &e.appendMu,
			Refresh: func() error {
				e.mutated.Store(true)
				return e.Sess.Refresh()
			},
		}
		if e.durable != nil {
			relName := name
			if rl, ok := e.durable.rels[relName]; ok {
				t.Commit = func() error { return e.durable.commit(relName) }
				t.Checkpoint = rl.Checkpoint
			}
		}
		s.follower.Add(t)
	}
}
