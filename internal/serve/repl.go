package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
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
	rl, ok := e.logs[relName]
	if !ok {
		return repl.Source{}, fmt.Errorf("serve: session %q has no relation %q", session, relName)
	}
	return repl.Source{Rel: e.Rels[relName], Log: rl}, nil
}

// replUnavailable answers every /repl/ endpoint on a server that has no
// hub: only a durable primary feeds followers.
func (s *Server) replUnavailable(w http.ResponseWriter, r *http.Request) {
	msg := "serve: replication requires a durable primary (start with -data-dir)"
	if s.cfg.FollowPrimary != "" {
		msg = "serve: this node is a follower; replicate from the primary at " + s.cfg.FollowPrimary
	}
	writeJSON(w, http.StatusServiceUnavailable, apiError{Error: msg})
}

// handleReplSessions lists the durable sessions a follower should
// replicate: the boot manifest, verbatim — key plus the declaration
// the follower re-prepares to get the identical deterministic base
// (a manifestEntry is a repl.RemoteSession on the wire).
func (s *Server) handleReplSessions(w http.ResponseWriter, r *http.Request) {
	ents, err := s.reg.durable.loadManifest()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, append([]manifestEntry{}, ents...))
}

// handleReplAck records a follower's progress report. The body is
// bounded and the (session, relation) must resolve: the endpoint is
// open to anyone who can reach the daemon.
func (s *Server) handleReplAck(w http.ResponseWriter, r *http.Request) {
	var req repl.AckRequest
	if err := decode(r, &req); err != nil {
		s.writeResult(w, nil, err)
		return
	}
	if err := s.hub.RecordAck(req.Follower, req.Session, req.Relation, req.Applied, req.Reconnects, req.Resyncs); err != nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
		return
	}
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
	if s.cfg.FollowPrimary == "" {
		return fmt.Errorf("serve: StartFollower on a server with no FollowPrimary")
	}
	if s.follower != nil {
		return fmt.Errorf("serve: follower already started")
	}
	if pollEvery <= 0 {
		pollEvery = 30 * time.Second
	}
	now := time.Now().UnixNano()
	s.follower = repl.NewFollower(repl.Options{
		Primary:    s.cfg.FollowPrimary,
		Client:     s.cfg.ReplClient,
		FollowerID: fmt.Sprintf("follower-%d", now%1e9),
		Heartbeat:  s.cfg.ReplHeartbeat,
		Seed:       uint64(now),
	})
	for _, e := range s.reg.warm() {
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

// syncFollowTargets pulls the primary's session list and prepares +
// follows anything new. Failures are swallowed (the ticker retries):
// a follower must boot, serve its restored state, and wait out a dead
// primary.
func (s *Server) syncFollowTargets() {
	client := s.cfg.ReplClient
	if client == nil {
		client = http.DefaultClient
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sessions, err := repl.FetchSessions(ctx, client, s.cfg.FollowPrimary)
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
// would orphan them) and registers one replication target per relation,
// each writing through the entry's ingest — which is what keeps a
// sibling's frame apply from interleaving with a Refresh of the shared
// session.
func (s *Server) followEntry(e *Entry) {
	e.pinned.Store(true)
	for name, rel := range e.Rels {
		s.follower.Add(repl.Target{Session: e.Key, Relation: name, Rel: rel, Sink: relSink{e.ingest, name}})
	}
}
