package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sampleunion"
	"sampleunion/internal/relation"
	"sampleunion/internal/repl"
	"sampleunion/internal/wal"
)

// ingest is one registry entry's write side: the only code that puts
// rows into the entry's relations, and the single owner of the order
// every way in must keep —
//
//	apply → commit → record idempotency key → wake followers →
//	Refresh → maybe checkpoint
//
// — all under appendMu. There is one method per way rows arrive: a wire
// append on a primary (append), a replicated frame, flush and resync
// snapshot on a follower (applyRecord, flush, restoreSnapshot), and an
// explicit /refresh (refresh). Nothing outside this type takes the lock
// or calls Commit, Checkpoint or Session.Refresh.
type ingest struct {
	key  string
	sess *sampleunion.Session
	rels map[string]*relation.Relation

	// store and logs are the durable side: one WAL + checkpoint set per
	// relation, committed before any ack, so wire-level mutations
	// survive both eviction and restarts. Both are nil on a memory-only
	// server, where appends die with the entry.
	store *durableStore
	logs  map[string]*wal.RelationLog
	// hub, when this server feeds followers, is woken after each commit
	// so a woken stream always finds the frames on disk.
	hub *repl.Hub

	// appendMu orders apply→Refresh pairs so two concurrent writers —
	// wire appends, sibling relations' replicated frames, an explicit
	// /refresh — cannot interleave a Refresh (which re-reads every
	// relation of the session) with another's apply. Draws never take
	// it; they read the session's current generation lock-free.
	appendMu sync.Mutex

	// idem dedupes committed append batches by Idempotency-Key; with
	// durability on it is seeded from tagged WAL records at recovery,
	// so dedupe survives a restart.
	idem idemTable

	// mutated records that the relations hold rows beyond their
	// declaration. The registry is a cache over declarations —
	// re-preparing an evicted key regenerates the declared data — so
	// eviction prefers unmutated entries; see insertLocked.
	mutated atomic.Bool
}

// newIngest builds an entry's write side around freshly built
// relations, in the one order that is safe: recover (the relations hold
// their deterministic base contents; checkpoint + WAL replay layers the
// persisted mutations on top) → prepare (warm-up runs over the
// recovered state and, the sinks not being attached yet, writes nothing
// to the log) → attach → seed the dedupe table from the idempotency
// tags replay surfaced, so a client retrying across a restart still
// dedupes within the WAL retention window → boot manifest.
func (r *Registry) newIngest(key string, decl UnionDecl, u *sampleunion.Union, rels map[string]*relation.Relation) (*ingest, error) {
	in := &ingest{key: key, rels: rels, store: r.durable, hub: r.hub}
	recovered := 0
	if in.store != nil {
		var err error
		if recovered, err = in.store.recover(in); err != nil {
			return nil, err
		}
	}
	r.prepares.Add(1)
	sess, err := u.Prepare(decl.Options)
	if err != nil {
		in.release()
		return nil, err
	}
	in.sess = sess
	in.mutated.Store(recovered > 0)
	for name, rl := range in.logs {
		rl.Attach()
		for tag, n := range rl.RecoveredTags() {
			in.idem.record(name, tag, n)
		}
	}
	if in.store != nil {
		if err := in.store.rememberDecl(key, decl.normalize()); err != nil {
			in.release()
			return nil, err
		}
	}
	return in, nil
}

// release closes the entry's durable state (a no-op when memory-only).
func (in *ingest) release() {
	if in.store != nil {
		in.store.release(in.key)
	}
}

func (in *ingest) closeLogs() {
	for _, rl := range in.logs {
		rl.Close()
	}
}

// commit makes the named relation's teed mutations durable; nothing may
// be acked — to a client or upstream — unless it succeeds.
func (in *ingest) commit(name string) error {
	if in.store == nil {
		return nil
	}
	if err := in.logs[name].Commit(); err != nil {
		in.store.commitErrors.Add(1)
		return err
	}
	in.store.commits.Add(1)
	return nil
}

// maybeCheckpoint checkpoints the named relation when due.
func (in *ingest) maybeCheckpoint(name string) {
	if in.store == nil {
		return
	}
	did, err := in.logs[name].MaybeCheckpoint()
	if err != nil {
		in.store.checkpointErrs.Add(1)
	} else if did {
		in.store.checkpoints.Add(1)
	}
}

// append is the wire path: rows a client POSTed to a primary. A batch
// whose idempotency key already committed (possibly before a restart)
// is re-acked without touching the relation.
func (in *ingest) append(name string, rows []relation.Tuple, idemKey string) (appendResponse, error) {
	in.appendMu.Lock()
	defer in.appendMu.Unlock()
	durable := in.store != nil
	if idemKey != "" {
		if n, ok := in.idem.lookup(name, idemKey); ok {
			return appendResponse{Appended: n, Durable: durable, Deduped: true, UnionSize: in.sess.UnionSize()}, nil
		}
	}
	in.rels[name].AppendRowsTagged(rows, idemKey)
	in.mutated.Store(true)
	// The rows were teed into the WAL as AppendRows ran; make them
	// durable before the 200. A commit failure refuses the ack — the
	// rows sit in memory but the client must not treat them as accepted
	// (the response says so explicitly, since a retry after a restart is
	// safe and a retry against this process would duplicate them).
	if err := in.commit(name); err != nil {
		return appendResponse{}, fmt.Errorf("serve: append of %d rows to %q not durable: %v (rows are in memory only; do not retry against this process)", len(rows), name, err)
	}
	if idemKey != "" {
		// Record only after the commit: a refused ack must leave the key
		// free so the client's retry is not answered from a batch that
		// never became durable.
		in.idem.record(name, idemKey, len(rows))
	}
	if in.hub != nil {
		in.hub.Wake(in.key, name)
	}
	resp := appendResponse{Appended: len(rows), Refreshed: true, Durable: durable}
	if err := in.sess.Refresh(); err != nil {
		// The rows are committed; a 500 here would invite a retry that
		// duplicates them. Report the partial outcome instead.
		resp.Refreshed = false
		resp.RefreshError = err.Error()
	}
	resp.UnionSize = in.sess.UnionSize()
	in.maybeCheckpoint(name)
	return resp, nil
}

// refresh is an explicit /refresh, reporting whether there was anything
// to fold in.
func (in *ingest) refresh() (stale bool, err error) {
	in.appendMu.Lock()
	defer in.appendMu.Unlock()
	stale = in.sess.Stale()
	return stale, in.sess.Refresh()
}

// applyRecord applies one replicated WAL record. The relation's sink
// tees it into the follower's own WAL as it applies (chained
// durability); flush commits it.
func (in *ingest) applyRecord(name string, seq uint64, payload []byte) (wal.ApplyOutcome, error) {
	in.appendMu.Lock()
	defer in.appendMu.Unlock()
	return wal.ApplyRecord(in.rels[name], seq, payload)
}

// flush ends a run of applied records: commit, then Refresh — the same
// order append keeps, minus the steps only a primary has.
func (in *ingest) flush(name string) error {
	in.appendMu.Lock()
	defer in.appendMu.Unlock()
	if err := in.commit(name); err != nil {
		return err
	}
	in.mutated.Store(true)
	return in.sess.Refresh()
}

// restoreSnapshot is a follower's resync: replace the relation's
// contents, checkpoint at once so the follower's own WAL chain is
// anchored on the restored version, then Refresh.
func (in *ingest) restoreSnapshot(name string, sd relation.SnapshotData) error {
	in.appendMu.Lock()
	defer in.appendMu.Unlock()
	if err := in.rels[name].RestoreSnapshot(sd); err != nil {
		return err
	}
	if in.store != nil {
		if err := in.logs[name].Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint after resync: %w", err)
		}
	}
	in.mutated.Store(true)
	return in.sess.Refresh()
}

// relSink is one relation's handle on its entry's ingest: the
// repl.Sink a follower's replicator writes through.
type relSink struct {
	in   *ingest
	name string
}

func (s relSink) ApplyRecord(seq uint64, payload []byte) (wal.ApplyOutcome, error) {
	return s.in.applyRecord(s.name, seq, payload)
}
func (s relSink) Flush() error { return s.in.flush(s.name) }
func (s relSink) RestoreSnapshot(sd relation.SnapshotData) error {
	return s.in.restoreSnapshot(s.name, sd)
}
