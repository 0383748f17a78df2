package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"sampleunion/internal/relation"
)

// RelationLogOptions tunes a RelationLog.
type RelationLogOptions struct {
	Options
	// CheckpointEvery checkpoints after that many mutations past the
	// last checkpoint (0 disables automatic checkpoints).
	CheckpointEvery int
}

// RelationLog is one relation's durability state: a WAL the relation's
// mutations tee into (via relation.MutationSink) plus rolling snapshot
// checkpoints, laid out as dir/wal/*.wal and dir/checkpoint/*.ckpt.
//
// Open recovers: it restores the newest valid checkpoint (falling back
// to the next-newest on corruption) and replays the WAL tail past it
// through the relation's ordinary Append/Delete path, then serving
// code calls Attach to start teeing new mutations. The WAL seq of a
// record is the relation version it produced, so replay is gap-checked
// against Version() exactly.
type RelationLog struct {
	rel *relation.Relation
	dir string
	log *Log
	opt RelationLogOptions

	mu        sync.Mutex
	sinkErr   error          // first Append failure, surfaced by Commit
	ckptVers  []uint64       // retained checkpoint versions, ascending
	lastCkpt  uint64         // version the newest checkpoint covers (or base)
	buf       []byte         // encode scratch; LogMutation is serialized by rel.mu
	recovered int            // mutations replayed or restored at Open
	floor     uint64         // versions <= floor are not streamable from this WAL
	tags      map[string]int // idempotency tags recovered from the WAL → rows
}

const ckptSuffix = ".ckpt"

// OpenRelationLog opens (recovering if state exists) the durability
// state for rel under dir. rel must hold its deterministic base
// contents — the same contents every boot builds — so that restored
// versions line up.
func OpenRelationLog(dir string, rel *relation.Relation, opt RelationLogOptions) (*RelationLog, error) {
	rl := &RelationLog{rel: rel, dir: dir, opt: opt}
	base := rel.Version()
	if err := rl.restoreCheckpoint(); err != nil {
		return nil, err
	}
	log, err := Open(filepath.Join(dir, "wal"), opt.Options)
	if err != nil {
		return nil, err
	}
	rl.log = log
	// Records at or below the restored version were never verified
	// contiguous by this open; replication streams must not start
	// below it (resync from a snapshot instead).
	rl.floor = rel.Version()
	if err := rl.replay(); err != nil {
		log.Close()
		return nil, err
	}
	if rl.lastCkpt == 0 {
		rl.lastCkpt = rel.Version()
	}
	rl.recovered = int(rel.Version() - base)
	if rl.recovered < 0 {
		log.Close()
		return nil, fmt.Errorf("wal: %s: recovered version %d below base %d", rel.Name(), rel.Version(), base)
	}
	return rl, nil
}

// restoreCheckpoint loads the newest checkpoint that validates,
// removing corrupt newer ones.
func (rl *RelationLog) restoreCheckpoint() error {
	dir := filepath.Join(rl.dir, "checkpoint")
	vers, err := seqFiles(dir, ckptSuffix)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	for len(vers) > 0 {
		v := vers[len(vers)-1]
		path := filepath.Join(dir, ckptName(v))
		sd, err := ReadCheckpoint(path, rl.rel.Arity())
		if err != nil {
			// A torn or corrupt checkpoint (crash mid-write cannot
			// produce one, but disks can): discard and fall back to
			// the previous — the WAL retained past it covers the gap.
			os.Remove(path)
			vers = vers[:len(vers)-1]
			continue
		}
		if err := rl.rel.RestoreSnapshot(sd); err != nil {
			return err
		}
		rl.ckptVers = vers
		rl.lastCkpt = v
		return nil
	}
	return nil
}

// replay applies every WAL record past the relation's current version,
// verifying the seq chain is exactly the version chain. Recovery is
// strict: a record whose versions are already present means duplicated
// history on disk, which is corruption, not idempotence. Idempotency
// tags found in tagged batch records are collected for the serving
// layer's dedupe table.
func (rl *RelationLog) replay() error {
	rel := rl.rel
	return rl.log.Replay(rel.Version(), func(seq uint64, payload []byte) error {
		out, err := ApplyRecord(rel, seq, payload)
		if err != nil {
			return err
		}
		if !out.Applied {
			return fmt.Errorf("wal: %s: record %d duplicates applied history (version %d)", rel.Name(), seq, rel.Version())
		}
		if out.Tag != "" {
			if rl.tags == nil {
				rl.tags = make(map[string]int)
			}
			rl.tags[out.Tag] += out.Rows
		}
		return nil
	})
}

// RecoveredTags returns the idempotency tags found in the replayed WAL
// tail, mapped to the row count each tag covered. The dedupe window a
// restart preserves is exactly the WAL retention window: tags whose
// records were truncated by checkpointing are gone.
func (rl *RelationLog) RecoveredTags() map[string]int { return rl.tags }

// Attach registers the log as the relation's mutation sink; every
// later mutation is teed into the WAL before its ack can be committed.
func (rl *RelationLog) Attach() { rl.rel.SetMutationSink(rl) }

// Recovered reports the number of mutations restored at Open (from
// checkpoint and WAL together, measured in relation versions).
func (rl *RelationLog) Recovered() int { return rl.recovered }

// LogMutation implements relation.MutationSink: encode and append. It
// runs under the relation's mutation lock, so failures are parked and
// surfaced by the Commit that must precede any ack.
func (rl *RelationLog) LogMutation(version uint64, m relation.Mutation) {
	rl.buf = AppendMutation(rl.buf[:0], m)
	rl.park(rl.log.Append(version, rl.buf))
}

// park keeps the first tee failure for Commit to surface.
func (rl *RelationLog) park(err error) {
	if err == nil {
		return
	}
	rl.mu.Lock()
	if rl.sinkErr == nil {
		rl.sinkErr = err
	}
	rl.mu.Unlock()
}

// batchChunkRows bounds rows per batched-append record so no record can
// approach maxRecordLen at any sane arity (2^16 rows × arity × 8 bytes).
const batchChunkRows = 1 << 16

// LogAppendBatch implements the bulk side of relation.MutationSink: one
// WAL record per batch (chunked only far beyond any wire-level batch
// size), encoded in place inside the WAL's write buffer straight from
// the published column vectors. The frame's seq is the version after
// the chunk's last row, which replay checks for exact contiguity. A
// non-empty idempotency tag switches the record to the tagged batch
// kind, so the tag rides the WAL into recovery and replication.
func (rl *RelationLog) LogAppendBatch(version uint64, start, n int, cols [][]relation.Value, tag string) {
	if len(tag) >= maxIdemKeyLen {
		tag = tag[:maxIdemKeyLen-1]
	}
	for off := 0; off < n; off += batchChunkRows {
		c := n - off
		if c > batchChunkRows {
			c = batchChunkRows
		}
		s := start + off
		seq := version - uint64(n-off-c)
		err := rl.log.AppendReserve(seq, batchRecordLen(tag, c, len(cols)), func(dst []byte) {
			encodeBatchRecord(dst, tag, s, c, cols)
		})
		if err != nil {
			rl.park(err)
			return
		}
	}
}

// Commit makes every teed mutation durable per the sync policy. Serving
// code calls it after the in-memory mutation and before acking; a
// failure here means the ack must not be sent.
func (rl *RelationLog) Commit() error {
	rl.mu.Lock()
	err := rl.sinkErr
	rl.mu.Unlock()
	if err != nil {
		return err
	}
	return rl.log.Commit()
}

func ckptName(version uint64) string {
	return fmt.Sprintf("%016x%s", version, ckptSuffix)
}

// Checkpoint persists the relation's published snapshot, retains the
// two newest checkpoints, and truncates WAL segments the older of the
// two makes redundant (keeping one generation of slack so a corrupt
// newest checkpoint still recovers).
func (rl *RelationLog) Checkpoint() error {
	sd := rl.rel.CaptureSnapshot()
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if len(rl.ckptVers) > 0 && rl.ckptVers[len(rl.ckptVers)-1] == sd.Version {
		return nil
	}
	dir := filepath.Join(rl.dir, "checkpoint")
	if err := WriteCheckpoint(filepath.Join(dir, ckptName(sd.Version)), sd); err != nil {
		return err
	}
	rl.ckptVers = append(rl.ckptVers, sd.Version)
	for len(rl.ckptVers) > 2 {
		if err := os.Remove(filepath.Join(dir, ckptName(rl.ckptVers[0]))); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("wal: %w", err)
		}
		rl.ckptVers = rl.ckptVers[1:]
	}
	rl.lastCkpt = sd.Version
	if len(rl.ckptVers) == 2 {
		if rl.ckptVers[0] > rl.floor {
			// Truncation removes records <= the older checkpoint; a
			// stream can no longer start below it.
			rl.floor = rl.ckptVers[0]
		}
		return rl.log.TruncateThrough(rl.ckptVers[0])
	}
	return nil
}

// StreamFrom opens a streaming cursor over the relation's WAL frames
// with seq > after (see Log.StreamFrom).
func (rl *RelationLog) StreamFrom(after uint64) *StreamCursor { return rl.log.StreamFrom(after) }

// StreamFloor is the lowest version a replication stream may start
// from: records at or below it were either never verified by this open
// or truncated away by checkpointing, so a follower behind the floor
// must resync from a snapshot instead.
func (rl *RelationLog) StreamFloor() uint64 {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return rl.floor
}

// WALLastSeq reports the highest seq the WAL holds (see Log.LastSeq).
func (rl *RelationLog) WALLastSeq() uint64 { return rl.log.LastSeq() }

// MaybeCheckpoint checkpoints when CheckpointEvery mutations have
// accumulated past the last checkpoint, reporting whether it did.
func (rl *RelationLog) MaybeCheckpoint() (bool, error) {
	if rl.opt.CheckpointEvery <= 0 {
		return false, nil
	}
	rl.mu.Lock()
	due := rl.rel.Version()-rl.lastCkpt >= uint64(rl.opt.CheckpointEvery)
	rl.mu.Unlock()
	if !due {
		return false, nil
	}
	err := rl.Checkpoint()
	return err == nil, err
}

// Close detaches the sink and closes the WAL. In-flight mutations that
// raced the detach fail their Commit (sticky ErrClosed) rather than
// ack silently undurable work.
func (rl *RelationLog) Close() error {
	rl.rel.SetMutationSink(nil)
	return rl.log.Close()
}
