package relation

import "fmt"

// SnapshotData is one relation snapshot lifted out of the storage
// layer for serialization: the column vectors, tombstone bitset, row
// counts, and the mutation version the contents reflect. The slices
// alias live storage (columns are immutable up to Rows; the dead
// bitset is copy-on-write), so a SnapshotData is safe to read
// concurrently with further mutations — exactly what lets a checkpoint
// serialize without stalling ingest. Treat every slice as read-only.
type SnapshotData struct {
	Cols    [][]Value
	Rows    int
	Live    int
	Dead    []uint64
	Version uint64
}

// IsLive reports whether row i (0 <= i < Rows) was live at the snapshot.
func (sd SnapshotData) IsLive(i int) bool {
	s := snapshot{dead: sd.Dead}
	return s.isLive(i)
}

// CaptureSnapshot returns the published snapshot paired atomically
// with the version it reflects.
func (r *Relation) CaptureSnapshot() SnapshotData {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.snap.Load()
	return SnapshotData{
		Cols:    s.cols,
		Rows:    s.rows,
		Live:    s.live,
		Dead:    s.dead,
		Version: r.version.Load(),
	}
}

// RestoreSnapshot replaces the relation's contents and version with a
// previously captured (typically checkpoint-deserialized) snapshot,
// dropping cached indexes and the mutation log so every derived
// structure rebuilds from the restored state. It is the recovery
// entry point: restore the newest checkpoint, then replay the WAL tail
// past sd.Version through the ordinary mutation path.
func (r *Relation) RestoreSnapshot(sd SnapshotData) error {
	if len(sd.Cols) != r.schema.Len() {
		return fmt.Errorf("relation %s: snapshot arity %d, want %d", r.name, len(sd.Cols), r.schema.Len())
	}
	live := 0
	for a, c := range sd.Cols {
		if len(c) != sd.Rows {
			return fmt.Errorf("relation %s: snapshot column %d has %d rows, want %d", r.name, a, len(c), sd.Rows)
		}
	}
	s := &snapshot{cols: sd.Cols, rows: sd.Rows, dead: sd.Dead, live: sd.Live}
	for i := 0; i < sd.Rows; i++ {
		if s.isLive(i) {
			live++
		}
	}
	if live != sd.Live {
		return fmt.Errorf("relation %s: snapshot live count %d disagrees with bitset (%d)", r.name, sd.Live, live)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.snap.Store(s)
	r.version.Store(sd.Version)
	r.indexes.Store(nil)
	r.log = nil
	r.logOn = false
	return nil
}
