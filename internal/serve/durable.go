package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"sampleunion/internal/wal"
)

// durableStore is the serving layer's durability root: one
// wal.RelationLog per (registry key, relation) under
//
//	root/sessions/<key>/<relation>/{wal,checkpoint}
//
// plus root/manifest.json, the registry manifest listing every durable
// declaration so a rebooted daemon can re-Prepare them and come up
// warm. Base data is rebuilt deterministically from the declaration on
// every boot; the WAL and checkpoints carry only wire-level mutations
// on top of it. The store opens and closes the logs and counts what
// happens to them; each entry's ingest decides when to commit and
// checkpoint.
type durableStore struct {
	root string
	opts wal.RelationLogOptions

	mu      sync.Mutex
	entries map[string]*ingest // entries holding open logs, by registry key

	commits         atomic.Int64
	commitErrors    atomic.Int64
	checkpoints     atomic.Int64
	checkpointErrs  atomic.Int64
	recoveredMuts   atomic.Int64
	restoredEntries atomic.Int64
}

func newDurableStore(root string, opts wal.RelationLogOptions) *durableStore {
	return &durableStore{root: root, opts: opts, entries: make(map[string]*ingest)}
}

// relDirName maps a relation name to a directory entry. Workload and
// spec relation names are identifiers, which pass through readably;
// anything else falls back to a hex encoding so no name can escape its
// directory.
func relDirName(name string) string {
	safe := name != ""
	for _, r := range name {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_' || r == '-' || r == '.' {
			continue
		}
		safe = false
		break
	}
	if safe && name != "." && name != ".." {
		return name
	}
	return fmt.Sprintf("x%x", name)
}

// recover opens (restoring checkpoint + WAL state into) the log of
// every relation of a freshly built entry, whose relations must hold
// exactly their deterministic base contents, and reports how many
// mutations came back: > 0 means the entry carries wire-level state
// beyond its declaration. The sinks are NOT attached yet (see
// newIngest).
func (d *durableStore) recover(in *ingest) (recovered int, err error) {
	in.logs = make(map[string]*wal.RelationLog, len(in.rels))
	names := make([]string, 0, len(in.rels))
	for name := range in.rels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		dir := filepath.Join(d.root, "sessions", in.key, relDirName(name))
		rl, err := wal.OpenRelationLog(dir, in.rels[name], d.opts)
		if err != nil {
			in.closeLogs()
			return 0, fmt.Errorf("serve: recovering relation %q: %w", name, err)
		}
		in.logs[name] = rl
		recovered += rl.Recovered()
	}
	d.recoveredMuts.Add(int64(recovered))
	d.mu.Lock()
	d.entries[in.key] = in
	d.mu.Unlock()
	return recovered, nil
}

// release closes an evicted entry's durability state. Its WAL and
// checkpoints stay on disk; a later Get for the key recovers them. An
// append racing the eviction fails its commit (the closed log is
// sticky) instead of acking undurable work.
func (d *durableStore) release(key string) {
	d.mu.Lock()
	in := d.entries[key]
	delete(d.entries, key)
	d.mu.Unlock()
	if in != nil {
		in.closeLogs()
	}
}

// closeAll releases every open entry (clean shutdown): final flush +
// fsync per WAL, so even SyncNever state is on disk when the process
// exits on purpose.
func (d *durableStore) closeAll() {
	d.mu.Lock()
	entries := d.entries
	d.entries = make(map[string]*ingest)
	d.mu.Unlock()
	for _, in := range entries {
		in.closeLogs()
	}
}

// open reports how many entries hold open durability state.
func (d *durableStore) open() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries)
}

// manifest is the persisted registry: every declaration holding
// durable state, re-Prepared on boot so the daemon restarts warm.
type manifest struct {
	Entries []manifestEntry `json:"entries"`
}

type manifestEntry struct {
	Key  string    `json:"key"`
	Decl UnionDecl `json:"decl"`
}

func (d *durableStore) manifestPath() string { return filepath.Join(d.root, "manifest.json") }

func (d *durableStore) loadManifest() ([]manifestEntry, error) {
	raw, err := os.ReadFile(d.manifestPath())
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("serve: parsing %s: %w", d.manifestPath(), err)
	}
	return m.Entries, nil
}

// rememberDecl records a declaration in the manifest (idempotent).
func (d *durableStore) rememberDecl(key string, decl UnionDecl) error {
	return d.editManifest(func(m *manifest) {
		for _, e := range m.Entries {
			if e.Key == key {
				return
			}
		}
		m.Entries = append(m.Entries, manifestEntry{Key: key, Decl: decl})
	})
}

// forgetDecl drops a declaration from the manifest (eviction: the
// state stays on disk but is no longer restored at boot).
func (d *durableStore) forgetDecl(key string) error {
	return d.editManifest(func(m *manifest) {
		kept := m.Entries[:0]
		for _, e := range m.Entries {
			if e.Key != key {
				kept = append(kept, e)
			}
		}
		m.Entries = kept
	})
}

func (d *durableStore) editManifest(edit func(*manifest)) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	// A corrupt or unreadable manifest costs warm restarts, not data;
	// start a fresh one rather than wedging ingest.
	var m manifest
	m.Entries, _ = d.loadManifest()
	edit(&m)
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return wal.WriteFileAtomic(d.manifestPath(), func(w io.Writer) error {
		_, err := w.Write(append(raw, '\n'))
		return err
	})
}

// DurabilitySnapshot is the /metrics durability gauge set.
type DurabilitySnapshot struct {
	// Policy is the configured fsync policy.
	Policy string `json:"policy"`
	// OpenEntries counts registry entries with open durability state.
	OpenEntries int `json:"open_entries"`
	// Commits / CommitErrors count acked-durable append batches and
	// refused acks.
	Commits      int64 `json:"commits"`
	CommitErrors int64 `json:"commit_errors"`
	// Checkpoints / CheckpointErrors count snapshot checkpoints.
	Checkpoints      int64 `json:"checkpoints"`
	CheckpointErrors int64 `json:"checkpoint_errors"`
	// RecoveredMutations counts mutations restored from checkpoint+WAL
	// across all opens since boot; RestoredSessions counts sessions
	// re-prepared from the manifest at boot.
	RecoveredMutations int64 `json:"recovered_mutations"`
	RestoredSessions   int64 `json:"restored_sessions"`
}

func (d *durableStore) snapshot() DurabilitySnapshot {
	return DurabilitySnapshot{
		Policy:             d.opts.Policy.String(),
		OpenEntries:        d.open(),
		Commits:            d.commits.Load(),
		CommitErrors:       d.commitErrors.Load(),
		Checkpoints:        d.checkpoints.Load(),
		CheckpointErrors:   d.checkpointErrs.Load(),
		RecoveredMutations: d.recoveredMuts.Load(),
		RestoredSessions:   d.restoredEntries.Load(),
	}
}
