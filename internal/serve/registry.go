package serve

import (
	"container/list"
	"encoding/json"
	"sync"
	"sync/atomic"

	"sampleunion"
	"sampleunion/internal/relation"
	"sampleunion/internal/repl"
)

// Entry is one warm union in the registry: the prepared session, the
// executable union, and the live relations the session draws from
// (the append endpoint's targets). Entries are self-contained — an
// entry evicted from the registry keeps serving the requests already
// holding it and is collected when the last one finishes.
type Entry struct {
	Key   string
	Sess  *sampleunion.Session
	Union *sampleunion.Union
	Rels  map[string]*relation.Relation

	// Dict interns string columns of spec-declared entries (nil for
	// workload entries, whose generators emit integers directly); its
	// size is a /metrics storage gauge.
	Dict *relation.Dictionary

	// schemaJSON is the session's output schema as /sample replies spell
	// it, marshalled once.
	schemaJSON []byte

	hits atomic.Int64

	// ingest is the entry's write side — the lock, the WALs, the dedupe
	// table and the mutated flag. Every row that reaches Rels goes
	// through one of its methods.
	*ingest

	// pinned exempts the entry from LRU eviction. Replication
	// followers pin what they replicate: a replicator holds the
	// entry's relations, and evicting them would split the state it
	// applies frames to from the state draws read.
	pinned atomic.Bool
}

// flight is one in-progress warm-up; concurrent requests for the same
// key block on done and share the outcome.
type flight struct {
	done chan struct{}
	e    *Entry
	err  error
}

// Registry maps canonical (union, options) keys to warm sessions. Each
// key's warm-up runs exactly once no matter how many requests race on
// a cold key (singleflight); warm entries are recycled in LRU order
// once Cap is exceeded.
type Registry struct {
	dataDir string
	cap     int

	// durable, when non-nil, recovers and persists every entry's
	// wire-level mutations (see durableStore), and hub, when non-nil,
	// streams them to followers; both are set by serve.New and handed to
	// each entry's ingest.
	durable *durableStore
	hub     *repl.Hub

	mu      sync.Mutex
	entries map[string]*list.Element // value: *Entry
	lru     *list.List               // front = most recently used
	flights map[string]*flight
	// keys remembers the registry key of declarations already
	// fingerprinted, so a repeated declaration — every request of a
	// steady client — skips validate/normalize/canonicalize/hash. Only
	// successful keys of declarations whose Spec is at most
	// maxCachedSpecBytes are kept, and the map is dropped whole when it
	// passes keyCacheFactor × cap, so a flood of distinct or very large
	// declarations costs what it did without the map.
	keys map[UnionDecl]string

	prepares  atomic.Int64 // warm-ups actually run
	hits      atomic.Int64 // lookups served by a warm entry
	coalesced atomic.Int64 // lookups that waited on another's warm-up
	evictions atomic.Int64
}

// RegistryStats is a point-in-time counter snapshot.
type RegistryStats struct {
	Sessions  int   `json:"sessions"`
	Capacity  int   `json:"capacity"`
	Prepares  int64 `json:"prepares"`
	Hits      int64 `json:"hits"`
	Coalesced int64 `json:"coalesced"`
	Evictions int64 `json:"evictions"`
}

// NewRegistry returns a registry holding at most cap warm sessions
// (minimum 1). dataDir anchors inline-spec CSV references; empty
// rejects spec declarations.
func NewRegistry(dataDir string, cap int) *Registry {
	if cap < 1 {
		cap = 1
	}
	return &Registry{
		dataDir: dataDir,
		cap:     cap,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
		flights: make(map[string]*flight),
		keys:    make(map[UnionDecl]string),
	}
}

// keyCacheFactor sizes Registry.keys relative to the session capacity:
// several spellings of one declaration share a key, so the map may hold
// a few per warm session.
const keyCacheFactor = 4

// maxCachedSpecBytes bounds the Spec of a declaration Registry.keys
// remembers: the map key embeds the Spec text (up to maxBodyBytes on the
// wire) and every lookup hashes it under the registry lock, so with the
// entry bound this caps the map at keyCacheFactor × cap × 4 KiB.
const maxCachedSpecBytes = 4 << 10

// Get resolves a declaration to its warm entry, preparing it if this
// is the first request for the key. Concurrent first requests share
// one warm-up: exactly one goroutine builds and prepares, the rest
// block until it finishes and reuse (or share the error of) its
// outcome.
func (r *Registry) Get(decl UnionDecl) (*Entry, error) {
	cached := len(decl.Spec) <= maxCachedSpecBytes
	r.mu.Lock()
	key, ok := "", false
	if cached {
		key, ok = r.keys[decl]
	}
	if !ok {
		r.mu.Unlock()
		var err error
		if key, err = decl.Key(); err != nil {
			return nil, err
		}
		r.mu.Lock()
		if cached {
			if len(r.keys) >= keyCacheFactor*r.cap {
				clear(r.keys)
			}
			r.keys[decl] = key
		}
	}
	if el, ok := r.entries[key]; ok {
		r.lru.MoveToFront(el)
		r.mu.Unlock()
		e := el.Value.(*Entry)
		e.hits.Add(1)
		r.hits.Add(1)
		return e, nil
	}
	if f, ok := r.flights[key]; ok {
		r.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, f.err
		}
		r.coalesced.Add(1)
		f.e.hits.Add(1)
		return f.e, nil
	}
	f := &flight{done: make(chan struct{})}
	r.flights[key] = f
	r.mu.Unlock()

	f.e, f.err = r.prepare(key, decl)

	r.mu.Lock()
	delete(r.flights, key)
	if f.err == nil {
		r.insertLocked(key, f.e)
	}
	r.mu.Unlock()
	close(f.done)
	if f.err != nil {
		return nil, f.err
	}
	f.e.hits.Add(1)
	return f.e, nil
}

// prepare builds the union and pays the warm-up — the expensive part,
// run outside the registry lock. The entry's ingest does the warm-up
// itself, because with durability on recovery has to slot in between
// build and warm-up (see newIngest).
func (r *Registry) prepare(key string, decl UnionDecl) (*Entry, error) {
	u, rels, dict, err := decl.build(r.dataDir)
	if err != nil {
		return nil, err
	}
	in, err := r.newIngest(key, decl, u, rels)
	if err != nil {
		return nil, err
	}
	schema, _ := json.Marshal(in.sess.OutputSchema().Attrs()) // a []string always marshals
	return &Entry{Key: key, Sess: in.sess, Union: u, Rels: rels, Dict: dict, schemaJSON: schema, ingest: in}, nil
}

// insertLocked publishes a fresh entry and evicts past capacity;
// callers hold r.mu.
func (r *Registry) insertLocked(key string, e *Entry) {
	if el, ok := r.entries[key]; ok {
		// A concurrent Get raced this flight to the same key (possible
		// only across an eviction); keep the existing entry current.
		r.lru.MoveToFront(el)
		return
	}
	r.entries[key] = r.lru.PushFront(e)
	for r.lru.Len() > r.cap {
		// Wire-level appends live only as long as their entry, so
		// recycle the least-recently-used clean entry first; a mutated
		// one goes only when every older entry is mutated (capacity is
		// a hard bound for unpinned entries). Pinned entries (targets a
		// replication follower holds) are never evicted, even past
		// capacity. The just-inserted front entry is never the victim.
		var victim *list.Element
		for el := r.lru.Back(); el != nil && el != r.lru.Front(); el = el.Prev() {
			en := el.Value.(*Entry)
			if en.pinned.Load() {
				continue
			}
			if victim == nil {
				victim = el
			}
			if !en.mutated.Load() {
				victim = el
				break
			}
		}
		if victim == nil {
			break
		}
		old := victim.Value.(*Entry)
		r.lru.Remove(victim)
		delete(r.entries, old.Key)
		r.evictions.Add(1)
		if r.durable != nil {
			// Close the victim's WAL (an in-flight append racing the
			// eviction fails its commit rather than ack undurable
			// work) and drop it from the boot manifest; its on-disk
			// state stays, so a later Get recovers the mutations.
			r.durable.release(old.Key)
			// A failed forget means the next boot restores an evicted
			// session — warm-RAM overshoot, not data loss.
			_ = r.durable.forgetDecl(old.Key)
		}
	}
}

// Lookup returns the warm entry for a key without preparing anything,
// for introspection and tests.
func (r *Registry) Lookup(key string) (*Entry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.entries[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*Entry), true
}

// RelationStorage is one relation's storage gauge set: row counts, the
// bytes each column vector pins (capacity, not just length — the number
// a footprint regression shows up in) and the attributes that have an
// index built, which every append then maintains, with the bytes each
// index holds.
type RelationStorage struct {
	Rows       int              `json:"rows"`
	LiveRows   int              `json:"live_rows"`
	Bytes      int64            `json:"bytes"`
	ColBytes   map[string]int64 `json:"col_bytes"`
	Indexes    []string         `json:"indexes"`
	IndexBytes map[string]int64 `json:"index_bytes"`
}

// EntryStorage groups one warm entry's storage gauges: its relations,
// the bytes each join's membership sets hold, and the interning
// dictionary size (spec entries only).
type EntryStorage struct {
	Relations   map[string]RelationStorage `json:"relations"`
	MemberBytes map[string]int64           `json:"member_bytes"`
	DictLen     int                        `json:"dict_len,omitempty"`
}

// warm lists the warm entries, most recently used first. Callers work
// on the entries outside the registry lock.
func (r *Registry) warm() []*Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	entries := make([]*Entry, 0, r.lru.Len())
	for el := r.lru.Front(); el != nil; el = el.Next() {
		entries = append(entries, el.Value.(*Entry))
	}
	return entries
}

// StorageSnapshot reports per-relation storage gauges for every warm
// entry, keyed by registry key. Gauges are read off immutable relation
// snapshots, so only the entry listing holds the registry lock.
func (r *Registry) StorageSnapshot() map[string]EntryStorage {
	entries := r.warm()
	out := make(map[string]EntryStorage, len(entries))
	for _, e := range entries {
		es := EntryStorage{Relations: make(map[string]RelationStorage, len(e.Rels)), MemberBytes: map[string]int64{}}
		for name, rel := range e.Rels {
			st := rel.StorageStats()
			rs := RelationStorage{
				Rows:       st.Rows,
				LiveRows:   st.LiveRows,
				ColBytes:   make(map[string]int64, len(st.ColBytes)),
				IndexBytes: map[string]int64{},
			}
			attrs := rel.Schema().Attrs()
			for a, b := range st.ColBytes {
				rs.Bytes += b
				rs.ColBytes[attrs[a]] = b
				if st.Indexed[a] {
					rs.Indexes = append(rs.Indexes, attrs[a])
					rs.IndexBytes[attrs[a]] = st.IndexBytes[a]
				}
			}
			es.Relations[name] = rs
		}
		for _, j := range e.Union.Joins() {
			es.MemberBytes[j.Name()] = j.MembershipBytes()
		}
		if e.Dict != nil {
			es.DictLen = e.Dict.Len()
		}
		out[e.Key] = es
	}
	return out
}

// RefreshSnapshot reports, per warm entry whose session has refreshed,
// what its last Refresh did: dirty joins, weight-table segments patched
// against nodes and joins rebuilt, walks run, walks probed again and
// the duration — the scrape point for "why was this append slow".
func (r *Registry) RefreshSnapshot() map[string]sampleunion.RefreshStats {
	entries := r.warm()
	out := make(map[string]sampleunion.RefreshStats, len(entries))
	for _, e := range entries {
		if st := e.Sess.RefreshStats(); st != (sampleunion.RefreshStats{}) {
			out[e.Key] = st
		}
	}
	return out
}

// Stats snapshots the registry counters.
func (r *Registry) Stats() RegistryStats {
	r.mu.Lock()
	n := r.lru.Len()
	r.mu.Unlock()
	return RegistryStats{
		Sessions:  n,
		Capacity:  r.cap,
		Prepares:  r.prepares.Load(),
		Hits:      r.hits.Load(),
		Coalesced: r.coalesced.Load(),
		Evictions: r.evictions.Load(),
	}
}
