package relation

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Relation is an in-memory table: a schema plus rows stored columnar —
// one contiguous []Value vector per attribute. CSR hash indexes over
// single attributes (see Index) are built on first use and cached; they
// serve the joinability lookups that the paper implements with hash
// tables (§3.2).
//
// Relations are live: Append/AppendRows/Delete may run concurrently
// with readers. Row storage is published through an immutable snapshot
// behind an atomic pointer — appends only ever write into capacity no
// published snapshot can reach, and deletes tombstone rows in a
// copy-on-write bitset, so a reader always observes a consistent view.
// Row ids are stable forever (storage is monotone; deleted rows keep
// their slot and values), which is what lets index row lists, join
// membership tables, and sampler state survive mutations and reconcile
// incrementally instead of rebuilding.
//
// Each mutation bumps Version and (once any derived structure exists)
// appends to a bounded mutation log. Derived structures — the
// per-attribute indexes here, join membership tables and cyclic
// residuals in internal/join — record the version they were built at
// and catch up by replaying the log tail; when the tail is gone or too
// large they rebuild from scratch.
type Relation struct {
	name   string
	schema *Schema

	// snap is the current immutable row storage view.
	snap atomic.Pointer[snapshot]

	// indexes is the current immutable set of per-attribute CSR(+delta)
	// indexes (entry a nil until built). Replaced wholesale whenever an
	// index is built or caught up to a new version.
	indexes atomic.Pointer[[]*Index]
	mu      sync.Mutex // serializes mutations, the log, and index building

	// version counts mutations; cached structures derived from this
	// relation compare it to detect staleness.
	version atomic.Uint64

	// builds counts the indexes built from nothing, compactions the ones
	// a catch-up built again from the snapshot instead of extending their
	// overlay.
	builds, compactions atomic.Uint64

	// Mutation log, guarded by mu. logOn flips true when the first
	// derived structure is built (bulk loading before that costs no log
	// traffic); entries cover versions logStart+1 .. logStart+len(log).
	logOn    bool
	logStart uint64
	log      []Mutation

	// sink, when set, receives every mutation synchronously as it is
	// logged — the write-ahead tee for durability (internal/wal).
	// Guarded by mu like the log itself.
	sink MutationSink

	// testDegrade, when non-zero, collapses the hash space of indexes and
	// row sets so collision paths are exercised; see SetHashDegradeForTest.
	testDegrade uint64
}

// MutationSink observes every mutation of a relation, synchronously,
// in version order, with version the value Version() reports after the
// mutation. The relation's mutation lock is held during the call: the
// sink must not call back into the relation. Unlike the bounded
// in-memory log, a sink receives an append's Vals, gathered from the
// just-published snapshot, so it can serialize the mutation without
// touching storage; a delete carries its row id alone. Treat m.Vals as
// read-only.
type MutationSink interface {
	LogMutation(version uint64, m Mutation)
	// LogAppendBatch is the bulk-append tee: rows [start, start+n) were
	// just appended as one batch, producing versions (version-n,
	// version]. cols are the just-published column vectors, so the sink
	// reads the appended values in place — no per-row gather. tag is the
	// batch's idempotency tag ("" for untagged appends); a durable sink
	// records it with the batch so retry deduplication survives a
	// restart. Treat cols as read-only.
	LogAppendBatch(version uint64, start, n int, cols [][]Value, tag string)
}

// snapshot is one immutable view of the row storage: one column vector
// per attribute, each with len == rows. Appends beyond rows write only
// into spare column capacity, so sharing the backing arrays between
// snapshots is safe — exactly the discipline the old row-major flat
// slice used, per column.
type snapshot struct {
	cols [][]Value
	rows int      // physical row count, dead rows included
	dead []uint64 // tombstone bitset (nil = no deletions); immutable
	live int      // live row count
}

func (s *snapshot) isLive(i int) bool {
	w := i >> 6
	if w >= len(s.dead) {
		return true
	}
	return s.dead[w]&(1<<(uint(i)&63)) == 0
}

// MutKind distinguishes mutation log entries.
type MutKind uint8

const (
	// MutAppend records a row append; the row's values live in storage.
	MutAppend MutKind = iota
	// MutDelete records a row tombstone; the dead row keeps its values
	// in storage.
	MutDelete
)

// Mutation is one entry of the relation's mutation log, replayed by
// derived structures (indexes, membership tables, residuals) to catch
// up incrementally. Treat Vals as read-only.
type Mutation struct {
	Kind MutKind
	Row  int
	Vals Tuple // a MutAppend's values, for a MutationSink only
}

// maxLogLen bounds the mutation log; structures further behind than the
// retained tail rebuild from scratch.
const maxLogLen = 4096

// New returns an empty relation with the given name and schema.
func New(name string, schema *Schema) *Relation {
	r := &Relation{name: name, schema: schema}
	r.snap.Store(&snapshot{cols: make([][]Value, schema.Len())})
	return r
}

// FromTuples builds a relation from explicit rows, validating arity.
func FromTuples(name string, schema *Schema, rows []Tuple) (*Relation, error) {
	r := New(name, schema)
	for i, t := range rows {
		if len(t) != schema.Len() {
			return nil, fmt.Errorf("relation %s: row %d has arity %d, want %d", name, i, len(t), schema.Len())
		}
	}
	r.AppendRows(rows)
	return r, nil
}

// MustFromTuples is FromTuples for programmer-constructed fixtures; it
// panics on arity mismatch.
func MustFromTuples(name string, schema *Schema, rows []Tuple) *Relation {
	r, err := FromTuples(name, schema, rows)
	if err != nil {
		panic(err)
	}
	return r
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len reports the physical number of rows, tombstoned rows included:
// Row(i) is valid for 0 <= i < Len(). Use LiveLen for the logical
// cardinality; the two agree unless Delete was called.
func (r *Relation) Len() int { return r.snap.Load().rows }

// LiveLen reports the number of live (non-deleted) rows.
func (r *Relation) LiveLen() int { return r.snap.Load().live }

// HasDeleted reports whether any row has ever been deleted.
func (r *Relation) HasDeleted() bool { return r.snap.Load().dead != nil }

// Live reports whether row i has not been deleted.
func (r *Relation) Live(i int) bool { return r.snap.Load().isLive(i) }

// Arity reports the number of attributes.
func (r *Relation) Arity() int { return r.schema.Len() }

// Row returns row i as a freshly allocated Tuple gathered from the
// column vectors. It is the convenience accessor for cold paths; hot
// paths read Cols to stay allocation-free. The values a
// row id denotes stay valid forever: storage is monotone and deleted
// rows keep their values.
func (r *Relation) Row(i int) Tuple {
	s := r.snap.Load()
	out := make(Tuple, len(s.cols))
	for a, c := range s.cols {
		out[a] = c[i]
	}
	return out
}

// Cols returns the current snapshot's column vectors: one []Value per
// attribute, each of length Len() as of the same consistent snapshot.
// The slices are immutable — treat them as read-only. They stay valid
// forever (storage is monotone; deleted rows keep their values), though
// later appends are only visible through a fresh Cols call.
func (r *Relation) Cols() [][]Value {
	return r.snap.Load().cols
}

// Append adds a row. Built indexes are not invalidated: they absorb the
// change through their delta overlay on next use. The relation's
// version moves so caches built over the old contents reconcile on next
// use. Safe to call concurrently with readers; see the package
// visibility contract in the README for what concurrent draws observe.
func (r *Relation) Append(t Tuple) {
	if len(t) != r.schema.Len() {
		panic(fmt.Sprintf("relation %s: append arity %d, want %d", r.name, len(t), r.schema.Len()))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.appendLocked(t)
}

// AppendRows adds a batch of rows under one lock acquisition and one
// snapshot publish — the fast path for streaming ingest.
func (r *Relation) AppendRows(rows []Tuple) { r.AppendRowsTagged(rows, "") }

// AppendRowsTagged is AppendRows carrying an idempotency tag through to
// the mutation sink: a durable sink persists the tag with the batch
// record, so the serving layer's retry deduplication survives restarts
// and replication. The tag does not affect the in-memory append.
func (r *Relation) AppendRowsTagged(rows []Tuple, tag string) {
	k := r.schema.Len()
	for i, t := range rows {
		if len(t) != k {
			panic(fmt.Sprintf("relation %s: append row %d arity %d, want %d", r.name, i, len(t), k))
		}
	}
	r.appendBatch(len(rows), tag, func(a int, col []Value) []Value {
		col = room(col, len(rows))
		for _, t := range rows {
			col = append(col, t[a])
		}
		return col
	})
}

// AppendRowIDs appends the given rows of src — which must have the
// receiver's arity — column-at-a-time: one lock, one snapshot, and a
// per-column copy loop with no row materialization. It is the bulk
// path behind Filter, Partition, and the splits.
func (r *Relation) AppendRowIDs(src *Relation, ids []int) {
	srcCols := src.Cols()
	if len(srcCols) != r.schema.Len() {
		panic(fmt.Sprintf("relation %s: AppendRowIDs from arity %d, want %d", r.name, len(srcCols), r.schema.Len()))
	}
	r.appendBatch(len(ids), "", func(a int, col []Value) []Value {
		col, sc := room(col, len(ids)), srcCols[a]
		for _, i := range ids {
			col = append(col, sc[i])
		}
		return col
	})
}

// AppendColumns appends len(cols[0]) rows given column-wise (cols[a][i]
// is attribute a of the i-th new row) as one batch: the same Version and
// the same MutationSink record as AppendRows of the same rows. It is the
// bulk-load path: an empty relation adopts the vectors as its storage,
// clipped to their length — nothing is copied, nothing regrows — so the
// caller must not write to them afterwards.
func (r *Relation) AppendColumns(cols [][]Value) {
	if len(cols) != r.schema.Len() {
		panic(fmt.Sprintf("relation %s: AppendColumns arity %d, want %d", r.name, len(cols), r.schema.Len()))
	}
	n := 0
	if len(cols) > 0 {
		n = len(cols[0])
	}
	for a, c := range cols {
		if len(c) != n {
			panic(fmt.Sprintf("relation %s: AppendColumns column %d has %d values, column 0 has %d", r.name, a, len(c), n))
		}
	}
	r.appendBatch(n, "", func(a int, col []Value) []Value {
		if len(col) == 0 {
			return cols[a][:n:n]
		}
		return append(room(col, n), cols[a]...)
	})
}

// appendBatch publishes n more rows under one lock acquisition, one
// snapshot and one batch log record; fill returns attribute a's column
// with the n new values appended (room gives it the capacity).
func (r *Relation) appendBatch(n int, tag string, fill func(a int, col []Value) []Value) {
	if n == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.snap.Load()
	cols := make([][]Value, len(s.cols))
	for a, col := range s.cols {
		cols[a] = fill(a, col)
	}
	r.snap.Store(&snapshot{cols: cols, rows: s.rows + n, dead: s.dead, live: s.live + n})
	r.logAppendBatch(s.rows, n, tag)
}

// room returns col with capacity for n more values. A column with no
// storage yet is sized exactly (a bulk load is one allocation per
// column); afterwards capacity doubles (minimum 8), keeping growth
// amortized-constant under streaming appends.
func room(col []Value, n int) []Value {
	need := len(col) + n
	if cap(col) >= need {
		return col
	}
	c := need
	if cap(col) > 0 {
		for c = max(cap(col), 8); c < need; {
			c *= 2
		}
	}
	grown := make([]Value, len(col), c)
	copy(grown, col)
	return grown
}

// appendLocked appends one row; callers hold r.mu.
func (r *Relation) appendLocked(t Tuple) {
	s := r.snap.Load()
	cols := make([][]Value, len(s.cols))
	for a := range cols {
		cols[a] = append(s.cols[a], t[a])
	}
	r.snap.Store(&snapshot{cols: cols, rows: s.rows + 1, dead: s.dead, live: s.live + 1})
	r.logMutation(Mutation{Kind: MutAppend, Row: s.rows})
}

// AppendValues adds a row given as individual values.
func (r *Relation) AppendValues(vs ...Value) { r.Append(Tuple(vs)) }

// Delete tombstones row i and reports whether it was live. The row's
// slot and values remain (readers holding its id stay safe); it simply
// stops matching index probes, membership tests, and enumeration.
func (r *Relation) Delete(i int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.snap.Load()
	if i < 0 || i >= s.rows || !s.isLive(i) {
		return false
	}
	words := (s.rows + 63) / 64
	dead := make([]uint64, words)
	copy(dead, s.dead)
	dead[i>>6] |= 1 << (uint(i) & 63)
	r.snap.Store(&snapshot{cols: s.cols, rows: s.rows, dead: dead, live: s.live - 1})
	r.logMutation(Mutation{Kind: MutDelete, Row: i})
	return true
}

// logMutation bumps the version, tees into the registered sink, and,
// when logging is on, appends to the bounded log; callers hold r.mu.
func (r *Relation) logMutation(m Mutation) {
	v := r.version.Add(1)
	if r.sink != nil {
		sm := m
		if sm.Kind == MutAppend {
			// The log holds no values (storage has them); a sink needs
			// an append's to serialize it, so gather them from the
			// just-published snapshot.
			s := r.snap.Load()
			vals := make(Tuple, len(s.cols))
			for a, c := range s.cols {
				vals[a] = c[sm.Row]
			}
			sm.Vals = vals
		}
		r.sink.LogMutation(v, sm)
	}
	if !r.logOn {
		r.logStart = v
		return
	}
	r.appendLog(m, 1)
}

// logAppendBatch is logMutation for a contiguous batch of appends over
// the just-published snapshot: the version advances by n in one step,
// the sink sees one batched record (the WAL tee's amortization — per-row
// framing would dominate bulk ingest), and the in-memory log gets its
// usual per-row entries; callers hold r.mu.
func (r *Relation) logAppendBatch(first, n int, tag string) {
	if n == 0 {
		return
	}
	v := r.version.Add(uint64(n))
	if r.sink != nil {
		r.sink.LogAppendBatch(v, first, n, r.snap.Load().cols, tag)
	}
	if !r.logOn {
		r.logStart = v
		return
	}
	r.appendLog(Mutation{Kind: MutAppend, Row: first}, n)
}

// appendLog appends n entries to the log — m, then m with its Row one
// higher each time — dropping the older half of the log while it is
// longer than maxLogLen. The entries kept then go to a new array with
// room up to the next halving, so appends do not regrow it in between;
// never compacted in place, as PinSince hands out tails that alias the
// log and its entries are never rewritten. Callers hold r.mu.
func (r *Relation) appendLog(m Mutation, n int) {
	keep := len(r.log) + n
	for keep > maxLogLen {
		keep -= keep / 2
	}
	if drop := len(r.log) + n - keep; drop > 0 {
		skip := max(0, drop-len(r.log)) // of the new entries
		r.log = append(make([]Mutation, 0, maxLogLen+1), r.log[drop-skip:]...)
		r.logStart += uint64(drop)
		m.Row, n = m.Row+skip, n-skip
	}
	for i := 0; i < n; i++ {
		r.log = append(r.log, m)
		m.Row++
	}
}

// SetMutationSink registers (or, with nil, removes) the relation's
// mutation sink. At most one sink is supported; the write-ahead layer
// owns it.
func (r *Relation) SetMutationSink(s MutationSink) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sink = s
}

// LogMutations turns the mutation log on (Index, Pin and LiveRows do it
// themselves), so that a structure derived from the relation from now on
// can follow its mutations through MutationsSince.
func (r *Relation) LogMutations() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.enableLogLocked()
}

// enableLogLocked starts recording mutations, so that a structure
// derived from the current contents (an index, a LiveRows reader's
// table, a pinned View's row set) can catch up incrementally. Callers
// hold r.mu.
func (r *Relation) enableLogLocked() {
	if r.logOn {
		return
	}
	r.logOn = true
	r.logStart = r.version.Load()
	r.log = nil
}

// MutationsSince returns the log tail covering versions (since, upTo],
// where upTo is the relation's version at the time of the call. ok is
// false when the tail is no longer retained (the caller rebuilds from
// scratch). Like PinSince's, the tail aliases the log, whose entries are
// never rewritten, clipped so an append reallocates: treat it as
// read-only.
func (r *Relation) MutationsSince(since uint64) (tail []Mutation, upTo uint64, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tail, upTo, ok = r.mutationsSinceLocked(since)
	return tail[:len(tail):len(tail)], upTo, ok
}

// LiveRows returns the live row ids, the physical row count, and the
// exact version they reflect, captured atomically with respect to
// mutations. It also enables the mutation log, so a derived structure
// built from the returned rows can later catch up from the returned
// version without missing or double-applying a mutation. Row ids stay
// valid forever (storage is monotone), so callers may read Row(id)
// lock-free afterwards.
func (r *Relation) LiveRows() (ids []int, phys int, version uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.enableLogLocked()
	s := r.snap.Load()
	ids = make([]int, 0, s.live)
	for i := 0; i < s.rows; i++ {
		if s.isLive(i) {
			ids = append(ids, i)
		}
	}
	return ids, s.rows, r.version.Load()
}

// SetHashDegradeForTest collapses the hash space of the indexes and the
// row sets built over views pinned afterwards (mask ANDed onto every
// fingerprint), forcing collisions so equality-verification paths are
// exercised. Test-only.
func (r *Relation) SetHashDegradeForTest(mask uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.testDegrade = mask
	r.indexes.Store(nil)
}

// Version counts mutations; caches derived from this relation compare
// it to detect staleness.
func (r *Relation) Version() uint64 { return r.version.Load() }

// Value returns the value of attribute position a in row i.
func (r *Relation) Value(i, a int) Value {
	return r.snap.Load().cols[a][i]
}

// Index returns the CSR(+delta) hash index over the attribute at
// position a, building or catching it up as needed. First use from
// several goroutines — including the first build of a delta overlay
// after a mutation — builds exactly once behind r.mu; a published index
// is immutable, so concurrent probes are safe. A catch-up is derived
// under r.mu from the published index and extends its arrays in place
// (overlay.successor).
func (r *Relation) Index(a int) *Index {
	if set := r.indexes.Load(); set != nil {
		if ix := (*set)[a]; ix != nil && ix.version == r.version.Load() {
			return ix
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.version.Load() // stable: mutations hold r.mu
	old := r.indexes.Load()
	var prev *Index
	if old != nil {
		prev = (*old)[a]
	}
	if prev != nil && prev.version == v {
		return prev
	}
	r.enableLogLocked()
	s := r.snap.Load()
	var next *Index
	if prev != nil {
		if tail, upTo, ok := r.mutationsSinceLocked(prev.version); ok && upTo == v {
			next = prev.applyTail(s, a, tail, v)
		}
	}
	if next == nil {
		next = buildIndex(s, a, v, r.testDegrade)
		if prev != nil {
			r.compactions.Add(1)
		} else {
			r.builds.Add(1)
		}
	}
	set := make([]*Index, r.schema.Len())
	if old != nil {
		copy(set, *old)
	}
	set[a] = next
	r.indexes.Store(&set)
	return next
}

// IndexBuilds returns how many indexes of the relation were built from
// nothing: first uses, and first uses again after RestoreSnapshot dropped
// them.
func (r *Relation) IndexBuilds() uint64 { return r.builds.Load() }

// IndexCompactions returns how many times an index of the relation was
// brought up to date by building it again — its overlay outgrew its
// budget, or the mutation log no longer reached back to it — rather than
// by extending its overlay: the catch-ups that cost O(rows).
func (r *Relation) IndexCompactions() uint64 { return r.compactions.Load() }

// mutationsSinceLocked is MutationsSince for callers already holding
// r.mu.
func (r *Relation) mutationsSinceLocked(since uint64) (tail []Mutation, upTo uint64, ok bool) {
	upTo = r.version.Load()
	if since == upTo {
		return nil, upTo, true
	}
	if !r.logOn || since < r.logStart || since > upTo {
		return nil, upTo, false
	}
	return r.log[since-r.logStart : upTo-r.logStart], upTo, true
}

// Matches returns the live row ids whose attribute at position a equals
// v, ascending. The returned slice is shared with the index; do not
// mutate it.
func (r *Relation) Matches(a int, v Value) []int {
	return r.Index(a).Rows(v)
}

// Degree returns the number of live rows whose attribute at position a
// equals v — the d_A(v, R) of the paper.
func (r *Relation) Degree(a int, v Value) int {
	return r.Index(a).Degree(v)
}

// MaxDegree returns the maximum value frequency in attribute position a
// — the M_A(R) of Olken's bound. It is 0 for an empty relation.
func (r *Relation) MaxDegree(a int) int {
	return r.Index(a).MaxDegree()
}

// DistinctCount returns the number of distinct values among live rows
// in attribute position a.
func (r *Relation) DistinctCount(a int) int {
	return r.Index(a).Distinct()
}

// Tuples returns a copy of all live rows.
func (r *Relation) Tuples() []Tuple {
	s := r.snap.Load()
	out := make([]Tuple, 0, s.live)
	flat := make([]Value, 0, s.live*len(s.cols))
	for i := 0; i < s.rows; i++ {
		if !s.isLive(i) {
			continue
		}
		at := len(flat)
		for _, c := range s.cols {
			flat = append(flat, c[i])
		}
		out = append(out, Tuple(flat[at:len(flat):len(flat)]))
	}
	return out
}

// StorageStats describes a relation's columnar storage footprint at one
// snapshot: physical and live row counts plus the bytes backing each
// column vector (allocated capacity, not just the occupied prefix), and
// which attributes have an index built — each one a structure every
// later mutation has to be caught up in — with the bytes each holds.
type StorageStats struct {
	Rows       int     `json:"rows"`
	LiveRows   int     `json:"live_rows"`
	ColBytes   []int64 `json:"col_bytes"`
	Indexed    []bool  `json:"indexed"`
	IndexBytes []int64 `json:"index_bytes"`
}

// StorageStats reports the current snapshot's storage footprint.
func (r *Relation) StorageStats() StorageStats {
	s := r.snap.Load()
	k := len(s.cols)
	st := StorageStats{Rows: s.rows, LiveRows: s.live, ColBytes: make([]int64, k), Indexed: make([]bool, k), IndexBytes: make([]int64, k)}
	for a, c := range s.cols {
		st.ColBytes[a] = int64(cap(c)) * 8
	}
	if set := r.indexes.Load(); set != nil {
		for a, ix := range *set {
			if st.Indexed[a] = ix != nil; ix != nil {
				st.IndexBytes[a] = ix.Bytes()
			}
		}
	}
	return st
}

// Filter returns a new relation keeping, in row order, the live rows of
// one snapshot that pred.Eval accepts, each gathered into one scratch
// tuple; the kept rows are copied in one batch. The result shares no
// storage with r.
func (r *Relation) Filter(name string, pred Predicate) *Relation {
	s := r.snap.Load()
	row := make(Tuple, len(s.cols))
	var kept []int
	for i := 0; i < s.rows; i++ {
		if !s.isLive(i) {
			continue
		}
		for a, c := range s.cols {
			row[a] = c[i]
		}
		if pred.Eval(row, r.schema) {
			kept = append(kept, i)
		}
	}
	out := New(name, r.schema)
	out.AppendRowIDs(r, kept)
	return out
}

// Project returns a new relation with only the named attributes, in the
// given order. Duplicate rows are retained; dead rows are dropped.
func (r *Relation) Project(name string, attrs []string) (*Relation, error) {
	idx, err := r.schema.Project(attrs)
	if err != nil {
		return nil, err
	}
	out := New(name, NewSchema(attrs...))
	s := r.snap.Load()
	cols := make([][]Value, len(idx))
	for k := range cols {
		cols[k] = make([]Value, 0, s.live)
	}
	for i := 0; i < s.rows; i++ {
		if !s.isLive(i) {
			continue
		}
		for k, j := range idx {
			cols[k] = append(cols[k], s.cols[j][i])
		}
	}
	out.AppendColumns(cols)
	return out, nil
}

// DistinctProject is Project with duplicate elimination.
func (r *Relation) DistinctProject(name string, attrs []string) (*Relation, error) {
	p, err := r.Project(name, attrs)
	if err != nil {
		return nil, err
	}
	out := New(name, p.schema)
	n := p.Len()
	seen := NewKeyCounter(p.schema.Len(), n)
	cols := p.Cols()
	var kept []int
	for i := 0; i < n; i++ {
		if _, c := seen.AddRow(cols, i, nil, 1); c == 1 {
			kept = append(kept, i)
		}
	}
	out.AppendRowIDs(p, kept)
	return out, nil
}

// appendTupleKey encodes a tuple as a fixed-width byte key.
func appendTupleKey(dst []byte, t Tuple) []byte {
	for _, v := range t {
		u := uint64(v)
		dst = append(dst,
			byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
			byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
	}
	return dst
}

// TupleKey returns a string key uniquely identifying t's values; two
// tuples of the same arity have equal keys iff they are Equal. The
// sampling hot path uses RowSet/KeyCounter instead; TupleKey remains
// the reference encoding (and serves the warm-up's exact overlap
// computation, where a string map over all result tuples is fine).
func TupleKey(t Tuple) string {
	return string(appendTupleKey(nil, t))
}

func (r *Relation) String() string {
	return fmt.Sprintf("%s%s[%d rows]", r.name, r.schema, r.LiveLen())
}
