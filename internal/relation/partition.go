package relation

import (
	"fmt"
	"sync"
)

// This file implements hash partitioning of a live relation for the
// shard-parallel sampling engine: a Partition splits one relation into
// S fragment relations by hash of a single attribute, and keeps the
// fragments synchronized with the source by replaying the source's
// mutation log. Fragments are ordinary live Relations, so everything
// built over them — CSR indexes, membership tables, prepared samplers —
// inherits the immutable-publish discipline unchanged.

// shardHash is a SplitMix64-style finalizer: every input bit avalanches
// through the output, so consecutive key values spread evenly over
// shards instead of striping.
func shardHash(v Value) uint64 {
	z := uint64(v) + 0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// ShardOf maps an attribute value to its shard in [0, shards).
func ShardOf(v Value, shards int) int {
	return int(shardHash(v) % uint64(shards))
}

// ShardPredicate keeps rows whose attribute hashes to the given shard —
// the σ_{hash(attr) mod S = s} selection that carves one shard out of a
// relation (or a materialized residual) that is not worth maintaining
// incrementally.
type ShardPredicate struct {
	Attr   string
	Shard  int
	Shards int
}

// Eval implements Predicate.
func (p ShardPredicate) Eval(t Tuple, s *Schema) bool {
	a := s.Index(p.Attr)
	if a < 0 {
		return false
	}
	return ShardOf(t[a], p.Shards) == p.Shard
}

func (p ShardPredicate) String() string {
	return fmt.Sprintf("hash(%s) mod %d = %d", p.Attr, p.Shards, p.Shard)
}

// Partition splits a live relation into shard fragments by hash of one
// attribute and keeps them synchronized with the source. The fragments
// partition the source's live rows exactly: every live row appears in
// exactly one fragment, determined by ShardOf on its partition
// attribute. Sync replays the source's mutation log to carry appends
// and deletes into the right fragments incrementally.
//
// Concurrency: fragments are live Relations, so draws against them may
// run concurrently with Sync (they observe the usual live-relation
// visibility contract). Sync itself must not run concurrently with
// another Sync on the same Partition; the session's refresh lock
// provides that.
type Partition struct {
	src     *Relation
	attrPos int
	shards  int
	frags   []*Relation

	mu      sync.Mutex
	version uint64 // source version the fragments reflect
	// shardOf/localOf map a physical source row to its fragment and its
	// physical row there; -1 = unmapped (dead at build time).
	shardOf []int32
	localOf []int32
}

// NewPartition builds the shard fragments of src by hash of attr,
// capturing the source's live rows atomically (and enabling its
// mutation log, so Sync can catch up later without missing or
// double-applying a mutation).
func NewPartition(src *Relation, attr string, shards int) (*Partition, error) {
	if shards < 1 {
		return nil, fmt.Errorf("relation %s: partition needs at least 1 shard, got %d", src.Name(), shards)
	}
	pos := src.Schema().Index(attr)
	if pos < 0 {
		return nil, fmt.Errorf("relation %s: no partition attribute %q", src.Name(), attr)
	}
	p := &Partition{src: src, attrPos: pos, shards: shards}
	ids, phys, version := src.LiveRows()
	p.version = version
	p.shardOf = make([]int32, phys)
	p.localOf = make([]int32, phys)
	for i := range p.shardOf {
		p.shardOf[i] = -1
		p.localOf[i] = -1
	}
	col := src.Cols()[pos]
	buckets := make([][]int, shards)
	for _, id := range ids {
		s := ShardOf(col[id], shards)
		p.shardOf[id] = int32(s)
		p.localOf[id] = int32(len(buckets[s]))
		buckets[s] = append(buckets[s], id)
	}
	p.frags = make([]*Relation, shards)
	for s := range p.frags {
		p.frags[s] = New(fmt.Sprintf("%s#%d/%d", src.Name(), s, shards), src.Schema())
		p.frags[s].AppendRowIDs(src, buckets[s])
	}
	return p, nil
}

// Source returns the partitioned relation.
func (p *Partition) Source() *Relation { return p.src }

// Attr returns the partition attribute's name.
func (p *Partition) Attr() string { return p.src.Schema().Attr(p.attrPos) }

// Shards returns the shard count.
func (p *Partition) Shards() int { return p.shards }

// Frag returns the fragment holding shard s's rows.
func (p *Partition) Frag(s int) *Relation { return p.frags[s] }

// Stale reports whether the source mutated since the fragments were
// built or last Synced.
func (p *Partition) Stale() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.src.Version() != p.version
}

// Sync replays the source's mutation log tail into the fragments:
// appends route to the shard their partition value hashes to, deletes
// tombstone the mapped fragment row. It returns which fragments
// changed. ok is false when the source's log tail is no longer retained
// — the caller must rebuild the partition (and everything over it) from
// scratch; the fragments are left unchanged in that case.
func (p *Partition) Sync() (dirty []bool, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	dirty = make([]bool, p.shards)
	tail, upTo, ok := p.src.MutationsSince(p.version)
	if !ok {
		return dirty, false
	}
	if len(tail) == 0 {
		p.version = upTo
		return dirty, true
	}
	// First pass: assign fragment slots for appends (so a delete later
	// in the tail finds its row mapped), bucketing the row ids per
	// shard. The shard hash reads the partition attribute's column
	// directly — no row gather.
	col := p.src.Cols()[p.attrPos]
	appends := make([][]int, p.shards)
	fragLen := make([]int, p.shards)
	for s := range fragLen {
		fragLen[s] = p.frags[s].Len()
	}
	type del struct{ shard, local int32 }
	var deletes []del
	for _, m := range tail {
		switch m.Kind {
		case MutAppend:
			for int(m.Row) >= len(p.shardOf) {
				p.shardOf = append(p.shardOf, -1)
				p.localOf = append(p.localOf, -1)
			}
			s := ShardOf(col[m.Row], p.shards)
			p.shardOf[m.Row] = int32(s)
			p.localOf[m.Row] = int32(fragLen[s] + len(appends[s]))
			appends[s] = append(appends[s], m.Row)
			dirty[s] = true
		case MutDelete:
			if m.Row < len(p.shardOf) && p.shardOf[m.Row] >= 0 {
				deletes = append(deletes, del{p.shardOf[m.Row], p.localOf[m.Row]})
				dirty[p.shardOf[m.Row]] = true
			}
		}
	}
	// Apply appends first: every delete's target row exists afterwards
	// (row ids are never reused, so an append always precedes its
	// delete in the tail).
	for s, ids := range appends {
		p.frags[s].AppendRowIDs(p.src, ids)
	}
	for _, d := range deletes {
		p.frags[d.shard].Delete(int(d.local))
	}
	p.version = upTo
	return dirty, true
}
