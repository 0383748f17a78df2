package wal

import (
	"errors"
	"fmt"

	"sampleunion/internal/relation"
)

// ErrSeqGap reports a record whose seq does not extend the relation's
// version chain: versions between the relation's state and the record
// are missing. Recovery treats it as corruption; a replication follower
// treats it as "resync from a snapshot".
var ErrSeqGap = errors.New("wal: seq gap")

// ApplyOutcome reports what ApplyRecord did with one record.
type ApplyOutcome struct {
	// Applied is false when the record's versions were already in the
	// relation (a duplicate — expected on a replication stream after a
	// reconnect, loud corruption during recovery replay).
	Applied bool
	// Rows is the number of rows the record covers (batch size, or 1).
	Rows int
	// Tag is the batch's idempotency key ("" when untagged).
	Tag string
}

// ApplyRecord applies one WAL record to rel through its ordinary
// mutation path, checking the seq chain exactly: a record whose span
// ends at or below rel.Version() is skipped as a duplicate
// (Applied=false), one that extends the chain by exactly its own rows
// is applied, and anything else is an ErrSeqGap. It is the single
// decode-and-apply used by recovery replay and by replication
// followers, so both enforce identical contiguity.
func ApplyRecord(rel *relation.Relation, seq uint64, payload []byte) (ApplyOutcome, error) {
	if len(payload) == 0 {
		return ApplyOutcome{}, fmt.Errorf("wal: %s: empty record payload at seq %d", rel.Name(), seq)
	}
	switch payload[0] {
	case batchKind, taggedBatchKind:
		tag, start, rows, err := decodeBatchRecord(payload)
		if err != nil {
			return ApplyOutcome{}, err
		}
		out := ApplyOutcome{Rows: len(rows), Tag: tag}
		v := rel.Version()
		if seq <= v {
			return out, nil // duplicate: all of the batch's versions are in
		}
		if want := v + uint64(len(rows)); seq != want {
			return out, fmt.Errorf("wal: %s: %w: batch record ends at %d, want %d", rel.Name(), ErrSeqGap, seq, want)
		}
		if len(rows[0]) != rel.Arity() {
			return out, fmt.Errorf("wal: %s: batch record arity %d, want %d", rel.Name(), len(rows[0]), rel.Arity())
		}
		if start != rel.Len() {
			return out, fmt.Errorf("wal: %s: batch record starts at row %d, storage at %d", rel.Name(), start, rel.Len())
		}
		rel.AppendRowsTagged(rows, tag)
		out.Applied = true
		return out, nil
	}
	out := ApplyOutcome{Rows: 1}
	v := rel.Version()
	if seq <= v {
		return out, nil
	}
	if want := v + 1; seq != want {
		return out, fmt.Errorf("wal: %s: %w: record %d, want %d", rel.Name(), ErrSeqGap, seq, want)
	}
	m, err := DecodeMutation(payload)
	if err != nil {
		return out, err
	}
	switch m.Kind {
	case relation.MutAppend:
		if len(m.Vals) != rel.Arity() {
			return out, fmt.Errorf("wal: %s: append record arity %d, want %d", rel.Name(), len(m.Vals), rel.Arity())
		}
		if m.Row != rel.Len() {
			return out, fmt.Errorf("wal: %s: append record row %d, storage at %d", rel.Name(), m.Row, rel.Len())
		}
		rel.Append(m.Vals)
	case relation.MutDelete:
		if !rel.Delete(m.Row) {
			return out, fmt.Errorf("wal: %s: delete record for dead or missing row %d", rel.Name(), m.Row)
		}
	}
	out.Applied = true
	return out, nil
}
