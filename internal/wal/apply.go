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
// followers, so both enforce identical contiguity. A record it cannot
// decode — a single-row append (kind 0), which no longer exists,
// included — is an error, and leaves rel as it was.
func ApplyRecord(rel *relation.Relation, seq uint64, payload []byte) (ApplyOutcome, error) {
	out := ApplyOutcome{Rows: 1}
	var start, row int
	var rows []relation.Tuple
	var err error
	switch {
	case len(payload) == 0:
		return out, fmt.Errorf("wal: %s: empty record payload at seq %d", rel.Name(), seq)
	case payload[0] == batchKind || payload[0] == taggedBatchKind:
		out.Tag, start, rows, err = decodeBatchRecord(payload, rel.Arity())
		out.Rows = len(rows)
	case payload[0] == deleteKind:
		row, err = decodeDeleteRecord(payload)
	case payload[0] == 0:
		return out, fmt.Errorf("wal: %s: record %d is a single-row append (kind 0); appends are batch records", rel.Name(), seq)
	default:
		return out, fmt.Errorf("wal: %s: record %d has unknown kind %d", rel.Name(), seq, payload[0])
	}
	if err != nil {
		return out, err
	}
	v := rel.Version()
	if seq <= v {
		return out, nil // duplicate: all of the record's versions are in
	}
	if want := v + uint64(out.Rows); seq != want {
		return out, fmt.Errorf("wal: %s: %w: record ends at %d, want %d", rel.Name(), ErrSeqGap, seq, want)
	}
	switch {
	case rows == nil:
		if !rel.Delete(row) {
			return out, fmt.Errorf("wal: %s: delete record for dead or missing row %d", rel.Name(), row)
		}
	case start != rel.Len():
		return out, fmt.Errorf("wal: %s: batch record starts at row %d, storage at %d", rel.Name(), start, rel.Len())
	default:
		rel.AppendRowsTagged(rows, out.Tag)
	}
	out.Applied = true
	return out, nil
}
