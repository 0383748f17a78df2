package serve

// idemCap bounds the in-memory dedupe window in keys; past it the
// oldest keys age out FIFO. The durable window is bounded separately
// by WAL retention — a key whose record was truncated by checkpointing
// is not recovered at restart — so the contract either way is "recent
// batches dedupe, ancient retries may not".
const idemCap = 1 << 16

// idemTable is one entry's Idempotency-Key dedupe state: committed
// (relation, key) pairs mapped to the row count the original batch
// appended. Keys are recorded only after the batch's WAL commit and
// recovered from tagged WAL records at restart, so a dedupe answer
// always refers to a batch that is actually durable. The owning
// ingest's appendMu guards it.
type idemTable struct {
	rows  map[string]int
	order []string // FIFO aging
}

func idemMapKey(relName, key string) string { return relName + "\x00" + key }

func (t *idemTable) lookup(relName, key string) (int, bool) {
	n, ok := t.rows[idemMapKey(relName, key)]
	return n, ok
}

func (t *idemTable) record(relName, key string, n int) {
	mk := idemMapKey(relName, key)
	if t.rows == nil {
		t.rows = make(map[string]int)
	}
	if _, ok := t.rows[mk]; !ok {
		t.order = append(t.order, mk)
		for len(t.order) > idemCap {
			delete(t.rows, t.order[0])
			t.order = t.order[1:]
		}
	}
	t.rows[mk] = n
}
