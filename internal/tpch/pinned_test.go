package tpch

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
)

// generatedDataDigests pins the generator's output byte for byte: one
// digest per workload and seed at SF 1, overlap 0.2, over every relation
// of every join in node order — name, Len, Version, then every column in
// order. Recorded before generation became a columnar bulk load; a
// changed digest means the data (or the version a loaded relation
// reports) changed, and every seeded stream downstream with it.
// A failure prints the digest it computed.
var generatedDataDigests = map[string]string{
	"UQ1/seed=1": "45973dd5658e62b4c8f257f1ddcb991b",
	"UQ1/seed=7": "05c8e24c581a51e3679520eee9505b18",
	"UQ2/seed=1": "4722321ac1a71059b428da79940cadf4",
	"UQ2/seed=7": "9ca946abff2aeb5ca3bfa8d9805f1498",
	"UQ3/seed=1": "e66f7df9b70362e78ceefb7075b08e26",
	"UQ3/seed=7": "219c430b2fc59455438c90c445033632",
}

func workloadDigest(t *testing.T, w *Workload) string {
	t.Helper()
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, j := range w.Joins {
		for _, n := range j.Nodes() {
			r := n.Rel
			h.Write([]byte(r.Name()))
			put(uint64(r.Len()))
			put(r.Version())
			cols := r.Cols()
			put(uint64(len(cols)))
			for _, c := range cols {
				if len(c) != r.Len() {
					t.Fatalf("%s: column of %d values in a relation of %d rows", r.Name(), len(c), r.Len())
				}
				for _, v := range c {
					put(uint64(v))
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func TestGeneratedDataPinned(t *testing.T) {
	for _, name := range []string{"UQ1", "UQ2", "UQ3"} {
		for _, seed := range []int64{1, 7} {
			w, err := ByName(name, Config{SF: 1, Overlap: 0.2, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s/seed=%d", name, seed)
			got := workloadDigest(t, w)
			if want := generatedDataDigests[key]; got != want {
				t.Errorf("%s: digest %s, pinned %s", key, got, want)
			}
		}
	}
}
