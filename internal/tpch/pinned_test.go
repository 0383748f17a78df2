package tpch

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"sampleunion/internal/relation"
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

// hashRelation writes r into h: name, Len, Version, then every column in
// order.
func hashRelation(t *testing.T, h hash.Hash, r *relation.Relation) {
	t.Helper()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
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

func workloadDigest(t *testing.T, w *Workload) string {
	t.Helper()
	h := sha256.New()
	for _, j := range w.Joins {
		for _, n := range j.Nodes() {
			hashRelation(t, h, n.Rel)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// relationDigests returns one digest per distinct relation of w's joins,
// keyed by its name.
func relationDigests(t *testing.T, w *Workload) map[string]string {
	t.Helper()
	out := map[string]string{}
	seen := map[*relation.Relation]bool{}
	for _, j := range w.Joins {
		for _, r := range j.Relations() {
			if seen[r] {
				continue
			}
			seen[r] = true
			if _, dup := out[r.Name()]; dup {
				t.Fatalf("%s: two relations named %s", w.Name, r.Name())
			}
			h := sha256.New()
			hashRelation(t, h, r)
			out[r.Name()] = hex.EncodeToString(h.Sum(nil)[:8])
		}
	}
	return out
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

// relationDigestsWant pins every relation of UQ1, UQ2 and UQ3 on its own
// (first 8 bytes of the SHA-256 of hashRelation's bytes), at SF 1 and
// 8, overlap 0.2, seeds 1 and 7: a changed cell names the relation it
// is in. Recorded from the generator that hashed each cell's relation
// name afresh; the one that folds the name into a per-relation stream
// must reproduce it unchanged.
var relationDigestsWant = map[string]string{
	"UQ1/sf=1/seed=1/customer_v0":  "9e3824d20d860331",
	"UQ1/sf=1/seed=1/customer_v1":  "b1b6ac2432e591d2",
	"UQ1/sf=1/seed=1/customer_v2":  "889781248297b695",
	"UQ1/sf=1/seed=1/customer_v3":  "46cd0be3238a62b3",
	"UQ1/sf=1/seed=1/customer_v4":  "540acb911d1041f3",
	"UQ1/sf=1/seed=1/lineitem_v0":  "85683d6efa438bd2",
	"UQ1/sf=1/seed=1/lineitem_v1":  "9183dff39b62c96e",
	"UQ1/sf=1/seed=1/lineitem_v2":  "79043fa00cec6d7a",
	"UQ1/sf=1/seed=1/lineitem_v3":  "b8bf4fdacd48a133",
	"UQ1/sf=1/seed=1/lineitem_v4":  "6e3fb559bdede860",
	"UQ1/sf=1/seed=1/nation":       "25573bb146c6fd07",
	"UQ1/sf=1/seed=1/orders_v0":    "fd2966c67f02ea85",
	"UQ1/sf=1/seed=1/orders_v1":    "d0a94554bfed8fab",
	"UQ1/sf=1/seed=1/orders_v2":    "e6a138833c8f1623",
	"UQ1/sf=1/seed=1/orders_v3":    "8c8739d2f483d1c8",
	"UQ1/sf=1/seed=1/orders_v4":    "eb0f06dfc5bf51c3",
	"UQ1/sf=1/seed=1/supplier_v0":  "3029dbc3a9ad4bce",
	"UQ1/sf=1/seed=1/supplier_v1":  "12dcc5ee19f5f4e1",
	"UQ1/sf=1/seed=1/supplier_v2":  "f029337e55b54ea8",
	"UQ1/sf=1/seed=1/supplier_v3":  "f103468c9467f2fd",
	"UQ1/sf=1/seed=1/supplier_v4":  "040d13f2112a649b",
	"UQ1/sf=1/seed=7/customer_v0":  "62652dad5f932a43",
	"UQ1/sf=1/seed=7/customer_v1":  "bba74bf38f920046",
	"UQ1/sf=1/seed=7/customer_v2":  "18b5d525495d1e25",
	"UQ1/sf=1/seed=7/customer_v3":  "1bd7df435c382683",
	"UQ1/sf=1/seed=7/customer_v4":  "04d53d05834081cf",
	"UQ1/sf=1/seed=7/lineitem_v0":  "4b8e99e41453a998",
	"UQ1/sf=1/seed=7/lineitem_v1":  "c2c1df16fc4104ac",
	"UQ1/sf=1/seed=7/lineitem_v2":  "0fd0b78480cac0db",
	"UQ1/sf=1/seed=7/lineitem_v3":  "65b3a8faee11ae71",
	"UQ1/sf=1/seed=7/lineitem_v4":  "5a43668025d33ac8",
	"UQ1/sf=1/seed=7/nation":       "25573bb146c6fd07",
	"UQ1/sf=1/seed=7/orders_v0":    "691549af0f64d4d8",
	"UQ1/sf=1/seed=7/orders_v1":    "7b564fedc1e99a1d",
	"UQ1/sf=1/seed=7/orders_v2":    "fc735b871d1dfb1e",
	"UQ1/sf=1/seed=7/orders_v3":    "5c3f4b35ba0aa36e",
	"UQ1/sf=1/seed=7/orders_v4":    "79ae7f52a1fc9c47",
	"UQ1/sf=1/seed=7/supplier_v0":  "7e9759526683dff5",
	"UQ1/sf=1/seed=7/supplier_v1":  "2999ca644797fe3c",
	"UQ1/sf=1/seed=7/supplier_v2":  "48706b9cd42cd54f",
	"UQ1/sf=1/seed=7/supplier_v3":  "7f059ebf4623610f",
	"UQ1/sf=1/seed=7/supplier_v4":  "ace98e60c8b84dfc",
	"UQ1/sf=8/seed=1/customer_v0":  "e5ae512263ad7ebb",
	"UQ1/sf=8/seed=1/customer_v1":  "3840ab2a2de49331",
	"UQ1/sf=8/seed=1/customer_v2":  "11b7822e50c8ffbc",
	"UQ1/sf=8/seed=1/customer_v3":  "e3084d5c8ad1e04e",
	"UQ1/sf=8/seed=1/customer_v4":  "d29ee834d69d54bd",
	"UQ1/sf=8/seed=1/lineitem_v0":  "d30a5b659a75bc93",
	"UQ1/sf=8/seed=1/lineitem_v1":  "952bfc0973b798cc",
	"UQ1/sf=8/seed=1/lineitem_v2":  "ea9ad076994de665",
	"UQ1/sf=8/seed=1/lineitem_v3":  "4c99bc66377493da",
	"UQ1/sf=8/seed=1/lineitem_v4":  "5f546a3282afcf98",
	"UQ1/sf=8/seed=1/nation":       "25573bb146c6fd07",
	"UQ1/sf=8/seed=1/orders_v0":    "d1849400e52ba5db",
	"UQ1/sf=8/seed=1/orders_v1":    "3489f98358e11370",
	"UQ1/sf=8/seed=1/orders_v2":    "eddaa7b623726492",
	"UQ1/sf=8/seed=1/orders_v3":    "a7b5275f477d4455",
	"UQ1/sf=8/seed=1/orders_v4":    "5700f3cb64a35ae5",
	"UQ1/sf=8/seed=1/supplier_v0":  "8d3006e90d20a4da",
	"UQ1/sf=8/seed=1/supplier_v1":  "1a8873db7019748e",
	"UQ1/sf=8/seed=1/supplier_v2":  "fa807a462a1063c6",
	"UQ1/sf=8/seed=1/supplier_v3":  "34b58fa4e972d2da",
	"UQ1/sf=8/seed=1/supplier_v4":  "9dbf38e72d49edf7",
	"UQ1/sf=8/seed=7/customer_v0":  "56412df375362d61",
	"UQ1/sf=8/seed=7/customer_v1":  "27c80ce035c00567",
	"UQ1/sf=8/seed=7/customer_v2":  "14fac7d8d29e76a1",
	"UQ1/sf=8/seed=7/customer_v3":  "3dd00366c58b6e4b",
	"UQ1/sf=8/seed=7/customer_v4":  "4a37fe06b16251e7",
	"UQ1/sf=8/seed=7/lineitem_v0":  "7b3867fc89e5690e",
	"UQ1/sf=8/seed=7/lineitem_v1":  "bc3d506b55aabf93",
	"UQ1/sf=8/seed=7/lineitem_v2":  "c14e5c40c8efea83",
	"UQ1/sf=8/seed=7/lineitem_v3":  "4fbcbf3e141a5101",
	"UQ1/sf=8/seed=7/lineitem_v4":  "5c7f9566bfec79ff",
	"UQ1/sf=8/seed=7/nation":       "25573bb146c6fd07",
	"UQ1/sf=8/seed=7/orders_v0":    "29c27c2ea059c967",
	"UQ1/sf=8/seed=7/orders_v1":    "dd3ac18a9310ea66",
	"UQ1/sf=8/seed=7/orders_v2":    "a3fae7da42f0970a",
	"UQ1/sf=8/seed=7/orders_v3":    "e4458db7d214ea25",
	"UQ1/sf=8/seed=7/orders_v4":    "9ac98c6bd82c6bfb",
	"UQ1/sf=8/seed=7/supplier_v0":  "75e99d9cefaab552",
	"UQ1/sf=8/seed=7/supplier_v1":  "3f5fe471e6ab0bbd",
	"UQ1/sf=8/seed=7/supplier_v2":  "1329b2e1572f3a80",
	"UQ1/sf=8/seed=7/supplier_v3":  "1fb51c8d1902cebd",
	"UQ1/sf=8/seed=7/supplier_v4":  "3afb50f0512ceded",
	"UQ2/sf=1/seed=1/nation_qN":    "6306b7d017bad883",
	"UQ2/sf=1/seed=1/nation_qP":    "f6938fda2f201567",
	"UQ2/sf=1/seed=1/nation_qS":    "53071f90589d7236",
	"UQ2/sf=1/seed=1/part_qN":      "e953414598bf7b55",
	"UQ2/sf=1/seed=1/part_qP":      "226c5893d4676df5",
	"UQ2/sf=1/seed=1/part_qS":      "44efe1a22a143d45",
	"UQ2/sf=1/seed=1/partsupp_v0":  "d5807fc15a1d9c31",
	"UQ2/sf=1/seed=1/region":       "2285c2b95b845c90",
	"UQ2/sf=1/seed=1/supplier_qN":  "f28b78dd0d8ddfb7",
	"UQ2/sf=1/seed=1/supplier_qP":  "22fab3e8e21485fe",
	"UQ2/sf=1/seed=1/supplier_qS":  "be3632e5c78bea11",
	"UQ2/sf=1/seed=7/nation_qN":    "6306b7d017bad883",
	"UQ2/sf=1/seed=7/nation_qP":    "f6938fda2f201567",
	"UQ2/sf=1/seed=7/nation_qS":    "53071f90589d7236",
	"UQ2/sf=1/seed=7/part_qN":      "368259a124c99a05",
	"UQ2/sf=1/seed=7/part_qP":      "493c39c70fdcc2ae",
	"UQ2/sf=1/seed=7/part_qS":      "66aed6d0cef43f7d",
	"UQ2/sf=1/seed=7/partsupp_v0":  "091c1bd0514f2a94",
	"UQ2/sf=1/seed=7/region":       "2285c2b95b845c90",
	"UQ2/sf=1/seed=7/supplier_qN":  "766cdaa476f4674b",
	"UQ2/sf=1/seed=7/supplier_qP":  "bb4ce516c6977b0f",
	"UQ2/sf=1/seed=7/supplier_qS":  "8738528aff4e804f",
	"UQ2/sf=8/seed=1/nation_qN":    "6306b7d017bad883",
	"UQ2/sf=8/seed=1/nation_qP":    "f6938fda2f201567",
	"UQ2/sf=8/seed=1/nation_qS":    "53071f90589d7236",
	"UQ2/sf=8/seed=1/part_qN":      "e8487a034357d643",
	"UQ2/sf=8/seed=1/part_qP":      "35a02bb27909cea3",
	"UQ2/sf=8/seed=1/part_qS":      "8810f586c30dc1f7",
	"UQ2/sf=8/seed=1/partsupp_v0":  "01ebc6ab1ae80b80",
	"UQ2/sf=8/seed=1/region":       "2285c2b95b845c90",
	"UQ2/sf=8/seed=1/supplier_qN":  "6b6995c075287421",
	"UQ2/sf=8/seed=1/supplier_qP":  "431bb0b9c21b857d",
	"UQ2/sf=8/seed=1/supplier_qS":  "a7ca951fdf9f1bbf",
	"UQ2/sf=8/seed=7/nation_qN":    "6306b7d017bad883",
	"UQ2/sf=8/seed=7/nation_qP":    "f6938fda2f201567",
	"UQ2/sf=8/seed=7/nation_qS":    "53071f90589d7236",
	"UQ2/sf=8/seed=7/part_qN":      "26579cfb854dbd8a",
	"UQ2/sf=8/seed=7/part_qP":      "4a90c7f45b5776d3",
	"UQ2/sf=8/seed=7/part_qS":      "4f1ef3d35eee3973",
	"UQ2/sf=8/seed=7/partsupp_v0":  "c7e442b5a9ec2d50",
	"UQ2/sf=8/seed=7/region":       "2285c2b95b845c90",
	"UQ2/sf=8/seed=7/supplier_qN":  "a7fcb1e3c35f75e9",
	"UQ2/sf=8/seed=7/supplier_qP":  "e5aac7a33fc5d671",
	"UQ2/sf=8/seed=7/supplier_qS":  "bdfbdcb9e51c53ae",
	"UQ3/sf=1/seed=1/custA_v2":     "447b8dbf95c7cf1a",
	"UQ3/sf=1/seed=1/custB_v2":     "b0f12eb3f81c7031",
	"UQ3/sf=1/seed=1/customer_v0":  "9e3824d20d860331",
	"UQ3/sf=1/seed=1/orders_v0":    "fd2966c67f02ea85",
	"UQ3/sf=1/seed=1/orders_v1_lo": "1efb651301651fd6",
	"UQ3/sf=1/seed=1/orders_v2_hi": "806f26c0c1eababe",
	"UQ3/sf=1/seed=1/suppcust_v1":  "feaa6e0cbac82d8d",
	"UQ3/sf=1/seed=1/supplier_v0":  "3029dbc3a9ad4bce",
	"UQ3/sf=1/seed=1/supplier_v2":  "f029337e55b54ea8",
	"UQ3/sf=1/seed=7/custA_v2":     "d47d01933b48eeec",
	"UQ3/sf=1/seed=7/custB_v2":     "1a72e2db5ba93e23",
	"UQ3/sf=1/seed=7/customer_v0":  "62652dad5f932a43",
	"UQ3/sf=1/seed=7/orders_v0":    "691549af0f64d4d8",
	"UQ3/sf=1/seed=7/orders_v1_lo": "3b202bdb55627aef",
	"UQ3/sf=1/seed=7/orders_v2_hi": "6a43780db439c11a",
	"UQ3/sf=1/seed=7/suppcust_v1":  "2f86b2a4df41e1b1",
	"UQ3/sf=1/seed=7/supplier_v0":  "7e9759526683dff5",
	"UQ3/sf=1/seed=7/supplier_v2":  "48706b9cd42cd54f",
	"UQ3/sf=8/seed=1/custA_v2":     "efe330942ac9079f",
	"UQ3/sf=8/seed=1/custB_v2":     "1e1e07f46cd53b5e",
	"UQ3/sf=8/seed=1/customer_v0":  "e5ae512263ad7ebb",
	"UQ3/sf=8/seed=1/orders_v0":    "d1849400e52ba5db",
	"UQ3/sf=8/seed=1/orders_v1_lo": "07f997cf8ec82a8e",
	"UQ3/sf=8/seed=1/orders_v2_hi": "dffc3cbd5bc44a11",
	"UQ3/sf=8/seed=1/suppcust_v1":  "87a5a622d46685a3",
	"UQ3/sf=8/seed=1/supplier_v0":  "8d3006e90d20a4da",
	"UQ3/sf=8/seed=1/supplier_v2":  "fa807a462a1063c6",
	"UQ3/sf=8/seed=7/custA_v2":     "f31fab17831c26ea",
	"UQ3/sf=8/seed=7/custB_v2":     "ad660cbc0c84ae08",
	"UQ3/sf=8/seed=7/customer_v0":  "56412df375362d61",
	"UQ3/sf=8/seed=7/orders_v0":    "29c27c2ea059c967",
	"UQ3/sf=8/seed=7/orders_v1_lo": "4c65f1f14da48d45",
	"UQ3/sf=8/seed=7/orders_v2_hi": "92ce94f9d53dce95",
	"UQ3/sf=8/seed=7/suppcust_v1":  "9345e638ef4bee45",
	"UQ3/sf=8/seed=7/supplier_v0":  "75e99d9cefaab552",
	"UQ3/sf=8/seed=7/supplier_v2":  "1329b2e1572f3a80",
}

func TestRelationDataPinned(t *testing.T) {
	checked := 0
	for _, name := range []string{"UQ1", "UQ2", "UQ3"} {
		for _, sf := range []float64{1, 8} {
			for _, seed := range []int64{1, 7} {
				w, err := ByName(name, Config{SF: sf, Overlap: 0.2, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				for rel, got := range relationDigests(t, w) {
					key := fmt.Sprintf("%s/sf=%g/seed=%d/%s", name, sf, seed, rel)
					if want, ok := relationDigestsWant[key]; !ok {
						t.Errorf("%s: not pinned (digest %s)", key, got)
					} else if got != want {
						t.Errorf("%s: digest %s, pinned %s", key, got, want)
					}
					checked++
				}
			}
		}
	}
	if checked != len(relationDigestsWant) {
		t.Errorf("checked %d relations, %d pinned", checked, len(relationDigestsWant))
	}
}
