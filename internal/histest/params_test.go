package histest_test

// Histogram parameter pinning: the |U|, join sizes and covers the §5
// warm-up reports for UQ1, UQ2 and UQ3 at sf 1, under every size, degree
// and splitting option, before and after two bursts of deletes and
// appends, recorded as hex floats. Where the warm-up reads its degree
// statistics from is not a parameter: a change there must leave every
// row bit for bit. Regenerate, when an estimate is meant to change, with
//
//	GOLDEN_PRINT=1 go test -run TestHistogramParamsPinned -v ./internal/histest

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"sampleunion/internal/core"
	"sampleunion/internal/histest"
	"sampleunion/internal/join"
	"sampleunion/internal/relation"
	"sampleunion/internal/tpch"
)

// histogramConfigs are the eight option sets a pinned row is taken under.
func histogramConfigs() []histest.Options {
	var out []histest.Options
	for _, sizes := range []histest.SizeMode{histest.SizeEO, histest.SizeEW} {
		for _, deg := range []histest.Mode{histest.BoundMode, histest.AvgMode} {
			for _, split := range []bool{false, true} {
				out = append(out, histest.Options{Sizes: sizes, Degrees: deg, ForceSplit: split})
			}
		}
	}
	return out
}

func configName(o histest.Options) string {
	deg := "bound"
	if o.Degrees == histest.AvgMode {
		deg = "avg"
	}
	return fmt.Sprintf("%v-%s-split=%v", o.Sizes, deg, o.ForceSplit)
}

// paramsRow renders one warm-up's parameters as exact hex floats.
func paramsRow(t testing.TB, joins []*join.Join, o histest.Options) string {
	t.Helper()
	p, err := (&core.HistogramEstimator{Joins: joins, Opts: o}).Params(nil)
	if err != nil {
		t.Fatalf("%s: %v", configName(o), err)
	}
	hex := func(xs []float64) string {
		s := make([]string, len(xs))
		for i, x := range xs {
			s[i] = strconv.FormatFloat(x, 'x', -1, 64)
		}
		return strings.Join(s, " ")
	}
	return fmt.Sprintf("U=%s sizes=[%s] cover=[%s]", strconv.FormatFloat(p.UnionSize, 'x', -1, 64), hex(p.JoinSizes), hex(p.Cover))
}

// baseRelations lists the joins' relations once each, in node order.
func baseRelations(joins []*join.Join) []*relation.Relation {
	seen := make(map[*relation.Relation]bool)
	var out []*relation.Relation
	add := func(r *relation.Relation) {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	for _, j := range joins {
		for _, n := range j.Nodes() {
			add(n.Rel)
		}
	}
	return out
}

// burst deletes about one live row in thirteen of every relation and
// appends about one in seventeen again — half of them copies, half with
// their first attribute moved to a value no row held — so degrees,
// distinct counts, maxima and sizes all move.
func burst(joins []*join.Join, round int) {
	for _, r := range baseRelations(joins) {
		ids, _, _ := r.LiveRows()
		for i, id := range ids {
			if i%13 == round {
				r.Delete(id)
			}
		}
		rows := make([]relation.Tuple, 0, len(ids)/17+1)
		for i := 0; i <= len(ids)/17; i++ {
			row := r.Row(ids[(i*31+round)%len(ids)])
			if i%2 == 1 {
				row[0] += relation.Value(1<<20 + round)
			}
			rows = append(rows, row)
		}
		r.AppendRows(rows)
	}
}

// pinnedHistogramParams maps "workload/config/burst" to its parameters.
var pinnedHistogramParams = map[string]string{
	"UQ1/EO-bound-split=false/0": "U=0x1.2e7d8p+20 sizes=[0x1.388p+18 0x1.339ep+18 0x1.388p+18 0x1.b774p+18 0x1.5f9p+18] cover=[0x1.388p+18 0x1.8c7cp+17 0x1.77p+17 0x1.2cc8p+18 0x1.a5ep+17]",
	"UQ1/EO-bound-split=true/0":  "U=0x1.2e7d8p+20 sizes=[0x1.388p+18 0x1.339ep+18 0x1.388p+18 0x1.b774p+18 0x1.5f9p+18] cover=[0x1.388p+18 0x1.8c7cp+17 0x1.77p+17 0x1.2cc8p+18 0x1.a5ep+17]",
	"UQ1/EO-avg-split=false/0":   "U=0x1.a8336756ea621p+20 sizes=[0x1.388p+18 0x1.339ep+18 0x1.388p+18 0x1.b774p+18 0x1.5f9p+18] cover=[0x1.388p+18 0x1.2cd70f6bf3a9ap+18 0x1.31ebb2922cabdp+18 0x1.b0b772f855d82p+18 0x1.58d36865335acp+18]",
	"UQ1/EO-avg-split=true/0":    "U=0x1.a8336756ea621p+20 sizes=[0x1.388p+18 0x1.339ep+18 0x1.388p+18 0x1.b774p+18 0x1.5f9p+18] cover=[0x1.388p+18 0x1.2cd70f6bf3a9ap+18 0x1.31ebb2922cabdp+18 0x1.b0b772f855d82p+18 0x1.58d36865335acp+18]",
	"UQ1/EW-bound-split=false/0": "U=0x1.415p+12 sizes=[0x1.31dp+12 0x1.3bep+12 0x1.32ep+12 0x1.415p+12 0x1.305p+12] cover=[0x1.31dp+12 0x1.42p+07 0x0p+00 0x1.5cp+06 0x0p+00]",
	"UQ1/EW-bound-split=true/0":  "U=0x1.415p+12 sizes=[0x1.31dp+12 0x1.3bep+12 0x1.32ep+12 0x1.415p+12 0x1.305p+12] cover=[0x1.31dp+12 0x1.42p+07 0x0p+00 0x1.5cp+06 0x0p+00]",
	"UQ1/EW-avg-split=false/0":   "U=0x1.415p+12 sizes=[0x1.31dp+12 0x1.3bep+12 0x1.32ep+12 0x1.415p+12 0x1.305p+12] cover=[0x1.31dp+12 0x1.42p+07 0x0p+00 0x1.5cp+06 0x0p+00]",
	"UQ1/EW-avg-split=true/0":    "U=0x1.415p+12 sizes=[0x1.31dp+12 0x1.3bep+12 0x1.32ep+12 0x1.415p+12 0x1.305p+12] cover=[0x1.31dp+12 0x1.42p+07 0x0p+00 0x1.5cp+06 0x0p+00]",
	"UQ1/EO-bound-split=false/1": "U=0x1.23374p+20 sizes=[0x1.2c96p+18 0x1.4dfcp+18 0x1.2c96p+18 0x1.c2e1p+18 0x1.0b3p+18] cover=[0x1.2c96p+18 0x1.bcb8p+17 0x1.5e04p+17 0x1.3759p+18 0x1.372p+17]",
	"UQ1/EO-bound-split=true/1":  "U=0x1.e045p+18 sizes=[0x1.2c96p+18 0x1.4dfcp+18 0x1.2c96p+18 0x1.c2e1p+18 0x1.0b3p+18] cover=[0x1.2c96p+18 0x1.f9ep+15 0x0p+00 0x1.d1ccp+16 0x0p+00]",
	"UQ1/EO-avg-split=false/1":   "U=0x1.976fe4d6b3dffp+20 sizes=[0x1.2c96p+18 0x1.4dfcp+18 0x1.2c96p+18 0x1.c2e1p+18 0x1.0b3p+18] cover=[0x1.2c96p+18 0x1.481a84b8980ffp+18 0x1.26d059a9fa628p+18 0x1.bcf9ba6698a5ap+18 0x1.0544fa91a467cp+18]",
	"UQ1/EO-avg-split=true/1":    "U=0x1.970e47c0842cap+20 sizes=[0x1.2c96p+18 0x1.4dfcp+18 0x1.2c96p+18 0x1.c2e1p+18 0x1.0b3p+18] cover=[0x1.2c96p+18 0x1.47b8b3a5d6f23p+18 0x1.2670578648f83p+18 0x1.bc9789040414ap+18 0x1.04e28ad1ecb36p+18]",
	"UQ1/EW-bound-split=false/1": "U=0x1.f42p+11 sizes=[0x1.e98p+11 0x1.cc2p+11 0x1.e56p+11 0x1.f42p+11 0x1.c4cp+11] cover=[0x1.e98p+11 0x0p+00 0x0p+00 0x1.54p+06 0x0p+00]",
	"UQ1/EW-bound-split=true/1":  "U=0x1.f42p+11 sizes=[0x1.e98p+11 0x1.cc2p+11 0x1.e56p+11 0x1.f42p+11 0x1.c4cp+11] cover=[0x1.e98p+11 0x0p+00 0x0p+00 0x1.54p+06 0x0p+00]",
	"UQ1/EW-avg-split=false/1":   "U=0x1.f42p+11 sizes=[0x1.e98p+11 0x1.cc2p+11 0x1.e56p+11 0x1.f42p+11 0x1.c4cp+11] cover=[0x1.e98p+11 0x0p+00 0x0p+00 0x1.54p+06 0x0p+00]",
	"UQ1/EW-avg-split=true/1":    "U=0x1.f42p+11 sizes=[0x1.e98p+11 0x1.cc2p+11 0x1.e56p+11 0x1.f42p+11 0x1.c4cp+11] cover=[0x1.e98p+11 0x0p+00 0x0p+00 0x1.54p+06 0x0p+00]",
	"UQ1/EO-bound-split=false/2": "U=0x1.cba6p+19 sizes=[0x1.194p+18 0x1.3c68p+18 0x1.ec3p+17 0x1.388p+18 0x1.f4p+17] cover=[0x1.194p+18 0x1.761p+17 0x1.09c8p+17 0x1.6e4p+17 0x1.0ep+17]",
	"UQ1/EO-bound-split=true/2":  "U=0x1.3c68p+18 sizes=[0x1.194p+18 0x1.3c68p+18 0x1.ec3p+17 0x1.388p+18 0x1.f4p+17] cover=[0x1.194p+18 0x1.194p+15 0x0p+00 0x0p+00 0x0p+00]",
	"UQ1/EO-avg-split=false/2":   "U=0x1.59fbc833138fdp+20 sizes=[0x1.194p+18 0x1.3c68p+18 0x1.ec3p+17 0x1.388p+18 0x1.f4p+17] cover=[0x1.194p+18 0x1.36ce0e56e0e8dp+18 0x1.e159606dd47dcp+17 0x1.32e0017016c96p+18 0x1.e8a8c19cd89c8p+17]",
	"UQ1/EO-avg-split=true/2":    "U=0x1.59dff21934912p+20 sizes=[0x1.194p+18 0x1.3c68p+18 0x1.ec3p+17 0x1.388p+18 0x1.f4p+17] cover=[0x1.194p+18 0x1.36b21bab17302p+18 0x1.e1234c6e6f783p+17 0x1.32c3f0940c7bfp+18 0x1.e8702bdcedb88p+17]",
	"UQ1/EW-bound-split=false/2": "U=0x1.b7cp+11 sizes=[0x1.b22p+11 0x1.8ccp+11 0x1.b7cp+11 0x1.acep+11 0x1.a04p+11] cover=[0x1.b22p+11 0x0p+00 0x1.68p+05 0x0p+00 0x0p+00]",
	"UQ1/EW-bound-split=true/2":  "U=0x1.b7cp+11 sizes=[0x1.b22p+11 0x1.8ccp+11 0x1.b7cp+11 0x1.acep+11 0x1.a04p+11] cover=[0x1.b22p+11 0x0p+00 0x1.68p+05 0x0p+00 0x0p+00]",
	"UQ1/EW-avg-split=false/2":   "U=0x1.b7cp+11 sizes=[0x1.b22p+11 0x1.8ccp+11 0x1.b7cp+11 0x1.acep+11 0x1.a04p+11] cover=[0x1.b22p+11 0x0p+00 0x1.68p+05 0x0p+00 0x0p+00]",
	"UQ1/EW-avg-split=true/2":    "U=0x1.b7cp+11 sizes=[0x1.b22p+11 0x1.8ccp+11 0x1.b7cp+11 0x1.acep+11 0x1.a04p+11] cover=[0x1.b22p+11 0x0p+00 0x1.68p+05 0x0p+00 0x0p+00]",
	"UQ2/EO-bound-split=false/0": "U=0x1.d88p+11 sizes=[0x1.5ep+11 0x1.b58p+11 0x1.324p+11] cover=[0x1.5ep+11 0x1.eap+09 0x0p+00]",
	"UQ2/EO-bound-split=true/0":  "U=0x1.d88p+11 sizes=[0x1.5ep+11 0x1.b58p+11 0x1.324p+11] cover=[0x1.5ep+11 0x1.eap+09 0x0p+00]",
	"UQ2/EO-avg-split=false/0":   "U=0x1.fcb45d1745d17p+12 sizes=[0x1.5ep+11 0x1.b58p+11 0x1.324p+11] cover=[0x1.5ep+11 0x1.918p+11 0x1.09e8ba2e8ba2ep+11]",
	"UQ2/EO-avg-split=true/0":    "U=0x1.fcb45d1745d17p+12 sizes=[0x1.5ep+11 0x1.b58p+11 0x1.324p+11] cover=[0x1.5ep+11 0x1.918p+11 0x1.09e8ba2e8ba2ep+11]",
	"UQ2/EW-bound-split=false/0": "U=0x1.19p+08 sizes=[0x1.01p+08 0x1.c4p+07 0x1.19p+08] cover=[0x1.01p+08 0x0p+00 0x1.8p+04]",
	"UQ2/EW-bound-split=true/0":  "U=0x1.19p+08 sizes=[0x1.01p+08 0x1.c4p+07 0x1.19p+08] cover=[0x1.01p+08 0x0p+00 0x1.8p+04]",
	"UQ2/EW-avg-split=false/0":   "U=0x1.31a2e8ba2e8bap+08 sizes=[0x1.01p+08 0x1.c4p+07 0x1.19p+08] cover=[0x1.01p+08 0x0p+00 0x1.851745d1745d4p+05]",
	"UQ2/EW-avg-split=true/0":    "U=0x1.31a2e8ba2e8bap+08 sizes=[0x1.01p+08 0x1.c4p+07 0x1.19p+08] cover=[0x1.01p+08 0x0p+00 0x1.851745d1745d4p+05]",
	"UQ2/EO-bound-split=false/1": "U=0x1.067p+13 sizes=[0x1.248p+12 0x1.b6cp+12 0x1.554p+12] cover=[0x1.248p+12 0x1.5fp+11 0x1.c7p+09]",
	"UQ2/EO-bound-split=true/1":  "U=0x1.067p+13 sizes=[0x1.248p+12 0x1.b6cp+12 0x1.554p+12] cover=[0x1.248p+12 0x1.5fp+11 0x1.c7p+09]",
	"UQ2/EO-avg-split=false/1":   "U=0x1.02ab5ad0bed4dp+14 sizes=[0x1.248p+12 0x1.b6cp+12 0x1.554p+12] cover=[0x1.248p+12 0x1.a4f96c3a9ab3ep+12 0x1.4133ff08609f5p+12]",
	"UQ2/EO-avg-split=true/1":    "U=0x1.02ab5ad0bed4dp+14 sizes=[0x1.248p+12 0x1.b6cp+12 0x1.554p+12] cover=[0x1.248p+12 0x1.a4f96c3a9ab3ep+12 0x1.4133ff08609f5p+12]",
	"UQ2/EW-bound-split=false/1": "U=0x1.e4p+07 sizes=[0x1.94p+07 0x1.8p+07 0x1.e4p+07] cover=[0x1.94p+07 0x0p+00 0x1.4p+05]",
	"UQ2/EW-bound-split=true/1":  "U=0x1.e4p+07 sizes=[0x1.94p+07 0x1.8p+07 0x1.e4p+07] cover=[0x1.94p+07 0x0p+00 0x1.4p+05]",
	"UQ2/EW-avg-split=false/1":   "U=0x1.e4p+07 sizes=[0x1.94p+07 0x1.8p+07 0x1.e4p+07] cover=[0x1.94p+07 0x0p+00 0x1.4p+05]",
	"UQ2/EW-avg-split=true/1":    "U=0x1.e4p+07 sizes=[0x1.94p+07 0x1.8p+07 0x1.e4p+07] cover=[0x1.94p+07 0x0p+00 0x1.4p+05]",
	"UQ2/EO-bound-split=false/2": "U=0x1.25b8p+13 sizes=[0x1.86p+12 0x1.45p+12 0x1.1238p+13] cover=[0x1.86p+12 0x1.6cp+10 0x1.a9cp+10]",
	"UQ2/EO-bound-split=true/2":  "U=0x1.25b8p+13 sizes=[0x1.86p+12 0x1.45p+12 0x1.1238p+13] cover=[0x1.86p+12 0x1.6cp+10 0x1.a9cp+10]",
	"UQ2/EO-avg-split=false/2":   "U=0x1.3204083d66b5ep+14 sizes=[0x1.86p+12 0x1.45p+12 0x1.1238p+13] cover=[0x1.86p+12 0x1.32ad9e60cc4e4p+12 0x1.07b1414a67449p+13]",
	"UQ2/EO-avg-split=true/2":    "U=0x1.3204083d66b5ep+14 sizes=[0x1.86p+12 0x1.45p+12 0x1.1238p+13] cover=[0x1.86p+12 0x1.32ad9e60cc4e4p+12 0x1.07b1414a67449p+13]",
	"UQ2/EW-bound-split=false/2": "U=0x1.a8p+07 sizes=[0x1.76p+07 0x1.44p+07 0x1.a8p+07] cover=[0x1.76p+07 0x0p+00 0x1.9p+04]",
	"UQ2/EW-bound-split=true/2":  "U=0x1.a8p+07 sizes=[0x1.76p+07 0x1.44p+07 0x1.a8p+07] cover=[0x1.76p+07 0x0p+00 0x1.9p+04]",
	"UQ2/EW-avg-split=false/2":   "U=0x1.a8p+07 sizes=[0x1.76p+07 0x1.44p+07 0x1.a8p+07] cover=[0x1.76p+07 0x0p+00 0x1.9p+04]",
	"UQ2/EW-avg-split=true/2":    "U=0x1.a8p+07 sizes=[0x1.76p+07 0x1.44p+07 0x1.a8p+07] cover=[0x1.76p+07 0x0p+00 0x1.9p+04]",
	"UQ3/EO-bound-split=false/0": "U=0x1.2ea8p+15 sizes=[0x1.f4p+13 0x1.c5cp+12 0x1.194p+14] cover=[0x1.f4p+13 0x1.be4p+12 0x1.e78p+13]",
	"UQ3/EO-bound-split=true/0":  "U=0x1.2ea8p+15 sizes=[0x1.f4p+13 0x1.c5cp+12 0x1.194p+14] cover=[0x1.f4p+13 0x1.be4p+12 0x1.e78p+13]",
	"UQ3/EO-avg-split=false/0":   "U=0x1.3e7f960db9bd8p+15 sizes=[0x1.f4p+13 0x1.c5cp+12 0x1.194p+14] cover=[0x1.f4p+13 0x1.c36b7ec1dd343p+12 0x1.12244c6afc2dep+14]",
	"UQ3/EO-avg-split=true/0":    "U=0x1.3e7f960db9bd8p+15 sizes=[0x1.f4p+13 0x1.c5cp+12 0x1.194p+14] cover=[0x1.f4p+13 0x1.c36b7ec1dd343p+12 0x1.12244c6afc2dep+14]",
	"UQ3/EW-bound-split=false/0": "U=0x1.de2p+11 sizes=[0x1.2bap+11 0x1.83p+10 0x1.76cp+10] cover=[0x1.2bap+11 0x1.65p+10 0x0p+00]",
	"UQ3/EW-bound-split=true/0":  "U=0x1.de2p+11 sizes=[0x1.2bap+11 0x1.83p+10 0x1.76cp+10] cover=[0x1.2bap+11 0x1.65p+10 0x0p+00]",
	"UQ3/EW-avg-split=false/0":   "U=0x1.357cb06dcdebap+12 sizes=[0x1.2bap+11 0x1.83p+10 0x1.76cp+10] cover=[0x1.2bap+11 0x1.79adfb0774d0cp+10 0x1.0504c6afc2ddap+10]",
	"UQ3/EW-avg-split=true/0":    "U=0x1.357cb06dcdebap+12 sizes=[0x1.2bap+11 0x1.83p+10 0x1.76cp+10] cover=[0x1.2bap+11 0x1.79adfb0774d0cp+10 0x1.0504c6afc2ddap+10]",
	"UQ3/EO-bound-split=false/1": "U=0x1.c762p+15 sizes=[0x1.05d8p+14 0x1.bd8p+12 0x1.2168p+15] cover=[0x1.05d8p+14 0x1.b66p+12 0x1.0daap+15]",
	"UQ3/EO-bound-split=true/1":  "U=0x1.c762p+15 sizes=[0x1.05d8p+14 0x1.bd8p+12 0x1.2168p+15] cover=[0x1.05d8p+14 0x1.b66p+12 0x1.0daap+15]",
	"UQ3/EO-avg-split=false/1":   "U=0x1.d85dc4acafaa6p+15 sizes=[0x1.05d8p+14 0x1.bd8p+12 0x1.2168p+15] cover=[0x1.05d8p+14 0x1.bb3a3bc6d2849p+12 0x1.1e0a7d33d559dp+15]",
	"UQ3/EO-avg-split=true/1":    "U=0x1.d85dc4acafaa6p+15 sizes=[0x1.05d8p+14 0x1.bd8p+12 0x1.2168p+15] cover=[0x1.05d8p+14 0x1.bb3a3bc6d2849p+12 0x1.1e0a7d33d559dp+15]",
	"UQ3/EW-bound-split=false/1": "U=0x1.c38p+11 sizes=[0x1.14ap+11 0x1.7a4p+10 0x1.54cp+10] cover=[0x1.14ap+11 0x1.5dcp+10 0x0p+00]",
	"UQ3/EW-bound-split=true/1":  "U=0x1.c38p+11 sizes=[0x1.14ap+11 0x1.7a4p+10 0x1.54cp+10] cover=[0x1.14ap+11 0x1.5dcp+10 0x0p+00]",
	"UQ3/EW-avg-split=false/1":   "U=0x1.20de25657d534p+12 sizes=[0x1.14ap+11 0x1.7a4p+10 0x1.54cp+10] cover=[0x1.14ap+11 0x1.7128ef1b4a123p+10 0x1.d21f4cf55675ap+09]",
	"UQ3/EW-avg-split=true/1":    "U=0x1.20de25657d534p+12 sizes=[0x1.14ap+11 0x1.7a4p+10 0x1.54cp+10] cover=[0x1.14ap+11 0x1.7128ef1b4a123p+10 0x1.d21f4cf55675ap+09]",
	"UQ3/EO-bound-split=false/2": "U=0x1.a724p+15 sizes=[0x1.0ep+14 0x1.b54p+12 0x1.f9cp+14] cover=[0x1.0ep+14 0x1.aeep+12 0x1.d49p+14]",
	"UQ3/EO-bound-split=true/2":  "U=0x1.a724p+15 sizes=[0x1.0ep+14 0x1.b54p+12 0x1.f9cp+14] cover=[0x1.0ep+14 0x1.aeep+12 0x1.d49p+14]",
	"UQ3/EO-avg-split=false/2":   "U=0x1.b73c54a16f578p+15 sizes=[0x1.0ep+14 0x1.b54p+12 0x1.f9cp+14] cover=[0x1.0ep+14 0x1.b32faa384b0ecp+12 0x1.f3acbeb4cbeb5p+14]",
	"UQ3/EO-avg-split=true/2":    "U=0x1.b73c54a16f578p+15 sizes=[0x1.0ep+14 0x1.b54p+12 0x1.f9cp+14] cover=[0x1.0ep+14 0x1.b32faa384b0ecp+12 0x1.f3acbeb4cbeb5p+14]",
	"UQ3/EW-bound-split=false/2": "U=0x1.b18p+11 sizes=[0x1.042p+11 0x1.744p+10 0x1.51cp+10] cover=[0x1.042p+11 0x1.5acp+10 0x0p+00]",
	"UQ3/EW-bound-split=true/2":  "U=0x1.b18p+11 sizes=[0x1.042p+11 0x1.744p+10 0x1.51cp+10] cover=[0x1.042p+11 0x1.5acp+10 0x0p+00]",
	"UQ3/EW-avg-split=false/2":   "U=0x1.1932a50b7abbfp+12 sizes=[0x1.042p+11 0x1.744p+10 0x1.51cp+10] cover=[0x1.042p+11 0x1.6bfea8e12c3bp+10 0x1.e117d6997d69ap+09]",
	"UQ3/EW-avg-split=true/2":    "U=0x1.1932a50b7abbfp+12 sizes=[0x1.042p+11 0x1.744p+10 0x1.51cp+10] cover=[0x1.042p+11 0x1.6bfea8e12c3bp+10 0x1.e117d6997d69ap+09]",
}

func TestHistogramParamsPinned(t *testing.T) {
	print := os.Getenv("GOLDEN_PRINT") != ""
	for _, name := range []string{"UQ1", "UQ2", "UQ3"} {
		w, err := tpch.ByName(name, tpch.Config{SF: 1, Overlap: 0.2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			if round > 0 {
				burst(w.Joins, round-1)
			}
			for _, o := range histogramConfigs() {
				key := fmt.Sprintf("%s/%s/%d", name, configName(o), round)
				got := paramsRow(t, w.Joins, o)
				if print {
					fmt.Printf("\t%q: %q,\n", key, got)
					continue
				}
				if want, ok := pinnedHistogramParams[key]; !ok || got != want {
					t.Errorf("%s:\n got %s\nwant %s", key, got, want)
				}
			}
		}
	}
}

// schemas names mixedUnion's relations' two attributes, in order.
var schemas = []string{"AB", "BC", "CA", "CD", "AB", "BC", "CD"}

// mixedUnion builds a triangle R(A,B) ⋈ S(B,C) ⋈ T(C,A) with a pendant
// U(C,D), and a chain P(A,B) ⋈ Q(B,C) ⋈ V(C,D), over the given rows, so
// the warm-up takes the template path through a cyclic join's residual
// (T) and Theorem 4 multiplies in a degree factor read from R and P,
// two relations with deleted rows.
func mixedUnion(t testing.TB, rows [][]relation.Tuple) ([]*join.Join, []*relation.Relation) {
	t.Helper()
	rels := make([]*relation.Relation, len(schemas))
	for k, s := range schemas {
		schema := relation.NewSchema(s[:1], s[1:])
		rels[k] = relation.MustFromTuples(fmt.Sprintf("R%d", k), schema, rows[k])
	}
	cyc, err := join.NewCyclic("cyclic", rels[:4], []join.Edge{
		{A: 0, B: 1, Attr: "B"}, {A: 1, B: 2, Attr: "C"}, {A: 2, B: 0, Attr: "A"}, {A: 1, B: 3, Attr: "C"},
	}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := join.NewChain("chain", rels[4:], []string{"B", "C"})
	if err != nil {
		t.Fatal(err)
	}
	return []*join.Join{cyc, chain}, rels
}

// TestParamsUnderConcurrentMutation: the warm-up reads degrees while
// another goroutine appends and deletes rows (run it under -race), and
// once the writer stops — and the cyclic join's residual is reconciled,
// as a refresh does — its parameters are, bit for bit, those of a union
// built fresh from the same live rows.
func TestParamsUnderConcurrentMutation(t *testing.T) {
	// Small value domains, so every relation joins its neighbours.
	cell := func(attr byte, i int) relation.Value {
		return relation.Value(int(attr-'A')*100 + i%(7+int(attr-'A')))
	}
	rows := make([][]relation.Tuple, len(schemas))
	for k, s := range schemas {
		for i := 0; i < 30; i++ {
			rows[k] = append(rows[k], relation.Tuple{cell(s[0], i+k), cell(s[1], 3*i+k)})
		}
	}
	joins, rels := mixedUnion(t, rows)
	configs := histogramConfigs()
	var reads atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 0; round < 300; round++ {
			// Pace the writes so that every warm-up overlaps some.
			for reads.Load() < int64(round/15) {
				runtime.Gosched()
			}
			k := round % len(rels)
			r := rels[k]
			r.Append(relation.Tuple{cell(schemas[k][0], 5*round), cell(schemas[k][1], 2*round+1)})
			if round%3 != 0 {
				r.Delete((round * 7) % r.Len())
			}
		}
	}()
	var firstErr error
read:
	for i := 0; ; i++ {
		select {
		case <-done:
			break read
		default:
		}
		// Keep reading after an error: the writer waits for reads.
		if _, err := (&core.HistogramEstimator{Joins: joins, Opts: configs[i%len(configs)]}).Params(nil); err != nil && firstErr == nil {
			firstErr = err
		}
		joins[0].FreshenResidual()
		reads.Add(1)
	}
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	joins[0].FreshenResidual()
	live := make([][]relation.Tuple, len(rels))
	for k, r := range rels {
		live[k] = r.Tuples()
	}
	fresh, _ := mixedUnion(t, live)
	for _, o := range configs {
		if got, want := paramsRow(t, joins, o), paramsRow(t, fresh, o); got != want {
			t.Errorf("%s: mutated union %s, fresh union %s", configName(o), got, want)
		}
	}
}
