package aqp

import (
	"fmt"
	"sort"

	"sampleunion/internal/relation"
)

// Group is one group's estimated share of the union.
type Group struct {
	Key   relation.Value
	Count Result
}

// GroupCount estimates COUNT(*) GROUP BY attr over the union: each
// distinct value of attr observed in the samples gets an estimated
// group size with a binomial confidence half-width. Groups are returned
// in descending estimated size, ties broken by key.
//
// Rare groups may be absent from the sample entirely; with n samples,
// groups smaller than about |U|/n are expected to be missed — the
// usual small-group caveat of sampling-based AQP.
func GroupCount(samples []relation.Tuple, schema *relation.Schema, attr string, unionSize, z float64) ([]Group, error) {
	pos := schema.Index(attr)
	if pos < 0 {
		return nil, fmt.Errorf("aqp: attribute %q not in schema %v", attr, schema)
	}
	n := len(samples)
	if n == 0 {
		return nil, fmt.Errorf("aqp: no samples")
	}
	counts := make(map[relation.Value]int)
	for _, t := range samples {
		counts[t[pos]]++
	}
	out := make([]Group, 0, len(counts))
	for k, c := range counts {
		p := float64(c) / float64(n)
		// Same Wilson floor as Count: a group holding every sample
		// (c == n) must not claim a zero-width interval.
		out = append(out, Group{
			Key: k,
			Count: Result{
				Value:     unionSize * p,
				HalfWidth: unionSize * binomialHalfWidth(c, n, z),
				N:         c,
				size:      unionSize,
			},
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count.Value != out[j].Count.Value {
			return out[i].Count.Value > out[j].Count.Value
		}
		return out[i].Key < out[j].Key
	})
	return out, nil
}
