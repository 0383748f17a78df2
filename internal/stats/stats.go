// Package stats builds the column statistics that the histogram-based
// estimation of §5 consumes: per-attribute value-frequency histograms,
// maximum degrees (Olken's M_A(R)), and average degrees. These mirror
// the histogram statistics DBMSs maintain for cardinality estimation,
// which is exactly the decentralized setting the paper targets: overlap
// estimation from metadata alone, without touching the data.
package stats

import (
	"fmt"
	"sort"

	"sampleunion/internal/relation"
)

// AttrStats summarizes the value distribution of one attribute.
type AttrStats struct {
	Attr  string                 // attribute name
	Freq  map[relation.Value]int // value -> number of rows (the histogram)
	Total int                    // number of rows
	Max   int                    // maximum degree, M_A(R)
}

// BuildAttr computes statistics for the attribute at position pos of r.
func BuildAttr(r *relation.Relation, pos int) *AttrStats {
	ids, _, _ := r.LiveRows()
	return buildAttr(r.Schema().Attr(pos), r.Cols()[pos], ids)
}

// buildAttr computes one attribute's statistics over the captured live
// rows of its column vector.
func buildAttr(attr string, col []relation.Value, ids []int) *AttrStats {
	s := &AttrStats{Attr: attr, Freq: make(map[relation.Value]int), Total: len(ids)}
	for _, i := range ids {
		s.Freq[col[i]]++
	}
	for _, c := range s.Freq {
		if c > s.Max {
			s.Max = c
		}
	}
	return s
}

// Degree returns the frequency of v (0 when absent).
func (s *AttrStats) Degree(v relation.Value) int { return s.Freq[v] }

// Distinct reports the number of distinct values.
func (s *AttrStats) Distinct() int { return len(s.Freq) }

// Avg returns the average degree (rows per distinct value), 0 when empty.
func (s *AttrStats) Avg() float64 {
	if len(s.Freq) == 0 {
		return 0
	}
	return float64(s.Total) / float64(len(s.Freq))
}

// Values returns the distinct values in sorted order, for deterministic
// iteration in estimators and tests.
func (s *AttrStats) Values() []relation.Value {
	vs := make([]relation.Value, 0, len(s.Freq))
	for v := range s.Freq {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}

// RelStats bundles the statistics of every attribute of a relation.
// It is the "limited metadata" a data market would expose.
type RelStats struct {
	Name  string
	Size  int
	Attrs map[string]*AttrStats
}

// Build computes full statistics for r over one capture of it: the live
// rows are taken once, atomically with respect to mutations, and the
// column vectors read afterwards hold every one of them (storage is
// monotone), so under concurrent appends and deletes Size and every
// attribute's Total and Freq still describe the same rows.
func Build(r *relation.Relation) *RelStats {
	ids, _, _ := r.LiveRows()
	cols := r.Cols()
	rs := &RelStats{
		Name:  r.Name(),
		Size:  len(ids),
		Attrs: make(map[string]*AttrStats, len(cols)),
	}
	for i, col := range cols {
		attr := r.Schema().Attr(i)
		rs.Attrs[attr] = buildAttr(attr, col, ids)
	}
	return rs
}

// Attr returns the statistics for the named attribute or an error.
func (rs *RelStats) Attr(name string) (*AttrStats, error) {
	if a, ok := rs.Attrs[name]; ok {
		return a, nil
	}
	return nil, fmt.Errorf("stats: relation %s has no attribute %q", rs.Name, name)
}

// MaxDegree returns M_A(R) for the named attribute (0 when absent, which
// is the correct degenerate bound for a missing join attribute).
func (rs *RelStats) MaxDegree(attr string) int {
	if a, ok := rs.Attrs[attr]; ok {
		return a.Max
	}
	return 0
}
