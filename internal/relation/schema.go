package relation

import (
	"fmt"
	"strings"
)

// Schema is an ordered list of attribute names. Names are unique within
// a schema. Join attributes across relations are standardized to share
// names, following the paper's convention (§2).
type Schema struct {
	attrs []string
	index map[string]int
}

// NewSchema builds a schema from attribute names. It panics on duplicate
// or empty names: schemas are programmer-constructed, so a malformed one
// is a bug, not an input error.
func NewSchema(attrs ...string) *Schema {
	s := &Schema{
		attrs: append([]string(nil), attrs...),
		index: make(map[string]int, len(attrs)),
	}
	for i, a := range attrs {
		if a == "" {
			panic("relation: empty attribute name")
		}
		if _, dup := s.index[a]; dup {
			panic(fmt.Sprintf("relation: duplicate attribute %q", a))
		}
		s.index[a] = i
	}
	return s
}

// Len reports the number of attributes (the arity).
func (s *Schema) Len() int { return len(s.attrs) }

// Attrs returns the attribute names in order.
func (s *Schema) Attrs() []string {
	return append([]string(nil), s.attrs...)
}

// Attr returns the i-th attribute name.
func (s *Schema) Attr(i int) string { return s.attrs[i] }

// Index returns the position of attribute a, or -1 if absent.
func (s *Schema) Index(a string) int {
	if i, ok := s.index[a]; ok {
		return i
	}
	return -1
}

// Has reports whether a is an attribute of s.
func (s *Schema) Has(a string) bool {
	_, ok := s.index[a]
	return ok
}

// Equal reports whether s and o have identical attribute lists.
func (s *Schema) Equal(o *Schema) bool {
	if s.Len() != o.Len() {
		return false
	}
	for i, a := range s.attrs {
		if o.attrs[i] != a {
			return false
		}
	}
	return true
}

// Project returns the positions of the given attributes in s. It returns
// an error if any attribute is missing.
func (s *Schema) Project(attrs []string) ([]int, error) {
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		j := s.Index(a)
		if j < 0 {
			return nil, fmt.Errorf("relation: attribute %q not in schema %v", a, s.attrs)
		}
		idx[i] = j
	}
	return idx, nil
}

// Perm returns perm such that aligned[i] = t[perm[i]] expresses a tuple t
// of schema from in s's order. It fails unless from holds exactly s's
// attributes, in any order (§2's unionability assumption).
func (s *Schema) Perm(from *Schema) ([]int, error) {
	if s.Len() != from.Len() {
		return nil, fmt.Errorf("relation: schema %v has arity %d, want %d", from.attrs, from.Len(), s.Len())
	}
	return from.Project(s.attrs)
}

func (s *Schema) String() string {
	return "(" + strings.Join(s.attrs, ", ") + ")"
}
