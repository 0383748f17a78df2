package relation

import "fmt"

// Predicate is a selection condition over a tuple. Predicates support
// the paper's selection-predicate pushdown (§8.3): relations are filtered
// during preprocessing and sampling proceeds over the filtered data.
type Predicate interface {
	// Eval reports whether the tuple satisfies the predicate under the
	// given schema.
	Eval(t Tuple, s *Schema) bool
	// String renders the predicate for logs and EXPLAIN-style output.
	String() string
}

// CmpOp is a comparison operator for attribute predicates.
type CmpOp int

// Comparison operators.
const (
	EQ CmpOp = iota // equal
	NE              // not equal
	LT              // less than
	LE              // less or equal
	GT              // greater than
	GE              // greater or equal
)

func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	}
	return "?"
}

// ParseCmpOp is the inverse of CmpOp.String; "==" also reads as EQ.
func ParseCmpOp(s string) (CmpOp, error) {
	if s == "==" {
		return EQ, nil
	}
	for op := EQ; op <= GE; op++ {
		if op.String() == s {
			return op, nil
		}
	}
	return 0, fmt.Errorf("unknown comparison operator %q (valid: = != < <= > >=)", s)
}

// apply evaluates `a op b`.
func (op CmpOp) apply(a, b Value) bool {
	switch op {
	case EQ:
		return a == b
	case NE:
		return a != b
	case LT:
		return a < b
	case LE:
		return a <= b
	case GT:
		return a > b
	case GE:
		return a >= b
	}
	return false
}

// Cmp compares an attribute against a constant.
type Cmp struct {
	Attr string
	Op   CmpOp
	Val  Value
}

// Eval implements Predicate. A tuple whose schema lacks the attribute
// fails the predicate.
func (c Cmp) Eval(t Tuple, s *Schema) bool {
	i := s.Index(c.Attr)
	if i < 0 {
		return false
	}
	return c.Op.apply(t[i], c.Val)
}

func (c Cmp) String() string {
	return fmt.Sprintf("%s %s %d", c.Attr, c.Op, c.Val)
}

// And is the conjunction of predicates; an empty And is true.
type And []Predicate

// Eval implements Predicate.
func (a And) Eval(t Tuple, s *Schema) bool {
	for _, p := range a {
		if !p.Eval(t, s) {
			return false
		}
	}
	return true
}

func (a And) String() string {
	if len(a) == 0 {
		return "true"
	}
	out := ""
	for i, p := range a {
		if i > 0 {
			out += " AND "
		}
		out += p.String()
	}
	return out
}

// Or is the disjunction of predicates; an empty Or is false.
type Or []Predicate

// Eval implements Predicate.
func (o Or) Eval(t Tuple, s *Schema) bool {
	for _, p := range o {
		if p.Eval(t, s) {
			return true
		}
	}
	return false
}

func (o Or) String() string {
	if len(o) == 0 {
		return "false"
	}
	out := ""
	for i, p := range o {
		if i > 0 {
			out += " OR "
		}
		out += p.String()
	}
	return out
}

// Not negates a predicate.
type Not struct{ P Predicate }

// Eval implements Predicate.
func (n Not) Eval(t Tuple, s *Schema) bool { return !n.P.Eval(t, s) }

func (n Not) String() string { return "NOT (" + n.P.String() + ")" }

// True is the always-true predicate.
type True struct{}

// Eval implements Predicate.
func (True) Eval(Tuple, *Schema) bool { return true }

func (True) String() string { return "true" }

// In tests membership of an attribute in a value set.
type In struct {
	Attr string
	Vals map[Value]struct{}
}

// NewIn builds an In predicate over the given values.
func NewIn(attr string, vals ...Value) In {
	m := make(map[Value]struct{}, len(vals))
	for _, v := range vals {
		m[v] = struct{}{}
	}
	return In{Attr: attr, Vals: m}
}

// Eval implements Predicate.
func (in In) Eval(t Tuple, s *Schema) bool {
	i := s.Index(in.Attr)
	if i < 0 {
		return false
	}
	_, ok := in.Vals[t[i]]
	return ok
}

func (in In) String() string {
	return fmt.Sprintf("%s IN (%d values)", in.Attr, len(in.Vals))
}
