// Package relation implements the in-memory relational substrate used by
// the union-sampling framework: typed tuples, schemas, relations with
// per-attribute hash indexes, selection predicates, vertical and
// horizontal splits, and CSV import/export.
//
// Values are int64 throughout the engine. String-valued columns are
// interned through a Dictionary at the edges, which keeps the sampling
// hot path allocation-free and every attribute value usable as a map key.
package relation

import (
	"fmt"
	"sync"
)

// Value is the single scalar type stored by the engine. Integer columns
// map directly; string columns are dictionary-encoded (see Dictionary).
type Value int64

// Null is the distinguished missing value. Join attributes never take
// Null; payload attributes may.
const Null Value = -1 << 62

// Dictionary interns strings to Values and back. It is safe for
// concurrent use. The zero value is not ready; use NewDictionary.
type Dictionary struct {
	mu      sync.RWMutex
	byStr   map[string]Value
	byValue []string
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{byStr: make(map[string]Value)}
}

// Encode returns the Value for s, interning it if new.
func (d *Dictionary) Encode(s string) Value {
	d.mu.RLock()
	v, ok := d.byStr[s]
	d.mu.RUnlock()
	if ok {
		return v
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if v, ok := d.byStr[s]; ok {
		return v
	}
	v = Value(len(d.byValue))
	d.byStr[s] = v
	d.byValue = append(d.byValue, s)
	return v
}

// EncodeAll interns every string in ss and returns their Values in
// order. Known strings resolve under one read lock; only the batch's
// novel strings pay a write-lock round, so bulk ingest (CSV import,
// column loads) locks twice per column instead of twice per cell.
func (d *Dictionary) EncodeAll(ss []string) []Value {
	out := make([]Value, len(ss))
	miss := 0
	d.mu.RLock()
	for i, s := range ss {
		if v, ok := d.byStr[s]; ok {
			out[i] = v
		} else {
			out[i] = Null
			miss++
		}
	}
	d.mu.RUnlock()
	if miss == 0 {
		return out
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, s := range ss {
		if out[i] != Null {
			continue
		}
		v, ok := d.byStr[s]
		if !ok {
			v = Value(len(d.byValue))
			d.byStr[s] = v
			d.byValue = append(d.byValue, s)
		}
		out[i] = v
	}
	return out
}

// Decode returns the string for v. The second result reports whether v
// was produced by this dictionary.
func (d *Dictionary) Decode(v Value) (string, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if v < 0 || int(v) >= len(d.byValue) {
		return "", false
	}
	return d.byValue[v], true
}

// Len reports the number of interned strings.
func (d *Dictionary) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.byValue)
}

// Strings returns the interned strings in Value order.
func (d *Dictionary) Strings() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, len(d.byValue))
	copy(out, d.byValue)
	return out
}

// Tuple is one row: attribute values in schema order.
type Tuple []Value

// Clone returns a copy of t.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Equal reports whether t and u have the same length and values.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

func (t Tuple) String() string {
	return fmt.Sprint([]Value(t))
}
