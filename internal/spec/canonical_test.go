package spec

import (
	"bufio"
	"errors"
	"strings"
	"testing"
)

// TestLineLimit pins the 1 MiB line limit at its boundary: the longest
// line the scanner's grown buffer can hold (terminator included) still
// canonicalizes and parses its way to a statement error, one more byte
// is bufio.ErrTooLong from both entry points.
func TestLineLimit(t *testing.T) {
	fits := strings.Repeat("x", maxLineBytes-1) + "\n"
	got, err := Canonical(strings.NewReader(fits))
	if err != nil {
		t.Fatalf("line of %d bytes: %v", len(fits), err)
	}
	if got != fits {
		t.Fatalf("canonical form of a %d-byte line has %d bytes", len(fits), len(got))
	}
	if _, err := Parse(strings.NewReader(fits), nil); err == nil || errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("Parse of a %d-byte line: err = %v, want an unknown-statement error", len(fits), err)
	}
	tooLong := "x" + fits
	if _, err := Canonical(strings.NewReader(tooLong)); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("Canonical of a %d-byte line: err = %v, want bufio.ErrTooLong", len(tooLong), err)
	}
	if _, err := Parse(strings.NewReader(tooLong), nil); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("Parse of a %d-byte line: err = %v, want bufio.ErrTooLong", len(tooLong), err)
	}
}

func TestCanonicalNormalizesFormatting(t *testing.T) {
	a := `
# load the base relations
rel   nation   nation.csv
rel supplier supplier.csv   # trailing comment
filter supplier s_acctbal <   5000

chain J1 nation nationkey supplier
tree J2 nation; supplier nation nationkey;
`
	b := `rel nation nation.csv
rel supplier supplier.csv
filter supplier s_acctbal < 5000
chain J1 nation nationkey supplier
tree J2 nation ; supplier nation nationkey ;`
	ca, err := Canonical(strings.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	cb, err := Canonical(strings.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if ca != cb {
		t.Fatalf("canonical forms differ:\n%q\nvs\n%q", ca, cb)
	}
}

func TestCanonicalPreservesOrderAndContent(t *testing.T) {
	a := "rel x x.csv\nrel y y.csv\nchain J x k y\n"
	b := "rel y y.csv\nrel x x.csv\nchain J x k y\n"
	ca, _ := Canonical(strings.NewReader(a))
	cb, _ := Canonical(strings.NewReader(b))
	if ca == cb {
		t.Fatal("statement order must be significant")
	}
}

func TestFingerprint(t *testing.T) {
	f1, err := Fingerprint("rel x x.csv\nchain  J x k x # dup join\n")
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Fingerprint("rel x x.csv\nchain J x k x")
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Fatalf("formatting changed the fingerprint: %s vs %s", f1, f2)
	}
	f3, err := Fingerprint("rel x x.csv\nchain J x k x", "seed=2")
	if err != nil {
		t.Fatal(err)
	}
	if f3 == f1 {
		t.Fatal("extra components must change the fingerprint")
	}
	// Length-prefixing: shifting bytes between components must not collide.
	f4, _ := Fingerprint("rel x x.csv\nchain J x k x", "se", "ed=2")
	if f4 == f3 {
		t.Fatal("component boundaries must be part of the hash")
	}
	if len(f1) != 64 {
		t.Fatalf("want 64 hex chars, got %d", len(f1))
	}
}
