package spec

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
)

// Canonical rewrites a specification into its canonical text: comments
// and blank lines dropped, fields re-joined with single spaces, and the
// `;` group separators of tree/cyclic statements normalized to
// stand-alone tokens. Statement order is preserved — it is significant
// (joins sample in declaration order and filters replace relations in
// place) — so two specs canonicalize equal iff they differ only in
// formatting. Canonical does not validate the spec beyond tokenizing;
// callers that need full validation Parse separately.
func Canonical(r io.Reader) (string, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(nil, maxLineBytes)
	var b strings.Builder
	for scanner.Scan() {
		line := scanner.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		// Detach glued separators ("root;" -> "root", ";") so grouping
		// punctuation never changes the canonical form.
		norm := make([]string, 0, len(fields))
		for _, f := range fields {
			for {
				i := strings.IndexByte(f, ';')
				if i < 0 {
					break
				}
				if i > 0 {
					norm = append(norm, f[:i])
				}
				norm = append(norm, ";")
				f = f[i+1:]
			}
			if f != "" {
				norm = append(norm, f)
			}
		}
		b.WriteString(strings.Join(norm, " "))
		b.WriteByte('\n')
	}
	if err := scanner.Err(); err != nil {
		return "", fmt.Errorf("spec: %w", err)
	}
	return b.String(), nil
}

// Fingerprint hashes the canonical form of a specification together
// with any extra identity components (a serving layer folds in the
// sampling options, for example), returning a stable hex key. Two
// fingerprints are equal iff the canonical spec text and every extra
// component are equal; components are length-prefixed so no
// concatenation of different parts can collide.
func Fingerprint(specText string, extra ...string) (string, error) {
	canon, err := Canonical(strings.NewReader(specText))
	if err != nil {
		return "", err
	}
	h := sha256.New()
	write := func(s string) {
		fmt.Fprintf(h, "%d:", len(s))
		io.WriteString(h, s)
	}
	write(canon)
	for _, e := range extra {
		write(e)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
