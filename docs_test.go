package sampleunion_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"sampleunion/internal/bench"
)

// TestDocsNameThingsThatExist keeps the prose honest: README.md, the
// verify skill, the CI workflow and the comments of non-test Go files
// outside benchmark/ may only name a unionbench experiment that
// bench.Lookup resolves, and an all-caps .md or .json file (CHANGES.md,
// BENCHMARK.json, a per-PR bench record) that is in the repository.
func TestDocsNameThingsThatExist(t *testing.T) {
	var (
		expRef  = regexp.MustCompile(`-exp ([a-z0-9][a-z0-9-]*)`)
		fileRef = regexp.MustCompile(`\b[A-Z][A-Z0-9_]+\.(?:md|json)\b`)
	)
	inRepo := map[string]bool{} // base names of every file in the tree
	texts := map[string]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		inRepo[d.Name()] = true
		switch {
		case path == "README.md", path == ".claude/skills/verify/SKILL.md", path == ".github/workflows/ci.yml":
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			texts[path] = string(b)
		case strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") && !strings.HasPrefix(path, "benchmark/"):
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
			if err != nil {
				return err
			}
			var sb strings.Builder
			for _, g := range f.Comments {
				sb.WriteString(g.Text())
			}
			texts[path] = sb.String()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path, text := range texts {
		for _, m := range expRef.FindAllStringSubmatch(text, -1) {
			if _, ok := bench.Lookup(m[1]); !ok {
				t.Errorf("%s: `-exp %s` is not a unionbench experiment", path, m[1])
			}
		}
		for _, name := range fileRef.FindAllString(text, -1) {
			if !inRepo[name] {
				t.Errorf("%s: names %s, which is not in the repository", path, name)
			}
		}
	}
}
