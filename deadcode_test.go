package sampleunion_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// testOnlyAllowed names the product functions and methods that only
// _test.go files call and that stay anyway, each with its reason. The
// list may only shrink: delete an entry when its function goes or gains
// a product caller (the test fails on an entry it no longer needs), and
// add none; code that only tests call is deleted or moved into the
// tests, as LINES_MAX's comment in the CI workflow asks of code.
var testOnlyAllowed = map[string]string{
	"sampleunion.Session.SampleDisjoint":      "public library API: Definition 1's disjoint union",
	"core.prepared.Samplers":                  "test support: reftest's structural tests read a session's EW tables through it",
	"repl.NewFaultInjector":                   "test support: serve's replication tests import the fault injector",
	"repl.FaultInjector.Enable":               "test support: serve's replication tests import the fault injector",
	"repl.FaultInjector.Disable":              "test support: serve's replication tests import the fault injector",
	"relation.MustFromTuples":                 "test support: the tests of eight other packages build their fixtures with it",
	"relation.Relation.SetHashDegradeForTest": "test support: join's tests force hash collisions through it",
	"join.Join.MemberCount":                   "reftest's checkRefreshed reads it until the structural digest (ROADMAP item 12) replaces that check",
	"relation.Relation.DistinctCount":         "reftest's checkRefreshed reads it until the structural digest (ROADMAP item 12) replaces that check",
	"joinsample.EW.ExactCount":                "exact sizes under EW (ROADMAP item 1) give it a product reader",
}

// TestNoTestOnlyProductCode fails for a top-level function or method of
// the product packages (every non-test file outside examples/, cmd/ and
// benchmark/) whose name no non-test file uses: one that only _test.go
// files call, or nothing does. Callers count from every other Go file in
// the tree, the benchmark module's included. The match is by name, so a
// method that shares its name with one in use counts as used: the test
// under-reports and never flags live code.
func TestNoTestOnlyProductCode(t *testing.T) {
	type decl struct{ key, name, pos string }
	var (
		decls  []decl
		inProd = map[string]bool{} // names a non-test file uses
	)
	fset := token.NewFileSet()
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		product := !strings.HasPrefix(path, "examples/") &&
			!strings.HasPrefix(path, "cmd/") && !strings.HasPrefix(path, "benchmark/")
		names := map[*ast.Ident]bool{} // declared names, which are not uses
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			names[fd.Name] = true
			if product {
				key := f.Name.Name + "." + fd.Name.Name
				if fd.Recv != nil {
					key = f.Name.Name + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				p := fset.Position(fd.Name.Pos())
				decls = append(decls, decl{key, fd.Name.Name, fmt.Sprintf("%s:%d", p.Filename, p.Line)})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !names[id] {
				inProd[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[string]bool{}
	for _, d := range decls {
		if inProd[d.name] || d.name == "init" {
			continue
		}
		flagged[d.key] = true
		if _, ok := testOnlyAllowed[d.key]; !ok {
			t.Errorf("%s: %s has no caller outside tests: delete it, or move it into a _test.go file", d.pos, d.key)
		}
	}
	for key := range testOnlyAllowed {
		if !flagged[key] {
			t.Errorf("testOnlyAllowed lists %s, which is gone or has a product caller: delete the entry", key)
		}
	}
}

// recvName is the type name of a method's receiver: T for T and *T.
func recvName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "?" // a generic receiver, which the product code has none of
}
