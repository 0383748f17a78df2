// Package spec parses union-query specifications from a small
// line-oriented text format, turning CSV relations on disk into an
// executable set of joins. It is the glue between cmd/dbgen's output
// and cmd/sampler's input, and doubles as a minimal relational-algebra
// front end for the library.
//
// Format (one statement per line, '#' starts a comment):
//
//	rel    <name> <csv-file>                 load a relation
//	filter <name> <attr> <op> <int>          replace relation with its selection
//	chain  <join> <rel> [<attr> <rel>]...    chain join, attrs between relations
//	tree   <join> <root> ; <rel> <parent> <attr> ; ...
//	cyclic <join> <rel> <rel>... ; <relA> <relB> <attr> ; ...
//
// ops: = != < <= > >=
//
// Example:
//
//	rel nation nation.csv
//	rel supplier supplier_v0.csv
//	filter supplier s_acctbal < 5000
//	chain J1 nation nationkey supplier
package spec

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"sampleunion/internal/join"
	"sampleunion/internal/relation"
)

// Loader resolves a file reference from a `rel` statement to a loaded
// relation. cmd/sampler uses a CSV-from-directory loader; tests use an
// in-memory one.
type Loader func(name, file string) (*relation.Relation, error)

// Union is a parsed specification: named relations and the joins whose
// union is sampled, in declaration order.
type Union struct {
	Relations map[string]*relation.Relation
	Joins     []*join.Join
}

// maxLineBytes bounds one spec line, terminator included. The scanner
// grows its buffer up to the bound on demand — handing it the maximum up
// front would cost every Canonical call (one per HTTP request, through
// UnionDecl.Key) a 1 MiB allocation.
const maxLineBytes = 1 << 20

// Parse reads a specification, loading relations through the loader.
func Parse(r io.Reader, load Loader) (*Union, error) {
	u := &Union{Relations: make(map[string]*relation.Relation)}
	scanner := bufio.NewScanner(r)
	scanner.Buffer(nil, maxLineBytes)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := scanner.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		var err error
		switch fields[0] {
		case "rel":
			err = u.parseRel(fields[1:], load)
		case "filter":
			err = u.parseFilter(fields[1:])
		case "chain":
			err = u.parseChain(fields[1:])
		case "tree":
			err = u.parseTree(fields[1:])
		case "cyclic":
			err = u.parseCyclic(fields[1:])
		default:
			err = fmt.Errorf("unknown statement %q", fields[0])
		}
		if err != nil {
			return nil, fmt.Errorf("spec: line %d: %w", lineNo, err)
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if len(u.Joins) == 0 {
		return nil, fmt.Errorf("spec: no joins declared")
	}
	return u, nil
}

func (u *Union) parseRel(args []string, load Loader) error {
	if len(args) != 2 {
		return fmt.Errorf("rel wants <name> <file>, got %d args", len(args))
	}
	name, file := args[0], args[1]
	if _, dup := u.Relations[name]; dup {
		return fmt.Errorf("relation %q already declared", name)
	}
	r, err := load(name, file)
	if err != nil {
		return fmt.Errorf("loading %q: %w", file, err)
	}
	u.Relations[name] = r
	return nil
}

func (u *Union) parseFilter(args []string) error {
	if len(args) != 4 {
		return fmt.Errorf("filter wants <rel> <attr> <op> <value>, got %d args", len(args))
	}
	r, ok := u.Relations[args[0]]
	if !ok {
		return fmt.Errorf("unknown relation %q", args[0])
	}
	op, err := relation.ParseCmpOp(args[2])
	if err != nil {
		return err
	}
	v, err := strconv.ParseInt(args[3], 10, 64)
	if err != nil {
		return fmt.Errorf("filter value %q: %w", args[3], err)
	}
	if !r.Schema().Has(args[1]) {
		return fmt.Errorf("relation %q has no attribute %q", args[0], args[1])
	}
	u.Relations[args[0]] = r.Filter(r.Name()+"|σ", relation.Cmp{
		Attr: args[1], Op: op, Val: relation.Value(v),
	})
	return nil
}

func (u *Union) parseChain(args []string) error {
	if len(args) < 2 || len(args)%2 != 0 {
		return fmt.Errorf("chain wants <join> <rel> [<attr> <rel>]...")
	}
	name := args[0]
	rels := []*relation.Relation{}
	attrs := []string{}
	r, ok := u.Relations[args[1]]
	if !ok {
		return fmt.Errorf("unknown relation %q", args[1])
	}
	rels = append(rels, r)
	for i := 2; i+1 < len(args); i += 2 {
		attrs = append(attrs, args[i])
		r, ok := u.Relations[args[i+1]]
		if !ok {
			return fmt.Errorf("unknown relation %q", args[i+1])
		}
		rels = append(rels, r)
	}
	j, err := join.NewChain(name, rels, attrs)
	if err != nil {
		return err
	}
	u.Joins = append(u.Joins, j)
	return nil
}

// parseTree handles: <join> <root> ; <rel> <parent> <attr> ; ...
func (u *Union) parseTree(args []string) error {
	groups := splitGroups(args)
	if len(groups) < 2 || len(groups[0]) != 2 {
		return fmt.Errorf("tree wants <join> <root> ; <rel> <parent> <attr> ; ...")
	}
	name := groups[0][0]
	rootName := groups[0][1]
	root, ok := u.Relations[rootName]
	if !ok {
		return fmt.Errorf("unknown relation %q", rootName)
	}
	rels := []*relation.Relation{root}
	names := []string{rootName}
	parents := []int{-1}
	attrs := []string{""}
	indexOf := func(n string) int {
		for i, s := range names {
			if s == n {
				return i
			}
		}
		return -1
	}
	for _, gr := range groups[1:] {
		if len(gr) != 3 {
			return fmt.Errorf("tree edge wants <rel> <parent> <attr>, got %v", gr)
		}
		r, ok := u.Relations[gr[0]]
		if !ok {
			return fmt.Errorf("unknown relation %q", gr[0])
		}
		p := indexOf(gr[1])
		if p < 0 {
			return fmt.Errorf("parent %q not yet declared in tree", gr[1])
		}
		rels = append(rels, r)
		names = append(names, gr[0])
		parents = append(parents, p)
		attrs = append(attrs, gr[2])
	}
	j, err := join.NewTree(name, rels, parents, attrs)
	if err != nil {
		return err
	}
	u.Joins = append(u.Joins, j)
	return nil
}

// parseCyclic handles: <join> <rel>... ; <relA> <relB> <attr> ; ...
func (u *Union) parseCyclic(args []string) error {
	groups := splitGroups(args)
	if len(groups) < 2 || len(groups[0]) < 2 {
		return fmt.Errorf("cyclic wants <join> <rel>... ; <relA> <relB> <attr> ; ...")
	}
	name := groups[0][0]
	relNames := groups[0][1:]
	rels := make([]*relation.Relation, len(relNames))
	indexOf := func(n string) int {
		for i, s := range relNames {
			if s == n {
				return i
			}
		}
		return -1
	}
	for i, rn := range relNames {
		r, ok := u.Relations[rn]
		if !ok {
			return fmt.Errorf("unknown relation %q", rn)
		}
		rels[i] = r
	}
	var edges []join.Edge
	for _, gr := range groups[1:] {
		if len(gr) != 3 {
			return fmt.Errorf("cyclic edge wants <relA> <relB> <attr>, got %v", gr)
		}
		a, b := indexOf(gr[0]), indexOf(gr[1])
		if a < 0 || b < 0 {
			return fmt.Errorf("edge references relation outside the join: %v", gr)
		}
		edges = append(edges, join.Edge{A: a, B: b, Attr: gr[2]})
	}
	j, err := join.NewCyclic(name, rels, edges, nil)
	if err != nil {
		return err
	}
	u.Joins = append(u.Joins, j)
	return nil
}

// splitGroups splits fields on ";" tokens (a ";" may also be glued to
// a field's end, e.g. "root;").
func splitGroups(args []string) [][]string {
	var groups [][]string
	cur := []string{}
	flush := func() {
		if len(cur) > 0 {
			groups = append(groups, cur)
			cur = []string{}
		}
	}
	for _, a := range args {
		for {
			i := strings.IndexByte(a, ';')
			if i < 0 {
				break
			}
			if i > 0 {
				cur = append(cur, a[:i])
			}
			flush()
			a = a[i+1:]
		}
		if a != "" {
			cur = append(cur, a)
		}
	}
	flush()
	return groups
}
