package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// Tallies (DESIGN.md "Checkpoints and timelines") are counters that only
// StateDigest reads. They sit outside the comparable state a rejoin
// check compares, and a splice sets each to the run's count plus the
// golden delta between two checkpoints. That is exact only while
// nothing but the digest reads a tally and nothing but ++ changes it:
// a tally that steered the run would let a run that differs from its
// golden trajectory rejoin it, and an assignment inside a golden stretch
// would break the delta. The check below is syntactic — go/parser over
// the non-test sources, no type checking — so it keys tally fields by
// name.

// isTallyType reports whether a struct type of this name holds tallies:
// by convention it is named tally or ends in Tally.
func isTallyType(name string) bool { return name == "tally" || strings.HasSuffix(name, "Tally") }

// machineLayers are the packages under internal/ whose state
// StateDigest folds: only their types follow the tally convention
// (serve's job tally, say, is an unrelated aggregate).
var machineLayers = []string{"armv7", "board", "core", "gic", "gpio", "guest", "jailhouse", "memmap", "sim", "uart"}

// tallyUse is one use of a tally field outside the places allowed.
type tallyUse struct {
	pos   token.Position
	field string
}

// tallyFields returns the fields of every tally type the files declare.
func tallyFields(files []*ast.File) map[string]bool {
	fields := make(map[string]bool)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !isTallyType(ts.Name.Name) {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				for _, fld := range st.Fields.List {
					for _, name := range fld.Names {
						fields[name.Name] = true
					}
				}
			}
			return false
		})
	}
	return fields
}

// strayTallyUses returns every use of a field in fields in the files,
// except in core/digest.go (StateDigest), as the operand of ++, and
// inside a method of a tally type (its delta code).
func strayTallyUses(fset *token.FileSet, files []*ast.File, fields map[string]bool) []tallyUse {
	var stray []tallyUse
	for _, f := range files {
		if strings.HasSuffix(filepath.ToSlash(fset.Position(f.Pos()).Filename), "core/digest.go") {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil && isTallyType(receiverType(fd)) {
				continue
			}
			incremented := make(map[ast.Expr]bool)
			ast.Inspect(decl, func(n ast.Node) bool {
				var id *ast.Ident
				switch n := n.(type) {
				case *ast.IncDecStmt:
					if n.Tok == token.INC {
						incremented[n.X] = true
					}
				case *ast.SelectorExpr:
					if !incremented[n] {
						id = n.Sel
					}
				case *ast.KeyValueExpr:
					id, _ = n.Key.(*ast.Ident)
				}
				if id != nil && fields[id.Name] {
					stray = append(stray, tallyUse{fset.Position(id.Pos()), id.Name})
				}
				return true
			})
		}
	}
	return stray
}

// receiverType returns the name of a method's receiver type.
func receiverType(fd *ast.FuncDecl) string {
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// parseSources parses every non-test Go file under root.
func parseSources(t *testing.T, fset *token.FileSet, root string) []*ast.File {
	t.Helper()
	var files []*ast.File
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err == nil {
			files = append(files, f)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestTalliesAreDigestOnly: across internal/, a field of a machine
// layer's tally type is read only by StateDigest and its tally type's
// delta code, and changed only by ++. The known tallies must be found,
// so renaming a tally type out of the convention fails here too.
func TestTalliesAreDigestOnly(t *testing.T) {
	fset := token.NewFileSet()
	files := parseSources(t, fset, "..")
	var layers []*ast.File
	for _, f := range files {
		rel := strings.TrimPrefix(filepath.ToSlash(fset.Position(f.Pos()).Filename), "../")
		if pkg, _, _ := strings.Cut(rel, "/"); slices.Contains(machineLayers, pkg) {
			layers = append(layers, f)
		}
	}
	fields := tallyFields(layers)
	for _, want := range []string{"StateQueries", "TicksSeen", "Sends"} {
		if !fields[want] {
			t.Errorf("tally field %s not found among %v", want, fields)
		}
	}
	for _, u := range strayTallyUses(fset, files, fields) {
		t.Errorf("%s: tally field %s used outside digest.go, its ++ and its tally type's methods", u.pos, u.field)
	}
}

// TestStrayTallyUsesFlagsEachKind holds the checker to what it must
// flag — a read, a compound assignment, a plain assignment, a keyed
// literal outside the tally type's methods — and what it must let pass.
func TestStrayTallyUsesFlagsEachKind(t *testing.T) {
	const src = `package p

type tally struct{ Hits uint64 }

func (t tally) plus(from, to tally) tally { return tally{Hits: t.Hits + to.Hits - from.Hits} }

type thing struct {
	tally
	other uint64
}

func (x *thing) ok()           { x.Hits++; x.other = x.other + 1 }
func (x *thing) read() bool    { return x.Hits > 3 }
func (x *thing) add()          { x.Hits += 2 }
func (x *thing) reset()        { x.Hits = 0 }
func (x *thing) literal() tally { return tally{Hits: 1} }
func (x *thing) dec()          { x.Hits-- }
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	files := []*ast.File{f}
	fields := tallyFields(files)
	if !fields["Hits"] || fields["other"] {
		t.Fatalf("tally fields %v, want only Hits", fields)
	}
	var lines []int
	for _, u := range strayTallyUses(fset, files, fields) {
		lines = append(lines, u.pos.Line)
	}
	// read, add, reset, literal and dec; not plus, not ok.
	if want := []int{13, 14, 15, 16, 17}; !slices.Equal(lines, want) {
		t.Fatalf("flagged lines %v, want %v", lines, want)
	}
	// The same source as core/digest.go may use the field anywhere.
	fd, err := parser.ParseFile(fset, "core/digest.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	if stray := strayTallyUses(fset, []*ast.File{fd}, fields); len(stray) != 0 {
		t.Fatalf("core/digest.go flagged: %v", stray)
	}
}
