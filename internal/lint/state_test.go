package lint

// The state check type-checks the same tree as the reachability check
// and fails on any field of a checkpointed state value that no non-test
// code both writes and reads. A capture copies these values and a
// rejoin compares them with ==, so a field nothing writes is a constant
// carried through every checkpoint, and a field nothing reads is a word
// that can only refuse a rejoin. VisitState methods and the state
// digest (internal/core/digest.go) fingerprint state for the exactness
// suites: they read everything, so a reference there, or in a function
// only they call, makes no field live.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// stateTypes lists the state values a checkpoint copies and a rejoin
// check compares with ==, as "<dir>.<Type>", dir being the package's
// path under internal/.
var stateTypes = []string{
	"armv7.State", "armv7.bank",
	"gic.state", "gic.perCPU",
	"gpio.Port",
	"uart.regs",
	"jailhouse.hvState", "jailhouse.cellState", "jailhouse.PerCPU",
	"guest/rootlinux.state",
	"guest/freertos.kernelState", "guest/freertos.tcbState", "guest/freertos.queueState",
	"core.machineState",
}

// stateAllow lists the state fields, as "<dir>.<Type>.<field>", that
// stay without a non-test writer or reader, grouped by the reason they
// stay. An entry whose field gains both, or stops existing, fails the
// check.
var stateAllow = []allowGroup{}

// fieldUse records whether a state field has a live writer and reader.
type fieldUse struct {
	name          string
	obj           *types.Var
	written, read bool
}

// fieldRef is one reference to a state field.
type fieldRef struct {
	use         *fieldUse
	fn          *types.Func // enclosing function declaration, nil at package level
	write, read bool
}

// stateFindings reports every field of the named state types that has
// no live writer or no live reader and allow does not list, every
// named type that does not exist, and every allow entry that is stale
// or whose group gives no reason.
func (tr *tree) stateFindings(typeNames []string, allow []allowGroup) []string {
	var out []string
	fields := map[*types.Var]*fieldUse{}
	prefix := tr.modPath + "/internal/"
	for _, tn := range typeNames {
		dot := strings.LastIndexByte(tn, '.')
		var st *types.Struct
		if p := tr.pkgs[prefix+tn[:dot]]; p != nil && p.types != nil {
			if obj, ok := p.types.Scope().Lookup(tn[dot+1:]).(*types.TypeName); ok {
				st, _ = obj.Type().Underlying().(*types.Struct)
			}
		}
		if st == nil {
			out = append(out, "state type "+tn+" no longer exists: drop it from stateTypes")
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			fields[f] = &fieldUse{name: tn + "." + f.Name(), obj: f}
		}
	}

	var refs []fieldRef
	callers := map[*types.Func][]*types.Func{}
	excluded := map[*types.Func]bool{}
	for ip, p := range tr.pkgs {
		digestPkg := ip == prefix+"core"
		for _, file := range p.files {
			digestFile := digestPkg && filepath.Base(tr.fset.Position(file.Pos()).Filename) == "digest.go"
			var fn *types.Func
			var stack []ast.Node
			ast.Inspect(file, func(n ast.Node) bool {
				if n == nil {
					if _, ok := stack[len(stack)-1].(*ast.FuncDecl); ok {
						fn = nil
					}
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				switch n := n.(type) {
				case *ast.FuncDecl:
					fn, _ = p.info.Defs[n.Name].(*types.Func)
					if fn != nil && (digestFile || n.Recv != nil && n.Name.Name == "VisitState") {
						excluded[fn] = true
					}
				case *ast.CompositeLit:
					// Positional elements name no field: each writes
					// the field at its position.
					st, _ := p.info.Types[n].Type.Underlying().(*types.Struct)
					for i, el := range n.Elts {
						if _, keyed := el.(*ast.KeyValueExpr); st == nil || keyed {
							break
						}
						if u := fields[st.Field(i)]; u != nil && !digestFile {
							refs = append(refs, fieldRef{u, fn, true, false})
						}
					}
				case *ast.Ident:
					switch obj := origin(p.info.Uses[n]).(type) {
					case *types.Var:
						if u := fields[obj]; u != nil && !digestFile {
							w, r := p.access(stack)
							refs = append(refs, fieldRef{u, fn, w, r})
						}
					case *types.Func:
						callers[obj] = append(callers[obj], fn)
					}
				}
				return true
			})
		}
	}

	// A function is excluded when every reference to it lies in an
	// excluded one; one referenced at package level never is.
	for changed := true; changed; {
		changed = false
		for f, cs := range callers {
			if excluded[f] {
				continue
			}
			all := true
			for _, c := range cs {
				all = all && c != nil && excluded[c]
			}
			if all {
				excluded[f], changed = true, true
			}
		}
	}
	for _, r := range refs {
		if r.fn != nil && excluded[r.fn] {
			continue
		}
		r.use.written = r.use.written || r.write
		r.use.read = r.use.read || r.read
	}

	byName := map[string]*fieldUse{}
	for _, u := range fields {
		byName[u.name] = u
	}
	allowed := map[string]bool{}
	for _, g := range allow {
		if g.reason == "" {
			out = append(out, fmt.Sprintf("allowlist group %v has no reason", g.names))
		}
		for _, name := range g.names {
			allowed[name] = true
			u, ok := byName[name]
			switch {
			case !ok:
				out = append(out, "allowlisted "+name+" no longer exists: drop it from stateAllow")
			case u.written && u.read:
				out = append(out, "allowlisted "+name+" now has a writer and a reader: drop it from stateAllow")
			}
		}
	}
	var dead []string
	for name, u := range byName {
		if allowed[name] || u.written && u.read {
			continue
		}
		var lacks []string
		if !u.written {
			lacks = append(lacks, "writer")
		}
		if !u.read {
			lacks = append(lacks, "reader")
		}
		dead = append(dead, "state field "+name+" ("+tr.fset.Position(u.obj.Pos()).String()+") has no non-test "+
			strings.Join(lacks, " and no ")+": delete it, or allowlist it in stateAllow with a reason")
	}
	sort.Strings(dead)
	return append(out, dead...)
}

// access reports whether the field identifier on top of stack, its
// ancestors below it, writes and reads the field. A composite-literal
// key writes it. Any other reference selects a value, followed through
// array indexing, field selection and parentheses — never through a
// pointer, whose target is not the field — to its use: the left side of
// an assignment, ++ or -- and the first argument of copy, append or
// clear write it; its address, a slice of it used otherwise and the
// receiver of a pointer-method call may do either and count as both;
// every other use reads it.
func (p *pkg) access(stack []ast.Node) (write, read bool) {
	i := len(stack) - 2
	id := stack[i+1].(*ast.Ident)
	switch n := stack[i].(type) {
	case *ast.KeyValueExpr:
		return n.Key == id, n.Key != id
	case *ast.SelectorExpr:
	default:
		return false, true
	}
	e, sliced := stack[i].(ast.Expr), false
	for i--; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.ParenExpr:
			e = n
			continue
		case *ast.IndexExpr:
			if n.X == e && !sliced && p.isArray(e) {
				e = n
				continue
			}
		case *ast.SelectorExpr:
			if n.X == e && !sliced && !p.isPointer(e) {
				sel := p.info.Selections[n]
				if sel.Kind() == types.FieldVal {
					e = n
					continue
				}
				if _, ptr := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
					return true, true
				}
			}
		case *ast.SliceExpr:
			if n.X == e && !sliced {
				e, sliced = n, true
				continue
			}
		case *ast.AssignStmt:
			if slices.Contains(n.Lhs, e) {
				return true, false
			}
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN && (n.Key == e || n.Value == e) {
				return true, false
			}
		case *ast.IncDecStmt:
			return true, false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				return true, true
			}
		case *ast.CallExpr:
			if len(n.Args) > 0 && n.Args[0] == e {
				if fn, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
					if b, ok := p.info.Uses[fn].(*types.Builtin); ok && slices.Contains([]string{"copy", "append", "clear"}, b.Name()) {
						return true, false
					}
				}
			}
		}
		break
	}
	return sliced, true
}

func (p *pkg) isArray(e ast.Expr) bool {
	_, ok := p.info.Types[e].Type.Underlying().(*types.Array)
	return ok
}

func (p *pkg) isPointer(e ast.Expr) bool {
	_, ok := p.info.Types[e].Type.Underlying().(*types.Pointer)
	return ok
}

// TestStateFieldsAreWrittenAndRead fails on every field of a checkpointed
// state value that no non-test code writes or no non-test code reads,
// VisitState and the state digest aside, and on every stale stateTypes
// or stateAllow entry.
func TestStateFieldsAreWrittenAndRead(t *testing.T) {
	tr := load(t)
	if len(tr.errs) > 0 {
		t.Skip("tree does not type-check (see TestTreeTypeChecks)")
	}
	for _, f := range tr.stateFindings(stateTypes, stateAllow) {
		t.Error(f)
	}
}
