// Package lint holds whole-tree checks that run with the tier-1 tests.
//
// The reachability check type-checks every non-test package of the
// repository — the module, its cmd/ and examples/ programs and the
// nested perfbench module — and fails on any exported declaration in
// internal/ that no non-test file uses. Code only tests reach is code
// the harness carries without exercising; delete it, or add it to
// reachAllow with the reason it stays. Because the check loads
// perfbench/ too, it also fails when an API change breaks the benchmark
// module, which `go build ./...` skips.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// reachAllow lists the exported internal/ declarations that stay
// without a non-test use, grouped by the reason they stay. Names are
// "<dir>.<Name>" or "<dir>.<Type>.<Method>", dir being the package's
// path under internal/. An entry that gains a caller or stops existing
// fails the check, so the list only ever names live seams.
var reachAllow = []allowGroup{
	{"test seams the ROADMAP keeps: flush batching, the progress watchdog, single-stepping and the state fingerprint the exactness suites compare", []string{
		"dist.JSONLWriter.SetFlushInterval",
		"sim.Engine.SetWedgeLimit",
		"sim.Engine.Step",
		"core.Machine.StateDigest",
	}},
	{"trace readers: how tests and debugging sessions inspect a run's event record", []string{
		"sim.Trace.ArgLen",
		"sim.Trace.Contains",
		"sim.Trace.Count",
		"sim.Trace.Dump",
		"sim.Trace.Filter",
		"sim.Trace.Records",
		"sim.Trace.Scan",
	}},
	{"UART line API: the write side guests use byte-wise, the read side a copy of what ScanLines visits", []string{
		"uart.UART.PutString",
		"uart.UART.Lines",
	}},
	{"dossier and campaign-dossier read API, which the equivalence suite holds byte-identical to the sequential reader", []string{
		"dist.CampaignDossier.Entry",
		"dist.CampaignDossier.RunRange",
		"dist.Dossier.ByOutcome",
		"dist.Dossier.Reads",
	}},
	{"serve client methods: the HTTP API's Go face, one per route", []string{
		"serve.Client.Cancel",
		"serve.Client.Jobs",
		"serve.Client.RawRun",
	}},
	{"register and architectural constants: they spell out the modelled encodings next to the values in use", []string{
		"armv7.CP15ACTLR",
		"armv7.CPSREndia",
		"armv7.CPSRFlagC",
		"armv7.CPSRFlagN",
		"armv7.CPSRFlagV",
		"armv7.CPSRFlagZ",
		"armv7.CPSRThumb",
		"armv7.FSCPermissionL1",
		"armv7.FSCPermissionL2",
		"armv7.NumFields",
		"armv7.PSCIRetDisabled",
		"armv7.PSCIRetInternalFail",
		"armv7.PSCIRetNotPresent",
		"armv7.PSCIRetOnPending",
		"armv7.RegR9",
		"armv7.RegR10",
		"board.GICCBase",
		"gic.GICDICPendr",
		"gic.GICDISPendr",
		"gic.IRQHypTimer",
		"uart.LSRDataReady",
		"uart.RegFCR",
		"jailhouse.CPUStateSuspended",
	}},
	{"architectural register accessors: the banking tests observe the CPU model's mode switches through them", []string{
		"armv7.CPU.CPSR",
		"armv7.CPU.BankedSP",
		"armv7.CPU.SetBankedSP",
	}},
}

// allowGroup is a set of allowlisted names that stay for one reason.
type allowGroup struct {
	reason string
	names  []string
}

// tree is the type-checked repository, loaded once per test binary.
type tree struct {
	fset    *token.FileSet
	modPath string
	pkgs    map[string]*pkg // by import path
	errs    []error
}

type pkg struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

var (
	loadOnce sync.Once
	loaded   *tree
	loadErr  error
)

func load(t *testing.T) *tree {
	t.Helper()
	loadOnce.Do(func() { loaded, loadErr = loadTree(filepath.Join("..", "..")) })
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return loaded
}

// loadTree parses every non-test .go file under the module root (build
// constraints applied, testdata and dot-directories skipped) and
// type-checks the packages in dependency order. Import paths follow the
// directory layout, which holds for the nested perfbench module too: it
// is github.com/dessertlab/certify/perfbench and replaces the root
// module with its parent directory.
func loadTree(dir string) (*tree, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	tr := &tree{fset: token.NewFileSet(), pkgs: map[string]*pkg{}}
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			tr.modPath = f[1]
		}
	}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(tr.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		ip := tr.modPath
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		p := tr.pkgs[ip]
		if p == nil {
			p = &pkg{}
			tr.pkgs[ip] = p
		}
		p.files = append(p.files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	std := importer.ForCompiler(tr.fset, "gc", nil)
	var check func(ip string) (*types.Package, error)
	check = func(ip string) (*types.Package, error) {
		p := tr.pkgs[ip]
		if p == nil {
			return std.Import(ip)
		}
		if p.types != nil {
			return p.types, nil
		}
		p.info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{
			Importer: importerFunc(check),
			Error:    func(err error) { tr.errs = append(tr.errs, err) },
		}
		p.types, _ = conf.Check(ip, tr.fset, p.files, p.info)
		return p.types, nil
	}
	for _, ip := range tr.sortedPaths() {
		check(ip)
	}
	return tr, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func (tr *tree) sortedPaths() []string {
	out := make([]string, 0, len(tr.pkgs))
	for ip := range tr.pkgs {
		out = append(out, ip)
	}
	sort.Strings(out)
	return out
}

// exports returns every exported package-level object and exported
// method declared under internal/, keyed by its allowlist name.
func (tr *tree) exports() map[string]types.Object {
	out := map[string]types.Object{}
	prefix := tr.modPath + "/internal/"
	for ip, p := range tr.pkgs {
		if !strings.HasPrefix(ip, prefix) {
			continue
		}
		short := strings.TrimPrefix(ip, prefix)
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				out[short+"."+name] = obj
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					out[short+"."+name+"."+m.Name()] = m
				}
			}
			if it, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumExplicitMethods(); i++ {
					if m := it.ExplicitMethod(i); m.Exported() {
						out[short+"."+name+"."+m.Name()] = m
					}
				}
			}
		}
	}
	return out
}

// used returns the objects some non-test file refers to, plus every
// method that makes its type satisfy an interface the tree or its
// imports declare or spell out.
func (tr *tree) used() map[types.Object]bool {
	used := map[types.Object]bool{}
	ifaces := map[*types.Interface]bool{}
	var named []*types.Named
	for _, p := range tr.pkgs {
		for _, obj := range p.info.Uses {
			used[origin(obj)] = true
		}
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() {
				ifaces[it] = true
			}
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok {
					named = append(named, n)
				}
			}
		}
	}
	// Interfaces of the packages the tree imports, transitively.
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces[it] = true
				}
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range tr.pkgs {
		visit(p.types)
	}
	ifaces[types.Universe.Lookup("error").Type().Underlying().(*types.Interface)] = true

	byMethod := map[string][]*types.Interface{}
	for it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
		}
	}
	for _, n := range named {
		if n.TypeParams().Len() > 0 || types.IsInterface(n) {
			continue
		}
		ptr := types.NewPointer(n)
		for i := 0; i < n.NumMethods(); i++ {
			m := n.Method(i)
			for _, it := range byMethod[m.Name()] {
				if types.Implements(n, it) || types.Implements(ptr, it) {
					used[m] = true
					break
				}
			}
		}
	}
	return used
}

// origin maps an instantiated generic func or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// TestTreeTypeChecks fails on any type error in the loaded tree,
// perfbench/ included, so an API change that breaks the benchmark module
// fails tier-1 even though `go build ./...` skips that module.
func TestTreeTypeChecks(t *testing.T) {
	tr := load(t)
	for _, err := range tr.errs {
		t.Error(err)
	}
	for _, dir := range []string{"cmd/certify", "examples/quickstart", "perfbench", "internal/core"} {
		if tr.pkgs[tr.modPath+"/"+dir] == nil {
			t.Errorf("package %s not loaded", dir)
		}
	}
}

// findings lists every exported internal/ declaration no non-test file
// uses and allow does not list, then every allow entry that is stale or
// whose group gives no reason.
func (tr *tree) findings(allow []allowGroup) []string {
	exports, used := tr.exports(), tr.used()
	var out []string
	allowed := map[string]bool{}
	for _, g := range allow {
		if g.reason == "" {
			out = append(out, fmt.Sprintf("allowlist group %v has no reason", g.names))
		}
		for _, name := range g.names {
			allowed[name] = true
			obj, ok := exports[name]
			switch {
			case !ok:
				out = append(out, "allowlisted "+name+" no longer exists: drop it from reachAllow")
			case used[obj]:
				out = append(out, "allowlisted "+name+" now has a non-test use: drop it from reachAllow")
			}
		}
	}
	var dead []string
	for name, obj := range exports {
		if !used[obj] && !allowed[name] {
			dead = append(dead, "exported "+name+" ("+tr.fset.Position(obj.Pos()).String()+
				") has no non-test use: delete it, or allowlist it in reachAllow with a reason")
		}
	}
	sort.Strings(dead)
	return append(out, dead...)
}

// TestExportsHaveNonTestCallers fails on every exported internal/
// declaration no non-test file uses and reachAllow does not list, and on
// every reachAllow entry that is stale.
func TestExportsHaveNonTestCallers(t *testing.T) {
	tr := load(t)
	if len(tr.errs) > 0 {
		t.Skip("tree does not type-check (see TestTreeTypeChecks)")
	}
	for _, f := range tr.findings(reachAllow) {
		t.Error(f)
	}
}
