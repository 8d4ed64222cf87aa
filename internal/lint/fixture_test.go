package lint

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// fixtureShapes is a small module whose internal/shapes package has one
// export of each kind the check must tell apart. Its test file calls the
// test-only exports, which must not count as uses.
var fixtureShapes = map[string]string{
	"go.mod": "module example.com/fx\n\ngo 1.21\n",
	"internal/shapes/shapes.go": `package shapes

// Shape is satisfied by Square through Area.
type Shape interface{ Area() int }

type Square struct{ N int }

func (s Square) Area() int { return s.N * s.N }

// Side is called only by the package's test.
func (s Square) Side() int { return s.N }

func Unit() Square { return Square{N: 1} }

// Scale is called only by the package's test.
func Scale(s Square, k int) Square { return Square{N: s.N * k} }

// Seam has no caller at all.
func Seam() {}

const Max = 8
`,
	"internal/shapes/shapes_test.go": `package shapes

import "testing"

func TestScale(t *testing.T) {
	if Scale(Unit(), 2).Side() != 2 {
		t.Fatal("Scale")
	}
}
`,
	"cmd/area/main.go": `package main

import "example.com/fx/internal/shapes"

func main() {
	var s shapes.Shape = shapes.Unit()
	if s.Area() > shapes.Max {
		panic("too big")
	}
}
`,
}

// loadFixture writes files (relative path → contents) under a fresh
// directory and loads it as a tree.
func loadFixture(t *testing.T, files map[string]string) *tree {
	t.Helper()
	root := t.TempDir()
	for rel, body := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := loadTree(root)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// mentions returns the findings that name the declaration name.
func mentions(findings []string, name string) []string {
	var out []string
	for _, f := range findings {
		if strings.Contains(f, " "+name+" ") {
			out = append(out, f)
		}
	}
	return out
}

// TestFindingsFlagTestOnlyExports: an export only a _test.go file calls
// is reported, funcs and methods alike; one a program calls is not.
func TestFindingsFlagTestOnlyExports(t *testing.T) {
	tr := loadFixture(t, fixtureShapes)
	if len(tr.errs) > 0 {
		t.Fatalf("fixture does not type-check: %v", tr.errs)
	}
	got := tr.findings(nil)
	for _, name := range []string{"shapes.Scale", "shapes.Square.Side", "shapes.Seam"} {
		if f := mentions(got, name); len(f) != 1 || !strings.Contains(f[0], "no non-test use") {
			t.Errorf("%s: findings %q, want one no-non-test-use report", name, f)
		}
	}
	for _, name := range []string{"shapes.Unit", "shapes.Max", "shapes.Shape", "shapes.Shape.Area", "shapes.Square"} {
		if f := mentions(got, name); len(f) != 0 {
			t.Errorf("%s has a non-test use but is reported: %q", name, f)
		}
	}
	if len(got) != 3 {
		t.Errorf("findings = %q, want exactly the three test-only exports", got)
	}
}

// TestFindingsCountInterfaceMethodsAsUsed: Square.Area is never called
// through a Square, only through the Shape it satisfies, and still
// counts as used.
func TestFindingsCountInterfaceMethodsAsUsed(t *testing.T) {
	tr := loadFixture(t, fixtureShapes)
	if f := mentions(tr.findings(nil), "shapes.Square.Area"); len(f) != 0 {
		t.Fatalf("interface-satisfying method reported: %q", f)
	}
	files := map[string]string{}
	for k, v := range fixtureShapes {
		files[k] = v
	}
	// Without the interface the method has no use left.
	files["internal/shapes/shapes.go"] = strings.Replace(files["internal/shapes/shapes.go"],
		"type Shape interface{ Area() int }", "type Shape interface{ Perimeter() int }", 1)
	files["internal/shapes/shapes.go"] += "\nfunc (s Square) Perimeter() int { return 4 * s.N }\n"
	files["cmd/area/main.go"] = strings.Replace(files["cmd/area/main.go"], "s.Area()", "s.Perimeter()", 1)
	tr = loadFixture(t, files)
	if len(tr.errs) > 0 {
		t.Fatalf("edited fixture does not type-check: %v", tr.errs)
	}
	if f := mentions(tr.findings(nil), "shapes.Square.Area"); len(f) != 1 {
		t.Fatalf("Area satisfies no interface and has no caller, findings %q", f)
	}
}

// TestFindingsFlagStaleAllowlistEntries: an allowlisted name silences
// its finding while it is dead, and is itself reported once it gains a
// caller or stops existing.
func TestFindingsFlagStaleAllowlistEntries(t *testing.T) {
	tr := loadFixture(t, fixtureShapes)
	got := tr.findings([]allowGroup{{
		reason: "fixture",
		names:  []string{"shapes.Seam", "shapes.Unit", "shapes.Gone"},
	}})
	if f := mentions(got, "shapes.Seam"); len(f) != 0 {
		t.Errorf("allowlisted dead export reported: %q", f)
	}
	if f := mentions(got, "shapes.Unit"); len(f) != 1 || !strings.Contains(f[0], "now has a non-test use") {
		t.Errorf("allowlisted live export: findings %q", f)
	}
	if f := mentions(got, "shapes.Gone"); len(f) != 1 || !strings.Contains(f[0], "no longer exists") {
		t.Errorf("allowlisted missing name: findings %q", f)
	}
}

// TestFindingsNeedAllowlistReasons: a group without a reason is a
// finding of its own.
func TestFindingsNeedAllowlistReasons(t *testing.T) {
	tr := loadFixture(t, fixtureShapes)
	got := tr.findings([]allowGroup{{names: []string{"shapes.Seam"}}})
	if !slices.ContainsFunc(got, func(f string) bool { return strings.Contains(f, "has no reason") }) {
		t.Fatalf("reasonless group not reported: %q", got)
	}
}

// TestLoadTreeReportsBrokenDependent: a program that still calls a
// deleted export is a type error of the tree, whichever directory it
// sits in, as a benchmark module that `go build ./...` skips would.
func TestLoadTreeReportsBrokenDependent(t *testing.T) {
	files := map[string]string{}
	for k, v := range fixtureShapes {
		files[k] = v
	}
	files["bench/bench.go"] = `package bench

import "example.com/fx/internal/shapes"

var Big = shapes.Grow(shapes.Unit())
`
	tr := loadFixture(t, files)
	if len(tr.errs) != 1 || !strings.Contains(tr.errs[0].Error(), "Grow") {
		t.Fatalf("errs = %v, want one naming the missing shapes.Grow", tr.errs)
	}
	if !strings.Contains(tr.errs[0].Error(), filepath.Join("bench", "bench.go")) {
		t.Fatalf("error %v does not point at bench/bench.go", tr.errs[0])
	}
}

// fixtureTasks is a small module whose task control block has one
// state field of each kind the state check must tell apart.
var fixtureTasks = map[string]string{
	"go.mod": "module example.com/fx\n\ngo 1.21\n",
	"internal/task/task.go": `package task

// tcbState is a task's checkpointed content.
type tcbState struct {
	Name   string    // written by New, read by main
	count  int       // written by the body, read through Count by the body
	runs   int       // written by Run, read by nobody
	guard  uint32    // read by the body, written by nobody
	locals int       // written by the body, read only by the digest
	work   [2]uint32 // written through its address, read by copy
	peer   *TCB      // written through, never assigned
}

type TCB struct {
	tcbState
	step func(*TCB)
}

func New(name string) *TCB {
	t := &TCB{tcbState: tcbState{Name: name}}
	t.step = func(t *TCB) {
		t.count++
		if t.Count() > 2 && t.guard == 0 {
			t.locals = t.Count()
		}
		p := &t.work[0]
		*p = 1
		if t.peer != nil {
			t.peer.work[1] = 2
		}
	}
	return t
}

func (t *TCB) Run() {
	t.runs++
	t.step(t)
}

func (t *TCB) Count() int { return t.count }

// Locals is called only by the digest.
func (t *TCB) Locals() int { return t.locals }

// Work copies the working registers out.
func (t *TCB) Work(out []uint32) { copy(out, t.work[:]) }

func (t *TCB) VisitState(f func(int)) {
	f(t.runs)
	f(int(t.guard))
}
`,
	"internal/core/digest.go": `package core

import "example.com/fx/internal/task"

func Digest(t *task.TCB) int { return t.Locals() + digestRuns(t) }

func digestRuns(t *task.TCB) int {
	n := 0
	t.VisitState(func(v int) { n += v })
	return n
}
`,
	"cmd/run/main.go": `package main

import (
	"example.com/fx/internal/core"
	"example.com/fx/internal/task"
)

func main() {
	t := task.New("blink")
	t.Run()
	var w [2]uint32
	t.Work(w[:])
	t.VisitState(func(int) {}) // VisitState reads nothing live, whoever calls it
	println(t.Name, core.Digest(t))
}
`,
}

// TestStateFindingsFlagDeadFields: a write-only field, a never-written
// field, a field only the digest reads and a pointer only written
// through are reported; a field a task body reads through a method and
// one written through its address are not.
func TestStateFindingsFlagDeadFields(t *testing.T) {
	tr := loadFixture(t, fixtureTasks)
	if len(tr.errs) > 0 {
		t.Fatalf("fixture does not type-check: %v", tr.errs)
	}
	got := tr.stateFindings([]string{"task.tcbState"}, nil)
	for name, want := range map[string]string{
		"task.tcbState.runs":   "has no non-test reader",
		"task.tcbState.guard":  "has no non-test writer",
		"task.tcbState.locals": "has no non-test reader",
		"task.tcbState.peer":   "has no non-test writer",
	} {
		if f := mentions(got, name); len(f) != 1 || !strings.Contains(f[0], want) {
			t.Errorf("%s: findings %q, want one %q report", name, f, want)
		}
	}
	if len(got) != 4 {
		t.Errorf("findings = %q, want exactly the four dead fields", got)
	}
}

// TestStateFindingsFlagStaleEntries: an allowlisted dead field is
// silenced, and an allowlisted live field, a missing field and a
// missing state type are each reported.
func TestStateFindingsFlagStaleEntries(t *testing.T) {
	tr := loadFixture(t, fixtureTasks)
	got := tr.stateFindings([]string{"task.tcbState", "task.gone"}, []allowGroup{
		{reason: "fixture", names: []string{"task.tcbState.runs", "task.tcbState.count", "task.tcbState.gone"}},
		{names: []string{"task.tcbState.guard"}},
	})
	if f := mentions(got, "task.tcbState.runs"); len(f) != 0 {
		t.Errorf("allowlisted dead field reported: %q", f)
	}
	if f := mentions(got, "task.tcbState.count"); len(f) != 1 || !strings.Contains(f[0], "now has a writer and a reader") {
		t.Errorf("allowlisted live field: findings %q", f)
	}
	if f := mentions(got, "task.tcbState.gone"); len(f) != 1 || !strings.Contains(f[0], "no longer exists") {
		t.Errorf("allowlisted missing field: findings %q", f)
	}
	if f := mentions(got, "task.gone"); len(f) != 1 || !strings.Contains(f[0], "drop it from stateTypes") {
		t.Errorf("missing state type: findings %q", f)
	}
	if !slices.ContainsFunc(got, func(f string) bool { return strings.Contains(f, "has no reason") }) {
		t.Errorf("reasonless group not reported: %q", got)
	}
}
