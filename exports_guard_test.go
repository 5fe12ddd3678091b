package adaptivelink

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names the internal exports that no program reaches
// but tests need. Every reason starts with its role: a test oracle (a
// reference a property checks against), test introspection (a read-only
// view of private state a test asserts on) or a fault seam (a hook a
// fault test drives). An export that fits none of these is deleted, not
// listed.
var exportAllowlist = map[string]string{
	"adaptive.ProbeLoop.Hits":         "test introspection: the observed result size the deficit test consumed",
	"adaptive.ProbeLoop.Probes":       "test introspection: the probe loop's step counter",
	"adaptive.loop.Params":            "test introspection: the thresholds a loop runs under",
	"blocking.Result.Recall":          "test oracle: scores a blocker's pairs against the nested-loop result",
	"datagen.ExpectedVariants":        "test oracle: the analytic variant count the generator's output is checked against",
	"fault.Rule.On":                   "fault seam: re-enables a healed fault rule",
	"hashidx.ExactIndex.AvgBucketLen": "test introspection: exact bucket occupancy",
	"hashidx.ExactIndex.Buckets":      "test introspection: exact bucket count",
	"hashidx.ExactIndex.Indexed":      "test introspection: refs indexed so far",
	"hashidx.QGramIndex.AvgBucketLen": "test introspection: posting list occupancy",
	"hashidx.QGramIndex.Dict":         "test introspection: the gram dictionary a generation shares",
	"hashidx.QGramIndex.Extractor":    "test introspection: the extractor an index decomposes with",
	"hashidx.QGramIndex.Frequency":    "test introspection: one gram's posting count",
	"join.Engine.Config":              "test introspection: the engine's defaulted configuration",
	"join.Engine.LiveFloor":           "test introspection: a side's window eviction floor",
	"join.Engine.MatchedFlag":         "test introspection: a stored tuple's matched flag",
	"join.Engine.Quiescent":           "test introspection: whether matches are pending delivery (Fig. 2)",
	"join.PairsOf":                    "test oracle: projects engine matches onto the nested-loop oracle's pairs",
	"metrics.CostBreakdown.StepTotal": "test introspection: the state half of the cost the sum property checks",
	"obs.Tracer.Config":               "test introspection: the tracer's defaulted configuration",
	"obs.Tracer.Recent":               "test introspection: the ring of recent span traces",
	"obs.Tracer.SampledSeen":          "test introspection: requests that got a span trace",
	"stats.BinomialPMF":               "test oracle: the point mass whose sum the CDF property checks against",
	"stats.SlidingWindow.Step":        "test introspection: the window's step counter",
	"store.Dir.Poisoned":              "test introspection: the I/O failure that poisoned the log",
}

// allowedRoles are the only reasons an unreached export may stay.
var allowedRoles = []string{"test oracle", "test introspection", "fault seam"}

// implicitMethods are called through a standard-library interface (fmt,
// errors, net/http, encoding/json, sort, container/heap, io), so no call
// site in the module names them.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true,
	"ServeHTTP": true, "WriteHeader": true, "RoundTrip": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true,
}

// TestInternalExportsReachable fails when a type, function or method
// exported from internal/ is referenced neither by a program (a non-test
// file anywhere in the module, the nested benchmark module included) nor
// by another package's tests, unless the allowlist says why it stays.
//
// Packages are type-checked from source with every import from outside
// the module stubbed (each member it is used for becomes an empty named
// type), so a method is told apart from its namesakes on other types. A
// selector the checker still cannot resolve, and a call through an
// interface, conservatively reach every method of that name.
func TestInternalExportsReachable(t *testing.T) {
	m := loadModule(t, ".", "adaptivelink")
	// An export referenced only from the body of an unreached one is
	// unreached too: iterate to the fixpoint.
	var dead []ast.Node
	unreached := map[string]bool{}
	for changed := true; changed; {
		changed = false
		for key, d := range m.declared {
			if _, listed := exportAllowlist[key]; !listed && !unreached[key] && !m.reached(d, dead) {
				unreached[key] = true
				dead = append(dead, d.decl)
				changed = true
			}
		}
	}
	for key, reason := range exportAllowlist {
		if d, ok := m.declared[key]; !ok {
			t.Errorf("allowlisted %s is not an exported type, func or method under internal/", key)
		} else if m.reached(d, dead) {
			t.Errorf("%s is allowlisted but reached: drop it from the list", key)
		}
		if !slices.ContainsFunc(allowedRoles, func(r string) bool { return strings.HasPrefix(reason, r+": ") }) {
			t.Errorf("allowlist reason for %s must start with one of %q: %q", key, allowedRoles, reason)
		}
	}
	if len(unreached) > 0 {
		keys := slices.Sorted(maps.Keys(unreached))
		t.Errorf("%d internal exports are reached only by their own package's tests; delete them:\n\t%s",
			len(keys), strings.Join(keys, "\n\t"))
	}
}

// srcPackage is one directory's Go files, split the way `go test`
// splits them.
type srcPackage struct {
	prod, inTest, xTest []*ast.File
	checked, withTests  *types.Package
}

// declaration is an exported type, func or method under internal/.
type declaration struct {
	obj    types.Object
	pkg    string   // import path
	decl   ast.Node // references inside it do not count
	method bool
}

// nameRef records that a file of package pkg (a test file when test is
// set) refers to a method by name only.
type nameRef struct {
	pkg  string
	test bool
}

type module struct {
	fset     *token.FileSet
	pkgs     map[string]*srcPackage     // by import path
	members  map[string]map[string]bool // outside package -> names used from it
	stubs    map[string]*types.Package
	declared map[string]declaration // by "pkg.Name" or "pkg.Recv.Method"
	uses     map[types.Object][]token.Pos
	byName   map[string][]nameRef // unresolved selectors and interface calls
}

// loadModule parses every buildable .go file under root, the directory
// dir having import path prefix/dir. A nested module (benchmark/) keeps
// the same scheme, which is the path its replace directive gives it.
func loadModule(t *testing.T, root, prefix string) *module {
	t.Helper()
	m := &module{
		fset:     token.NewFileSet(),
		pkgs:     map[string]*srcPackage{},
		members:  map[string]map[string]bool{},
		stubs:    map[string]*types.Package{},
		declared: map[string]declaration{},
		uses:     map[types.Object][]token.Pos{},
		byName:   map[string][]nameRef{},
	}
	var files []*ast.File
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		dir := filepath.Dir(p)
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(m.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		ip := path.Join(prefix, filepath.ToSlash(dir))
		sp := m.pkgs[ip]
		if sp == nil {
			sp = &srcPackage{}
			m.pkgs[ip] = sp
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			sp.prod = append(sp.prod, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			sp.xTest = append(sp.xTest, f)
		default:
			sp.inTest = append(sp.inTest, f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		m.collectMembers(f)
	}
	for ip, sp := range m.pkgs {
		m.prod(ip)
		if len(sp.inTest) > 0 {
			sp.withTests = m.check(ip, append(slices.Clip(sp.prod), sp.inTest...), sp.inTest, nil, nil)
		}
		if len(sp.xTest) > 0 {
			m.check(ip+"_test", sp.xTest, sp.xTest, sp.withTests, nil)
		}
	}
	return m
}

// collectMembers records the names f selects from packages outside the
// module, so their stubs can declare them.
func (m *module) collectMembers(f *ast.File) {
	local := map[string]string{}
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		if _, ok := m.pkgs[p]; ok {
			continue
		}
		name := stubName(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		local[name] = p
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && local[x.Name] != "" {
				p := local[x.Name]
				if m.members[p] == nil {
					m.members[p] = map[string]bool{}
				}
				m.members[p][sel.Sel.Name] = true
			}
		}
		return true
	})
}

// prod type-checks the non-test files of package ip, once, recording
// the exported internal types, funcs and methods they declare.
func (m *module) prod(ip string) *types.Package {
	sp := m.pkgs[ip]
	if sp.checked != nil {
		return sp.checked
	}
	defs := map[*ast.Ident]types.Object{}
	sp.checked = m.check(ip, sp.prod, sp.prod, nil, defs)
	if !strings.Contains(ip, "/internal/") {
		return sp.checked
	}
	declare := func(name *ast.Ident, recv ast.Expr, decl ast.Node) {
		key := path.Base(ip) + "." + name.Name
		if recv != nil {
			key = path.Base(ip) + "." + recvName(recv) + "." + name.Name
		}
		if obj := defs[name]; obj != nil && name.IsExported() {
			m.declared[key] = declaration{obj: obj, pkg: ip, decl: decl, method: recv != nil}
		}
	}
	for _, f := range sp.prod {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				var recv ast.Expr
				if d.Recv != nil {
					recv = d.Recv.List[0].Type
				}
				declare(d.Name, recv, d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						declare(ts.Name, nil, ts)
					}
				}
			}
		}
	}
	return sp.checked
}

// check type-checks files as package ip and records the references made
// from the files in counted. self, when set, is what an import of the
// package under test resolves to (an external test package sees its
// in-package test files too); defs, when set, receives the definitions.
func (m *module) check(ip string, files, counted []*ast.File, self *types.Package, defs map[*ast.Ident]types.Object) *types.Package {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: defs, Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{
		Importer: importerFunc(func(p string) (*types.Package, error) {
			if self != nil && p+"_test" == ip {
				return self, nil
			}
			if _, ok := m.pkgs[p]; ok {
				return m.prod(p), nil
			}
			return m.stub(p), nil
		}),
		Error: func(error) {}, // stubs leave holes; keep checking
	}
	pkg, _ := conf.Check(ip, m.fset, files, info)
	home := strings.TrimSuffix(ip, "_test")
	for _, f := range counted {
		test := strings.HasSuffix(m.fset.File(f.Pos()).Name(), "_test.go")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				obj := info.Uses[n]
				switch o := obj.(type) {
				case *types.Func:
					obj = o.Origin()
					if recv := o.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
						m.byName[o.Name()] = append(m.byName[o.Name()], nameRef{home, test})
					}
				case *types.TypeName:
				default:
					return true
				}
				if !test || obj.Pkg() == nil || obj.Pkg().Path() != home {
					m.uses[obj] = append(m.uses[obj], n.Pos())
				}
			case *ast.SelectorExpr:
				if _, ok := info.Uses[n.Sel]; ok || m.stubbed(info.Types[n.X].Type) {
					return true
				}
				m.byName[n.Sel.Name] = append(m.byName[n.Sel.Name], nameRef{home, test})
			}
			return true
		})
	}
	return pkg
}

// reached reports whether d is referenced by a non-test file, or by a
// test file of another package, from outside its own declaration and the
// dead ones.
func (m *module) reached(d declaration, dead []ast.Node) bool {
	inside := func(pos token.Pos, n ast.Node) bool { return n.Pos() <= pos && pos < n.End() }
	for _, pos := range m.uses[d.obj] {
		if !inside(pos, d.decl) && !slices.ContainsFunc(dead, func(n ast.Node) bool { return inside(pos, n) }) {
			return true
		}
	}
	if !d.method {
		return false
	}
	if implicitMethods[d.obj.Name()] {
		return true
	}
	for _, r := range m.byName[d.obj.Name()] {
		if !r.test || r.pkg != d.pkg {
			return true
		}
	}
	return false
}

// stub stands in for a package outside the module: each member the
// module uses is an empty named type, so a value of a stubbed type is
// known not to carry a module method.
func (m *module) stub(p string) *types.Package {
	if s, ok := m.stubs[p]; ok {
		return s
	}
	s := types.NewPackage(p, stubName(p))
	for name := range m.members[p] {
		tn := types.NewTypeName(token.NoPos, s, name, nil)
		types.NewNamed(tn, types.NewStruct(nil, nil), nil)
		s.Scope().Insert(tn)
	}
	s.MarkComplete()
	m.stubs[p] = s
	return s
}

// stubbed reports whether t is (a pointer to) a stub's type.
func (m *module) stubbed(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && m.stubs[n.Obj().Pkg().Path()] == n.Obj().Pkg()
}

// stubName is the package name of import path p: its last element, or
// the one before a major-version suffix (math/rand/v2 is package rand).
func stubName(p string) string {
	name := path.Base(p)
	if len(name) > 1 && name[0] == 'v' && strings.Trim(name[1:], "0123456789") == "" {
		return path.Base(path.Dir(p))
	}
	return name
}

func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	}
	return e.(*ast.Ident).Name
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(p string) (*types.Package, error) { return f(p) }
