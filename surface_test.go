package dnsttl

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"dnsttl/internal/race"
)

// surfaceAllowed lists the exports TestEveryKnobIsTurned lets stand without
// the caller its rule asks for, each with the reason. "A test uses it" is
// not a reason: a probe only tests need lives in a _test.go file.
var surfaceAllowed = map[string]string{
	"internal/authoritative.UDPServer.MaxInflight":    "safety bound: daemons run the default; tests shrink it to reach saturation with two queries",
	"internal/qlog.Config.RingSize":                   "safety bound: daemons run the default; tests shrink it to fill the ring and count drops",
	"internal/qlog.Config.Clock":                      "time source: daemons log wall time; replaying a capture byte for byte needs a virtual clock",
	"TransportOptions.TLS":                            "deployment credential: trust roots for a DoT/DoH upstream (resolverd has no such flag yet)",
	"TransportOptions.ServerName":                     "deployment credential: certificate host name of a DoT/DoH upstream",
	"internal/experiments.ValidateHitRateModel":       "reference check by design: the compiled engine against the simulator (TestModelValidation*)",
	"internal/experiments.ValidateFragmentationModel": "reference check by design: the compiled engine against the simulator (TestModelValidation*)",
	"internal/experiments.ValidatePressureModel":      "reference check by design: the compiled engine against the simulator (TestModelValidation*)",
}

// TestEveryKnobIsTurned walks the source of both modules and holds the
// exported surface to what something outside its own tests reaches:
//
//	(a) an exported field of a struct that other packages configure is set
//	    by a non-test file — not only read, and not only default-filled by
//	    the package that declares it;
//	(b) an exported package-level function is called by a non-test file or
//	    by another package's tests;
//	(c) an export of this root package is named by cmd/, bench/,
//	    a root test or a doc snippet, or the signature of one that is.
//
// bench/ counts as a caller throughout.
func TestEveryKnobIsTurned(t *testing.T) {
	if race.Enabled {
		t.Skip("a source walk has no races to find, and type-checking the standard library from source takes 3 s plain, 25 s under -race")
	}
	w := loadSurface(t)
	var bad []string
	report := func(key, format string, args ...any) {
		if _, ok := surfaceAllowed[key]; ok {
			delete(w.unusedAllow, key)
			return
		}
		bad = append(bad, key+": "+fmt.Sprintf(format, args...))
	}
	for _, p := range w.libraries() {
		rel := strings.TrimPrefix(strings.TrimPrefix(p.path, surfaceModule), "/")
		key := func(names ...string) string {
			return strings.TrimPrefix(rel+"."+strings.Join(names, "."), ".")
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			if p.path == surfaceModule && !w.rootKept[name] {
				report(key(name), "root export named by no cmd/, bench/, root test, doc snippet or kept signature")
			}
			switch obj := obj.(type) {
			case *types.Func:
				if p.path != surfaceModule && w.callers[obj]&(callOwn|callOther) == 0 && !w.namedByTests(p, name) {
					report(key(name), "exported function called by no non-test file and no other package's test")
				}
			case *types.TypeName:
				st, ok := obj.Type().Underlying().(*types.Struct)
				if !ok || obj.IsAlias() || !w.configured[obj] {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() && !w.turned[f] {
						report(key(name, f.Name()), "option field set by no non-test file")
					}
				}
			}
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
	for key := range w.unusedAllow {
		t.Errorf("surfaceAllowed[%q] excuses nothing: delete the entry", key)
	}
	if len(surfaceAllowed) > 20 {
		t.Errorf("surfaceAllowed has %d entries; past 20 the list is the surface", len(surfaceAllowed))
	}
}

const surfaceModule = "dnsttl"

// Who calls an object: non-test files of its own package, of another
// package in either module, or specifically of a program (cmd/, bench/).
const (
	callOwn = 1 << iota
	callOther
	callProgram
)

type surfacePkg struct {
	path  string
	dir   string
	files []*ast.File // non-test (bench/: all)
	pkg   *types.Package
	info  *types.Info
}

type surfaceTest struct {
	file *ast.File
	dir  string
}

type surface struct {
	t    *testing.T
	fset *token.FileSet
	pkgs map[string]*surfacePkg
	std  types.Importer

	callers    map[types.Object]int
	owner      map[*types.Var]*types.TypeName // struct field → the named type declaring it
	configured map[*types.TypeName]bool       // struct built or written by a non-test file outside its package
	turned     map[*types.Var]bool            // field set by a caller (see recordSets)
	// testNames maps "importpath.Name" to the directories whose _test.go
	// files name it through a package selector.
	testNames   map[string]map[string]bool
	rootKept    map[string]bool
	unusedAllow map[string]bool
}

func (w *surface) libraries() []*surfacePkg {
	var out []*surfacePkg
	for _, p := range w.pkgs {
		if p.pkg != nil && p.pkg.Name() != "main" {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

// namedByTests reports whether a _test.go file outside p's directory names
// p.name.
func (w *surface) namedByTests(p *surfacePkg, name string) bool {
	for dir := range w.testNames[p.path+"."+name] {
		if dir != p.dir {
			return true
		}
	}
	return false
}

func (w *surface) Import(path string) (*types.Package, error) {
	p := w.pkgs[path]
	if p == nil {
		return w.std.Import(path)
	}
	if p.pkg == nil {
		w.check(p)
	}
	return p.pkg, nil
}

func (w *surface) check(p *surfacePkg) {
	p.info = &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types:      map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: w, Error: func(err error) { w.t.Errorf("type-checking %s: %v", p.path, err) }}
	p.pkg, _ = conf.Check(p.path, w.fset, p.files, p.info)
}

func loadSurface(t *testing.T) *surface {
	w := &surface{
		t: t, fset: token.NewFileSet(), pkgs: map[string]*surfacePkg{},
		callers: map[types.Object]int{}, owner: map[*types.Var]*types.TypeName{},
		configured: map[*types.TypeName]bool{}, turned: map[*types.Var]bool{},
		testNames: map[string]map[string]bool{}, rootKept: map[string]bool{}, unusedAllow: map[string]bool{},
	}
	for key := range surfaceAllowed {
		w.unusedAllow[key] = true
	}
	// The standard library is type-checked from GOROOT source, which every
	// toolchain ships; cgo files are left out, as no signature we use
	// depends on them.
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	defer func() { build.Default.CgoEnabled = cgo }()
	w.std = importer.ForCompiler(w.fset, "source", nil)

	var tests []surfaceTest
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if ok, err := build.Default.MatchFile(dir, d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(w.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") && dir != "bench" {
			tests = append(tests, surfaceTest{f, dir})
			return nil
		}
		ip := surfaceModule
		if dir != "." {
			ip += "/" + dir
		}
		p := w.pkgs[ip]
		if p == nil {
			p = &surfacePkg{path: ip, dir: dir}
			w.pkgs[ip] = p
		}
		p.files = append(p.files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range w.pkgs {
		if p.pkg == nil {
			w.check(p)
		}
	}
	for _, p := range w.pkgs {
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if st, ok := tn.Type().Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						w.owner[st.Field(i)] = tn
					}
				}
			}
		}
	}
	for _, p := range w.pkgs {
		w.recordCalls(p)
		w.recordSets(p)
	}
	for _, tf := range tests {
		w.recordTestNames(tf)
	}
	w.keepRoot(tests)
	return w
}

// origin maps an instantiated generic's member to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func (w *surface) inModule(obj types.Object) bool {
	return obj != nil && obj.Pkg() != nil && w.pkgs[obj.Pkg().Path()] != nil
}

// recordCalls notes, for every module object p's files mention, what kind
// of caller p is. A function's own body does not count as its caller.
func (w *surface) recordCalls(p *surfacePkg) {
	program := p.pkg.Name() == "main"
	for _, f := range p.files {
		for _, d := range f.Decls {
			var self types.Object
			if fd, ok := d.(*ast.FuncDecl); ok {
				self = p.info.Defs[fd.Name]
			}
			ast.Inspect(d, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := origin(p.info.Uses[id])
				if !w.inModule(obj) || obj == self {
					return true
				}
				switch {
				case obj.Pkg() == p.pkg:
					w.callers[obj] |= callOwn
				case program:
					w.callers[obj] |= callOther | callProgram
				default:
					w.callers[obj] |= callOther
				}
				return true
			})
		}
	}
}

// recordSets finds the writes that turn a knob. A field is turned when a
// non-test file outside its package sets it (keyed or positional literal,
// assignment, address taken, pointer-method call on it), or when its own
// package sets it other than by the default-fill idiom — an assignment
// inside an if whose condition reads that same field. A struct type counts
// as configured by callers once any file outside its package builds one
// with a literal or writes one of its fields.
func (w *surface) recordSets(p *surfacePkg) {
	guarded := map[*types.Var]int{} // fields read by an enclosing if's condition
	set := func(v *types.Var, literal bool) {
		v = v.Origin()
		if !w.inModule(v) {
			return
		}
		if v.Pkg() != p.pkg {
			w.turned[v] = true
			if tn := w.owner[v]; tn != nil {
				w.configured[tn] = true
			}
		} else if literal || guarded[v] == 0 {
			w.turned[v] = true
		}
	}
	// fields lists the fields an lvalue selects, innermost first: writing
	// a.B.C writes C, and B with it.
	fields := func(e ast.Expr) (out []*types.Var) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.SelectorExpr:
				if sel := p.info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
					out = append(out, sel.Obj().(*types.Var).Origin())
				}
				e = x.X
			default:
				return out
			}
		}
	}
	write := func(e ast.Expr) {
		for _, v := range fields(e) {
			set(v, false)
		}
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			var read []*types.Var
			ast.Inspect(n.Cond, func(m ast.Node) bool {
				if e, ok := m.(*ast.SelectorExpr); ok {
					read = append(read, fields(e)...)
				}
				return true
			})
			for _, v := range read {
				guarded[v]++
			}
			ast.Inspect(n.Body, visit)
			for _, v := range read {
				guarded[v]--
			}
			if n.Init != nil {
				ast.Inspect(n.Init, visit)
			}
			if n.Else != nil {
				ast.Inspect(n.Else, visit)
			}
			return false
		case *ast.CompositeLit:
			tv := p.info.Types[n]
			st, ok := tv.Type.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			if named, ok := tv.Type.(*types.Named); ok && named.Obj().Pkg() != p.pkg && w.inModule(named.Obj()) {
				w.configured[named.Origin().Obj()] = true
			}
			for i, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if v, ok := p.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
						set(v, true)
					}
				} else if i < st.NumFields() {
					set(st.Field(i), true)
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				write(lhs)
			}
		case *ast.IncDecStmt:
			write(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				write(n.X)
			}
		case *ast.CallExpr:
			// x.Field.Method(...) with a pointer receiver writes Field.
			if fun, ok := n.Fun.(*ast.SelectorExpr); ok {
				if sel := p.info.Selections[fun]; sel != nil && sel.Kind() == types.MethodVal {
					if _, ptr := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
						write(fun.X)
					}
				}
			}
		}
		return true
	}
	for _, f := range p.files {
		ast.Inspect(f, visit)
	}
}

// recordTestNames notes every pkg.Name selector a test file spells, by the
// import path pkg stands for.
func (w *surface) recordTestNames(tf surfaceTest) {
	local := map[string]string{}
	for _, im := range tf.file.Imports {
		path := strings.Trim(im.Path.Value, `"`)
		if w.pkgs[path] == nil {
			continue
		}
		name := path[strings.LastIndex(path, "/")+1:]
		if im.Name != nil {
			name = im.Name.Name
		}
		local[name] = path
	}
	ast.Inspect(tf.file, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && local[x.Name] != "" {
				key := local[x.Name] + "." + sel.Sel.Name
				if w.testNames[key] == nil {
					w.testNames[key] = map[string]bool{}
				}
				w.testNames[key][tf.dir] = true
			}
		}
		return true
	})
}

var docName = regexp.MustCompile(`dnsttl\.([A-Z][A-Za-z0-9]*)`)

// keepRoot computes rule (c): the root exports a program, a test or a doc
// names, closed over the root names their declarations mention outside
// function bodies (a kept function's parameter types stay, and so on).
func (w *surface) keepRoot(tests []surfaceTest) {
	root := w.pkgs[surfaceModule]
	scope := root.pkg.Scope()
	for _, name := range scope.Names() {
		if w.callers[scope.Lookup(name)]&callProgram != 0 || len(w.testNames[surfaceModule+"."+name]) > 0 {
			w.rootKept[name] = true
		}
	}
	// Root tests are in the package, so they name exports bare: type-check
	// them with the package to tell an export from a field of that name.
	files := append([]*ast.File{}, root.files...)
	for _, tf := range tests {
		if tf.dir == "." && tf.file.Name.Name == root.pkg.Name() {
			files = append(files, tf.file)
		}
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: w, Error: func(err error) { w.t.Errorf("type-checking root tests: %v", err) }}
	withTests, _ := conf.Check(surfaceModule, w.fset, files, info)
	for _, f := range files[len(root.files):] {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil && obj.Parent() == withTests.Scope() {
					w.rootKept[obj.Name()] = true
				}
			}
			return true
		})
	}
	docs, _ := filepath.Glob("docs/*.md")
	for _, doc := range append(docs, "README.md", "EXPERIMENTS.md", "DESIGN.md") {
		text, err := os.ReadFile(doc)
		if err != nil {
			w.t.Fatal(err)
		}
		for _, m := range docName.FindAllSubmatch(text, -1) {
			w.rootKept[string(m[1])] = true
		}
	}

	mentions := map[string][]string{}
	mention := func(from string, shape ast.Node) {
		ast.Inspect(shape, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := root.info.Uses[id]; obj != nil && obj.Parent() == scope {
					mentions[from] = append(mentions[from], obj.Name())
				}
			}
			return true
		})
	}
	for _, f := range root.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				from := d.Name.Name
				if d.Recv != nil { // an exported method is part of its receiver type's shape
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					from = recv.(*ast.Ident).Name
				}
				if d.Name.IsExported() {
					mention(from, d.Type)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						mention(spec.Name.Name, spec.Type)
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							mention(name.Name, spec)
						}
					}
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for name := range w.rootKept {
			for _, m := range mentions[name] {
				if !w.rootKept[m] {
					w.rootKept[m], changed = true, true
				}
			}
		}
	}
}
