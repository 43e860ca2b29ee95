package dynsched

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestModulePath guards the seed defect that once made the whole tree
// unbuildable: go.mod must declare the module path every internal
// import in the tree assumes. If the module line and the import prefix
// ever diverge again, this fails loudly instead of `go build` failing
// at setup with "does not contain main module".
func TestModulePath(t *testing.T) {
	const wantModule = "dynsched"

	data, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatalf("reading go.mod: %v (the module file is load-bearing — do not delete it)", err)
	}
	module := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			module = strings.TrimSpace(rest)
			break
		}
	}
	if module == "" {
		t.Fatal("go.mod has no module directive")
	}
	if module != wantModule {
		t.Fatalf("go.mod declares module %q, want %q (the internal/... imports use this prefix)", module, wantModule)
	}

	// Every intra-repo import must use the declared module path as its
	// prefix — scan the whole tree, not a sample.
	fset := token.NewFileSet()
	internalImports := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if !strings.Contains(p, "internal/") {
				continue
			}
			internalImports++
			if !strings.HasPrefix(p, module+"/") {
				t.Errorf("%s imports %q, which does not start with the module path %q", path, p, module)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if internalImports == 0 {
		t.Fatal("found no internal imports — the guard is scanning the wrong tree")
	}
}

// TestInternalNamesReachProduction keeps internal code from outliving
// its callers. It type-checks every non-test file of the module and of
// perfbench (files chosen by go/build, so race_on/race_off resolve as
// in a normal build) and walks the declarations reachable from the
// production roots: main and init of every package, the interfaces
// that blank package-level declarations assert, and the exported names
// of the dynsched and api packages with the exported methods of every
// module type a user of those packages can hold. A method also counts
// as reached when its type is reached and implements an interface that
// names it: one of the standard library, or one that reached code of
// this module spells out.
//
// Every internal/ name the walk misses must be covered by an entry of
// reachAllowlist, which then counts as a root; every entry must cover
// at least one name that production alone does not reach.
func TestInternalNamesReachProduction(t *testing.T) {
	// The standard library is type-checked from source through
	// build.Default; its pure-Go files need no C toolchain.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	s, err := loadReachScan(".")
	if err != nil {
		t.Fatal(err)
	}
	s.drain()
	unreached := s.unreachedInternal()
	t.Logf("%d internal names unreached from production", len(unreached))
	for _, entry := range sortedKeys(reachAllowlist) {
		covered := 0
		for name, obj := range unreached {
			if name == entry || strings.HasPrefix(name, entry+".") {
				s.reach(obj)
				covered++
			}
		}
		if covered == 0 {
			t.Errorf("allowlist entry %s is stale: production reaches it, or it is no longer declared", entry)
		}
	}
	s.drain()
	for _, name := range sortedKeys(s.unreachedInternal()) {
		t.Errorf("%s is reached by no production root: delete it with the tests that exist only for it, or allowlist it with its reason", name)
	}
}

// Reasons an internal name stays although production does not reach it.
const (
	reachOracle   = "oracle: tests compare the production path against it"
	reachLater    = "oracle a ROADMAP item builds on"
	reachModel    = "interference model the paper names"
	reachTestHook = "test hook other packages' tests use"
)

// reachAllowlist names the internal declarations kept although no
// production root reaches them. An entry covers the name it spells and,
// for a type or package, every name below it, so entries spell single
// members unless all of a type or package is kept by design.
var reachAllowlist = map[string]string{
	"interference.NewDense":        reachOracle,
	"interference.Dense.Set":       reachOracle,
	"interference.ValidateWeights": reachOracle,
	"geom.DistanceMatrix":          reachOracle,
	"sinr.Affectance":              reachOracle,
	"sinr.MonotoneSubLinear":       reachOracle,
	"stats.Quantile":               reachOracle,

	"inject.NewChecker":                      reachLater + " (online (w,λ)-boundedness check for adversary fuzzing)",
	"inject.Checker.Observe":                 reachLater + " (online (w,λ)-boundedness check for adversary fuzzing)",
	"stats.NewDriftEstimator":                reachLater + " (Φ-trend test for unstable units)",
	"stats.DriftEstimator.Observe":           reachLater + " (Φ-trend test for unstable units)",
	"stats.DriftEstimator.Drift":             reachLater + " (Φ-trend test for unstable units)",
	"stats.DriftEstimator.NegativeAboveZero": reachLater + " (Φ-trend test for unstable units)",
	"stats.DriftEstimator.NumBuckets":        reachLater + " (Φ-trend test for unstable units)",

	"conflict.ProtocolModel":     reachModel,
	"conflict.Distance2Matching": reachModel,

	"conflict.Random":  reachTestHook,
	"journal.Truncate": reachTestHook,
	"testenv":          reachTestHook,
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// reachScan is one type-checked load of the module and the state of the
// reachability walk over it.
type reachScan struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*reachPkg // by import path
	decls map[types.Object]reachDecl

	reached map[types.Object]bool
	work    []types.Object
	ifaces  map[*types.Interface]bool
	types   []*types.TypeName // reached non-interface named types
	exposed map[*types.TypeName]bool
}

type reachPkg struct {
	path  string
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
}

type reachDecl struct {
	node ast.Node
	pkg  *reachPkg
}

// reachModule is the module path; perfbench's module shares its prefix.
const reachModule = "dynsched"

// loadReachScan type-checks the module rooted at dir and queues its
// production roots.
func loadReachScan(dir string) (*reachScan, error) {
	s := &reachScan{
		fset:    token.NewFileSet(),
		pkgs:    map[string]*reachPkg{},
		decls:   map[types.Object]reachDecl{},
		reached: map[types.Object]bool{},
		ifaces:  map[*types.Interface]bool{},
		exposed: map[*types.TypeName]bool{},
	}
	s.std = importer.ForCompiler(s.fset, "source", nil)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != dir && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(path, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		} else if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		p := &reachPkg{path: reachModule}
		if rel != "." {
			p.path += "/" + filepath.ToSlash(rel)
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(s.fset, filepath.Join(path, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		s.pkgs[p.path] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	var roots []reachDecl
	for _, p := range s.pkgs {
		if _, err := s.check(p); err != nil {
			return nil, err
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				roots = append(roots, s.index(p, decl)...)
			}
		}
	}
	for _, path := range []string{reachModule, reachModule + "/api"} {
		scope := s.pkgs[path].pkg.Scope()
		for _, name := range scope.Names() {
			if obj := scope.Lookup(name); obj.Exported() {
				s.reach(obj)
				s.expose(obj.Type())
			}
		}
	}
	s.addStdInterfaces()
	for _, r := range roots {
		s.walk(r)
	}
	return s, nil
}

// Import type-checks module packages from the loaded files and leaves
// the rest to the standard library's source importer.
func (s *reachScan) Import(path string) (*types.Package, error) {
	if p, ok := s.pkgs[path]; ok {
		return s.check(p)
	}
	return s.std.Import(path)
}

func (s *reachScan) check(p *reachPkg) (*types.Package, error) {
	if p.pkg != nil {
		return p.pkg, nil
	}
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(p.path, s.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.pkg = pkg
	return pkg, nil
}

// index records the package-level objects decl declares and returns
// the parts of decl that are roots by themselves: main, init, and the
// asserted interface of a blank declaration. The value a blank
// declaration asserts is no root, or a type would be kept live by its
// own assertion; an untyped blank declaration roots its initializer,
// which runs at init.
func (s *reachScan) index(p *reachPkg, decl ast.Decl) []reachDecl {
	var roots []reachDecl
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.pkg.Name() == "main") {
			return []reachDecl{{d, p}}
		}
		s.decls[p.info.Defs[d.Name]] = reachDecl{d, p}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch sp := spec.(type) {
			case *ast.TypeSpec:
				s.decls[p.info.Defs[sp.Name]] = reachDecl{sp, p}
			case *ast.ValueSpec:
				for _, id := range sp.Names {
					switch {
					case id.Name != "_":
						s.decls[p.info.Defs[id]] = reachDecl{sp, p}
					case sp.Type != nil:
						roots = append(roots, reachDecl{sp.Type, p})
					default:
						roots = append(roots, reachDecl{sp, p})
					}
				}
			}
		}
	}
	return roots
}

// expose reaches t's module types and their exported methods, and goes
// on through the exported fields and method signatures of those types:
// everything a user of the API can call once it holds a value of t.
func (s *reachScan) expose(t types.Type) {
	switch t := t.(type) {
	case *types.Named:
		tn := t.Origin().Obj()
		if tn.Pkg() == nil || s.pkgs[tn.Pkg().Path()] == nil || s.exposed[tn] {
			return
		}
		s.exposed[tn] = true
		s.reach(tn)
		mset := types.NewMethodSet(types.NewPointer(t))
		for i := 0; i < mset.Len(); i++ {
			if m := mset.At(i).Obj(); m.Exported() {
				s.reach(m)
				s.expose(m.Type())
			}
		}
		s.expose(t.Underlying())
	case *types.Pointer:
		s.expose(t.Elem())
	case *types.Slice:
		s.expose(t.Elem())
	case *types.Array:
		s.expose(t.Elem())
	case *types.Map:
		s.expose(t.Key())
		s.expose(t.Elem())
	case *types.Chan:
		s.expose(t.Elem())
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				s.expose(tup.At(i).Type())
			}
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); f.Exported() || f.Embedded() {
				s.expose(f.Type())
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			s.expose(t.Method(i).Type())
		}
	}
}

// addStdInterfaces counts as live every named interface of the standard
// library packages the module loads, error, and the unnamed interfaces
// through which errors.Is, errors.As and errors.Unwrap call methods.
func (s *reachScan) addStdInterfaces() {
	errType := types.Universe.Lookup("error").Type()
	s.ifaces[errType.Underlying().(*types.Interface)] = true
	method := func(name string, params, results *types.Tuple) *types.Func {
		return types.NewFunc(token.NoPos, nil, name, types.NewSignatureType(nil, nil, nil, params, results, false))
	}
	one := func(t types.Type) *types.Tuple { return types.NewTuple(types.NewVar(token.NoPos, nil, "", t)) }
	anyType := types.Universe.Lookup("any").Type()
	boolType := types.Typ[types.Bool]
	for _, m := range []*types.Func{
		method("Unwrap", nil, one(errType)),
		method("Unwrap", nil, one(types.NewSlice(errType))),
		method("Is", one(errType), one(boolType)),
		method("As", one(anyType), one(boolType)),
	} {
		s.ifaces[types.NewInterfaceType([]*types.Func{m}, nil).Complete()] = true
	}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		if _, own := s.pkgs[pkg.Path()]; !own {
			scope := pkg.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok {
					continue
				}
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams() == nil {
					if it, ok := named.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
						s.ifaces[it] = true
					}
				}
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, p := range s.pkgs {
		visit(p.pkg)
	}
}

// reach queues obj if it is a module declaration not yet reached.
func (s *reachScan) reach(obj types.Object) {
	if f, ok := obj.(*types.Func); ok {
		obj = f.Origin()
	}
	if _, ok := s.decls[obj]; !ok || s.reached[obj] {
		return
	}
	s.reached[obj] = true
	s.work = append(s.work, obj)
}

// walk reaches every object d's syntax uses and the named type of every
// value it uses, and records the interfaces it spells out.
func (s *reachScan) walk(d reachDecl) {
	ast.Inspect(d.node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := d.pkg.info.Uses[n]; obj != nil {
				s.reach(obj)
				if _, ok := obj.(*types.TypeName); !ok {
					s.reachType(obj.Type())
				}
			}
		case *ast.InterfaceType:
			if it, ok := d.pkg.info.Types[n].Type.(*types.Interface); ok && it.NumMethods() > 0 {
				s.ifaces[it] = true
			}
		}
		return true
	})
}

func (s *reachScan) reachType(t types.Type) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		s.reach(named.Origin().Obj())
	}
}

// drain walks queued declarations and reaches the methods that reached
// types provide to live interfaces, until neither finds anything new.
func (s *reachScan) drain() {
	for {
		for len(s.work) > 0 {
			obj := s.work[len(s.work)-1]
			s.work = s.work[:len(s.work)-1]
			s.walk(s.decls[obj])
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					if it.NumMethods() > 0 {
						s.ifaces[it] = true
					}
				} else {
					s.types = append(s.types, tn)
				}
			}
		}
		for _, tn := range s.types {
			named := tn.Type().(*types.Named)
			ptr := types.NewPointer(named)
			mset := types.NewMethodSet(ptr)
			for it := range s.ifaces {
				if mset.Lookup(it.Method(0).Pkg(), it.Method(0).Name()) == nil {
					continue
				}
				// A generic type is matched by method names alone.
				if named.TypeParams() == nil && !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
						s.reach(obj)
					}
				}
			}
		}
		if len(s.work) == 0 {
			return
		}
	}
}

// unreachedInternal returns the unreached internal/ declarations by the
// names the allowlist spells: the package path below internal/, the
// receiver type for a method, then the name.
func (s *reachScan) unreachedInternal() map[string]types.Object {
	out := map[string]types.Object{}
	prefix := reachModule + "/internal/"
	for obj, d := range s.decls {
		if s.reached[obj] || !strings.HasPrefix(d.pkg.path, prefix) {
			continue
		}
		name := strings.TrimPrefix(d.pkg.path, prefix) + "."
		if f, ok := obj.(*types.Func); ok {
			if recv := f.Type().(*types.Signature).Recv(); recv != nil {
				t := recv.Type()
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				name += t.(*types.Named).Obj().Name() + "."
			}
		}
		out[name+obj.Name()] = obj
	}
	return out
}
