package htlvideo

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// uncalledExported lists the exported functions and methods that no
// non-test file calls outside their own body, each with the reason it stays
// (DESIGN.md §6). Anything exported that neither a library, command,
// example or bench/ caller nor an entry here accounts for fails
// TestExportedFuncsHaveCallers, and so does an entry that has gained a
// caller or gone.
var uncalledExported = map[string]string{
	"core.TopKBySort":             "the sort-everything oracle the production top-k is held to",
	"simlist.List.Expand":         "the dense oracle lists are checked against",
	"refeval.Evaluator.SimAt":     "the per-segment reference evaluation",
	"core.CombineTables":          "kernel operator held to its naive reference in tests",
	"core.FreezeTable":            "kernel operator held to its naive reference in tests",
	"core.ListRestrict":           "kernel operator held to its naive reference in tests",
	"core.EvalTable":              "TestKernelGolden's table dump",
	"core.UntilListsPaperRule":    "the literal §3.1 until rule the kernel is held to",
	"core.MaxMergeLists":          "AblationMWayMerge's m-way merge",
	"core.MaxMergePairwise":       "AblationMWayMerge's pairwise baseline",
	"experiments.EncodeInput":     "AblationStorageRead: §4.2's storage read, and through it internal/listio",
	"experiments.RunDirectStored": "AblationStorageRead: §4.2's storage read, and through it internal/listio",
	"obs.LintExposition":          "the lint-metrics gate",
	"obs.HealthDoc.Degraded":      "health-test assertion",
	"obs.HealthDoc.Reasons":       "health-test assertion",
	"simlist.Table.MustAddRow":    "table construction in tests",
	"simlist.Equal":               "the exact list comparison the engine tests hold results to",
	"simlist.Table.Validate":      "safety check: the table invariants FuzzOracle checks on every table it builds",
	"core.ValueTable.Validate":    "safety check: the value-table invariants FuzzOracle checks",
	"metadata.SegBuilder.Rel":     "test seam: relationships in the fuzz and oracle corpora",
	"faultinject.Plan.Calls":      "test seam: how often a fault site fired",
	"workload.Corpus":             "test corpora",
	"wal.FrameSize":               "crash-offset arithmetic in the crash tests",
	"wal.HeaderSize":              "crash-offset arithmetic in the crash tests",
	"htlvideo.WithParallelism":    "the library's bound on one query's concurrent videos; tests pin it",
	"faultinject.NewPlan":         "test seam: fault plans",
	"faultinject.Arm":             "test seam: fault plans",
	"faultinject.Disarm":          "test seam: fault plans",
	"resilience.Retrier.SetSleep": "test seam: retries without waiting",
	"server.WithParallelism":      "test seam: the chaos suite bounds a request's concurrent videos",
	"server.WithClock":            "test seam: a hand-advanced clock",
	"shard.WithClock":             "test seam: a hand-advanced breaker clock",
	"timeseries.WithClock":        "test seam: a hand-advanced clock",
	"cache.LRU.SetClock":          "test seam: TTL expiry under a hand-advanced clock",
	"querystats.Stats.SetClock":   "test seam: window rotation under a hand-advanced clock",
	"server.WithRandSeed":         "test seam: deterministic retry jitter",
	"shard.WithRandSeed":          "test seam: deterministic backoff jitter",
}

// TestExportedFuncsHaveCallers holds the module to its fan-in rule: an
// exported function or method is called when a use in some non-test file of
// the module resolves to it, outside its own body, or when it implements an
// interface method the module calls. bench/ is its own, frozen module: every
// use in it counts, its tests included, and so do the examples of
// example_test.go; bench/'s own declarations are not checked.
func TestExportedFuncsHaveCallers(t *testing.T) {
	found, err := uncalledFuncs(".", "htlvideo", func(rel string) bool {
		return strings.HasPrefix(rel, "bench/") || rel == "example_test.go"
	})
	if err != nil {
		t.Fatal(err)
	}
	var unlisted, stale []string
	for key := range found {
		if _, ok := uncalledExported[key]; !ok {
			unlisted = append(unlisted, key)
		}
	}
	for key := range uncalledExported {
		if !found[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(unlisted)
	sort.Strings(stale)
	for _, key := range unlisted {
		t.Errorf("%s is exported but no non-test file calls it: find it a caller or delete it", key)
	}
	for _, key := range stale {
		t.Errorf("%s is listed in uncalledExported but has a caller or is gone: drop the entry", key)
	}
}

// TestFanInRuleSeesThroughNames runs the rule on testdata/fanin, where A.Len
// is called and B.Len is not, and C.Size is reached only through an
// interface: a rule that counted bare names would pass B.Len because A.Len
// shares its name, and one that counted resolved uses alone would flag
// C.Size.
func TestFanInRuleSeesThroughNames(t *testing.T) {
	found, err := uncalledFuncs(filepath.Join("testdata", "fanin"), "fixture", nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]bool{"fixture.B.Len": true}; !maps.Equal(found, want) {
		t.Errorf("uncalled = %v, want %v", found, want)
	}
}

// uncalledFuncs type-checks the non-test packages of the module at root
// (module path mod) and returns the keys (pkg.Func or pkg.Type.Method) of its
// exported functions and methods that nothing calls. Files for which frozen
// reports true (slash paths relative to root) are read whether or not they
// are tests, and count as callers only: their declarations are not checked.
//
// A function is called when a use resolves to it (a generic one through its
// origin) outside its own body. A method is also called when its receiver
// type implements an interface whose method of that name is called, or an
// interface exported by a standard package the module imports (error,
// fmt.Stringer, io.Writer, http.Handler: the standard library, which is not
// read, calls those). Methods of generic types count by use alone.
func uncalledFuncs(root, mod string, frozen func(rel string) bool) (map[string]bool, error) {
	l := &faninLoader{
		fset:  token.NewFileSet(),
		mod:   mod,
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info:  &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}},
	}
	type decl struct {
		key string
		fn  *ast.FuncDecl
	}
	var decls []decl
	std := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		callerOnly := frozen != nil && frozen(rel)
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") && !callerOnly {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(l.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkgPath := mod
		if dir := filepath.ToSlash(filepath.Dir(rel)); dir != "." {
			pkgPath += "/" + dir
		}
		if strings.HasSuffix(f.Name.Name, "_test") {
			pkgPath += "_test"
		}
		l.files[pkgPath] = append(l.files[pkgPath], f)
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); !l.inModule(p) {
				std[p] = true
			}
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && !callerOnly && fn.Name.IsExported() {
				key := f.Name.Name + "."
				if fn.Recv != nil {
					key += recvName(fn.Recv.List[0].Type) + "."
				}
				decls = append(decls, decl{key + fn.Name.Name, fn})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := l.loadStd(std); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(l.files))
	for p := range l.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.Import(p); err != nil {
			return nil, err
		}
	}

	bodies := map[*types.Func]*ast.BlockStmt{}
	for _, d := range decls {
		bodies[l.info.Defs[d.fn.Name].(*types.Func)] = d.fn.Body
	}
	called := map[*types.Func]bool{}
	for id, obj := range l.info.Uses {
		f, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		f = f.Origin()
		if b := bodies[f]; b != nil && b.Pos() <= id.Pos() && id.Pos() < b.End() {
			continue
		}
		called[f] = true
	}
	// Interfaces by the name of a method of theirs that is called.
	ifaces := map[string]map[*types.Interface]bool{}
	addIface := func(name string, it *types.Interface) {
		if ifaces[name] == nil {
			ifaces[name] = map[*types.Interface]bool{}
		}
		ifaces[name][it] = true
	}
	for f := range called {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			if it, ok := recv.Type().Underlying().(*types.Interface); ok {
				addIface(f.Name(), it)
			}
		}
	}
	stdIfaces := []types.Object{types.Universe.Lookup("error")}
	for p := range std {
		if pkg := l.pkgs[p]; pkg != nil {
			for _, name := range pkg.Scope().Names() {
				stdIfaces = append(stdIfaces, pkg.Scope().Lookup(name))
			}
		}
	}
	for _, obj := range stdIfaces {
		tn, ok := obj.(*types.TypeName)
		if !ok || !tn.Exported() {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				addIface(it.Method(i).Name(), it)
			}
		}
	}

	found := map[string]bool{}
	for _, d := range decls {
		f := l.info.Defs[d.fn.Name].(*types.Func)
		if !called[f] && !implementsCalled(f, ifaces[f.Name()]) {
			found[d.key] = true
		}
	}
	return found, nil
}

// implementsCalled reports whether method f's receiver type, or a pointer to
// it, implements one of ifaces.
func implementsCalled(f *types.Func, ifaces map[*types.Interface]bool) bool {
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); !ok || named.TypeParams().Len() > 0 {
		return false
	}
	for it := range ifaces {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// faninLoader type-checks a module's packages from their parsed files, and
// imports standard packages from the export data `go list -export` names.
type faninLoader struct {
	fset  *token.FileSet
	mod   string
	files map[string][]*ast.File // by import path; an external test package under its own
	pkgs  map[string]*types.Package
	std   types.Importer
	info  *types.Info
}

func (l *faninLoader) inModule(path string) bool {
	return path == l.mod || strings.HasPrefix(path, l.mod+"/")
}

// loadStd asks the go command, once, where the export data of the standard
// packages in paths lives.
func (l *faninLoader) loadStd(paths map[string]bool) error {
	args := []string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for p := range paths {
		args = append(args, p)
	}
	exports := map[string]string{}
	if len(paths) > 0 {
		var stderr bytes.Buffer
		cmd := exec.Command("go", args...)
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("go list -export: %v\n%s", err, stderr.Bytes())
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
				exports[path] = file
			}
		}
	}
	l.std = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return nil
}

// Import returns the package at path, type-checking it first if it is the
// module's.
func (l *faninLoader) Import(path string) (*types.Package, error) {
	if pkg := l.pkgs[path]; pkg != nil {
		return pkg, nil
	}
	var pkg *types.Package
	var err error
	if files, ok := l.files[path]; ok {
		conf := types.Config{Importer: l}
		pkg, err = conf.Check(path, l.fset, files, l.info)
	} else {
		pkg, err = l.std.Import(path)
	}
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// recvName returns the type name of a method receiver: T for T, *T, T[P]
// and *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
