package htlvideo

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// uncalledExported lists the exported functions and methods that no
// non-test file names outside their own body, each with the reason it stays
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
	"workload.CorpusVideo":        "test corpora",
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
// exported function is called when its name appears as an identifier in
// some non-test file of the module, bench/ or examples/ outside its own
// body. Name collisions make the check conservative: it may miss an unused
// function but never flags a used one. bench/'s own declarations are not
// checked.
func TestExportedFuncsHaveCallers(t *testing.T) {
	type decl struct{ key, name string }
	var decls []decl
	uses := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
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
		checked := !strings.HasPrefix(filepath.ToSlash(path), "bench/")
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				countIdents(d, "", uses)
				continue
			}
			if fn.Recv != nil {
				countIdents(fn.Recv, "", uses)
			}
			countIdents(fn.Type, "", uses)
			if fn.Body != nil {
				countIdents(fn.Body, fn.Name.Name, uses)
			}
			if checked && fn.Name.IsExported() {
				key := f.Name.Name + "."
				if fn.Recv != nil {
					key += recvName(fn.Recv.List[0].Type) + "."
				}
				decls = append(decls, decl{key + fn.Name.Name, fn.Name.Name})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, d := range decls {
		if uses[d.name] == 0 {
			found[d.key] = true
		}
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

// countIdents counts every identifier under n, except self: a function's
// name inside its own body is recursion, not a caller.
func countIdents(n ast.Node, self string, uses map[string]int) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name != self {
			uses[id.Name]++
		}
		return true
	})
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
