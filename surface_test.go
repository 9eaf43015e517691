package repro

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

// surfaceInterfaceMethods are method names the standard library calls through
// an interface (fmt, errors, encoding/json, io), so no identifier in this
// repository has to spell them for them to run.
var surfaceInterfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "Read": true, "Write": true,
}

// surfaceKept are exported names no product path spells that stay on
// purpose; each entry says who is waiting for it. internal/faultinject is
// skipped whole: it is the chaos harness the serve and sweep tests share, and
// Go has no way to import one package's _test.go files from another.
var surfaceKept = map[string]string{
	"Credits":        "router occupancy accessor: ROADMAP telemetry reads it",
	"InputOccupancy": "as Credits",
	"OutputLocked":   "as Credits",
	"Quiescent":      "as Credits",
	"Pending":        "memory-controller occupancy, as Credits",
	"Served":         "memory-controller throughput, as Credits",
	"EnableWCETMode": "the paper's WCET-estimation mode; its test is a bound >= execution check",
	"MustBuild":      "constant-argument constructor; fixture of the flows, traffic and analysis tests",
	"MustNewModel":   "constant-argument constructor; fixture of the analysis and serve tests",
	"Variability":    "Figure 2(b) placement metric; the wcet and root claim tests share it",
}

// TestNoUnreachedExportedSurface is the ratchet behind "only what a product
// path reaches ships in the product": every exported func, method and type
// declared in a non-test file under internal/ must be spelled somewhere in
// non-test Go (cmd/, examples/, internal/, bench/) other than at its own
// declaration. The match is by name, not by type, so it under-reports when
// two packages share a name — it is a floor against dead surface coming back,
// not a proof of reachability.
func TestNoUnreachedExportedSurface(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]string{} // exported name -> first declaring position
	declNames := map[*ast.Ident]bool{}
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if name := d.Name(); d.IsDir() && (name == ".bench_build" || name == "testdata" || name == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		slash := filepath.ToSlash(path)
		internal := strings.HasPrefix(slash, "internal/") && !strings.HasPrefix(slash, "internal/faultinject/")
		declare := func(id *ast.Ident) {
			declNames[id] = true
			if _, seen := declared[id.Name]; internal && id.IsExported() && !seen {
				declared[id.Name] = fset.Position(id.Pos()).String()
			}
		}
		// A declaration is visited before the identifier that names it, so
		// one pass tells a name's declaration from its uses.
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv == nil || !surfaceInterfaceMethods[n.Name.Name] {
					declare(n.Name)
				}
			case *ast.TypeSpec:
				declare(n.Name)
			case *ast.Ident:
				if !declNames[n] {
					used[n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unreached []string
	for name, pos := range declared {
		if _, kept := surfaceKept[name]; !used[name] && !kept {
			unreached = append(unreached, name+"  "+pos)
		}
	}
	for name := range surfaceKept {
		if _, ok := declared[name]; !ok || used[name] {
			t.Errorf("surfaceKept lists %s, which is gone or now has a caller: drop the entry", name)
		}
	}
	sort.Strings(unreached)
	if len(unreached) > 0 {
		t.Errorf("%d exported names under internal/ have no reference in non-test code; delete them, move them behind the tests, or add them to surfaceKept with the reason:\n  %s",
			len(unreached), strings.Join(unreached, "\n  "))
	}
}
