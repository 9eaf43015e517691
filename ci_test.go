package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ciTestFlag captures a -run, -fuzz or -bench pattern of a `go test` command
// line, quoted or bare.
var ciTestFlag = regexp.MustCompile(`-(run|fuzz|bench)\s+(?:'([^']*)'|(\S+))`)

// TestCIPatternsMatchTests keeps the workflow's targeted steps honest: every
// `|`-alternative of a -run, -fuzz or -bench pattern in
// .github/workflows/ci.yml must match at least one func Test*, Fuzz* or
// Benchmark* (as the flag selects) declared in the packages that command
// lists. A renamed or deleted test otherwise drops out of its CI step without
// a failure, because `go test -run` that matches nothing passes. The `-run`
// of a -fuzz or -bench line only silences the unit tests and is not checked.
func TestCIPatternsMatchTests(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	prefix := map[string]string{"run": "Test", "fuzz": "Fuzz", "bench": "Benchmark"}
	checked := 0
	for i, line := range strings.Split(string(data), "\n") {
		flags := ciTestFlag.FindAllStringSubmatch(line, -1)
		if !strings.Contains(line, "go test ") || len(flags) == 0 {
			continue
		}
		var names []string
		for _, arg := range strings.Fields(line) {
			if strings.HasPrefix(arg, "./") {
				names = append(names, ciTestFuncs(t, arg)...)
			}
		}
		silenced := strings.Contains(line, " -fuzz ") || strings.Contains(line, " -bench ")
		for _, m := range flags {
			flag, pattern := m[1], m[2]+m[3]
			if flag == "run" && silenced {
				continue
			}
			// Only the top-level test name is matched here; a /subtest
			// element selects inside it.
			top, _, _ := strings.Cut(pattern, "/")
			for _, alt := range strings.Split(top, "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Fatalf("ci.yml:%d: -%s alternative %q: %v", i+1, flag, alt, err)
				}
				matched := false
				for _, name := range names {
					kind := strings.HasPrefix(name, prefix[flag]) || flag == "run" && strings.HasPrefix(name, "Fuzz")
					if kind && re.MatchString(name) {
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("ci.yml:%d: -%s alternative %q matches no test in the packages the step lists", i+1, flag, alt)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run or -fuzz pattern in ci.yml; the parser no longer reads the workflow")
	}
}

// ciTestFuncs returns the names of the top-level Test*, Fuzz* and Benchmark*
// functions declared in the _test.go files of a package argument such as
// ./internal/serve/.
func ciTestFuncs(t *testing.T, pkg string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("package %s: no test files (%v)", pkg, err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Recv == nil && (strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz") || strings.HasPrefix(fn.Name.Name, "Benchmark")) {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
}
