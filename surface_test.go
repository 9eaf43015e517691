package repro

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
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

// surfaceKept are exported names no product path reaches that stay on
// purpose; each entry says who is waiting for it. internal/faultinject is
// skipped whole: it is the chaos harness the serve and sweep tests share, and
// Go has no way to import one package's _test.go files from another.
var surfaceKept = map[string]string{
	"router.Router.Credits":          "router occupancy accessor: ROADMAP telemetry reads it",
	"router.Router.InputOccupancy":   "as Credits",
	"router.Router.OutputLocked":     "as Credits",
	"router.Router.Quiescent":        "as Credits",
	"router.Router.Arbiter":          "internal/network tests compare WaW state: TestDesignConfiguresNetwork, compareArbiterState",
	"memctrl.Controller.Pending":     "memory-controller occupancy, as Credits",
	"memctrl.Controller.Served":      "memory-controller throughput, as Credits",
	"manycore.System.EnableWCETMode": "the paper's WCET-estimation mode; its test is a bound >= execution check",
	"mesh.TopoSpec.MustBuild":        "constant-argument constructor; fixture of the flows, traffic, nic and analysis tests",
	"analysis.MustNewModel":          "constant-argument constructor; fixture of the analysis and serve tests",
	"wcet.Variability":               "Figure 2(b) placement metric; the wcet and root claim tests share it",
	"stats.Sampler.Count":            "internal/network tests count latency samples: TestRoundRobinFairSharingAtHotspot, TestNetworkLatencyExcludesSourceQueueing",
	"wcet.Engine.Model":              "internal/scenario TestSharedEngineIdentityAndEviction checks the engine runs on the shared model",
}

// surfaceBenchOnly are the exported names under internal/ that only bench/
// reaches. The list is a ratchet: a new bench-only name fails the test, and
// so does a listed name that gains a product caller or is deleted.
var surfaceBenchOnly = []string{
	"analysis.Model.AllPairsOneFlitWCTT",
	"analysis.Model.Params",
	"analysis.Model.SummarizeOneFlitWCTT",
	"arbiter.RoundRobin.Grant",
	"arbiter.Weighted.Grant",
	"flows.ComputeWeightTable",
	"flows.WeightTable.CountsAt",
	"mesh.WalkXY",
	"network.Network.Close",
	"network.Network.Router",
	"network.Network.RunUntilDrained",
	"router.Router.ApplyTransfer",
	"router.Router.ComputeTransfers",
	"router.Router.Forwarded",
	"scenario.PlatformFor",
	"serve.Client.Do",
	"serve.NewClient",
	"stats.Sampler.Sum",
	"wcet.Platform.TableIIIParallel",
}

// TestNoUnreachedExportedSurface is the ratchet behind "only what a product
// path reaches ships in the product". It type-checks every non-test package
// of the module, bench/ included, and requires each func, method, type and
// constant declared in a non-test file under internal/ to be the object some
// non-test identifier outside its own declaration resolves to. The match is
// by object, so a dead method does not pass because another package spells
// its name. Unexported names must be reached too; exported ones may instead
// be listed in surfaceKept. The names only bench/ reaches must equal
// surfaceBenchOnly.
func TestNoUnreachedExportedSurface(t *testing.T) {
	rep, err := scanSurface(".", "repro")
	if err != nil {
		t.Fatal(err)
	}
	var unreached []string
	for _, e := range rep.unreached {
		if _, kept := surfaceKept[e.name]; kept || strings.HasPrefix(e.dir, "internal/faultinject") {
			continue
		}
		unreached = append(unreached, e.name+"  "+e.pos)
	}
	if len(unreached) > 0 {
		t.Errorf("%d names under internal/ have no reference in non-test code; delete them, move them behind the tests, or (exported only) add them to surfaceKept naming the test that needs them:\n  %s",
			len(unreached), strings.Join(unreached, "\n  "))
	}
	for name := range surfaceKept {
		if !slices.ContainsFunc(rep.unreached, func(e surfaceEntry) bool { return e.name == name }) {
			t.Errorf("surfaceKept lists %s, which is gone or now has a caller: drop the entry", name)
		}
	}
	if !slices.Equal(rep.benchOnly, surfaceBenchOnly) {
		t.Errorf("names only bench/ reaches changed; surfaceBenchOnly should read:\n\t%q", rep.benchOnly)
	}
}

// TestSurfaceScanMatchesObjects runs the scanner on a fixture module whose
// packages spell each other's method names.
func TestSurfaceScanMatchesObjects(t *testing.T) {
	rep, err := scanSurface(filepath.Join("testdata", "surface"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range rep.unreached {
		got = append(got, e.name)
	}
	want := []string{"a.T.HasOutput", "a.deadHelper"}
	if !slices.Equal(got, want) {
		t.Errorf("unreached = %q, want %q", got, want)
	}
	if want := []string{"a.T.BenchOnly"}; !slices.Equal(rep.benchOnly, want) {
		t.Errorf("bench-only = %q, want %q", rep.benchOnly, want)
	}
}

// surfaceEntry is one declared name under internal/ that no non-test code
// reaches.
type surfaceEntry struct {
	name string // package name, receiver type if a method, name
	dir  string // package directory, slash-separated, relative to the root
	pos  string
}

type surfaceReport struct {
	unreached []surfaceEntry // sorted by name
	benchOnly []string       // exported names only bench/ reaches, sorted
}

// scanSurface type-checks the non-test packages of module mod, rooted at root
// (files picked by go/build, the standard library from importer.Default) and
// reports which funcs, methods, types and constants declared under
// root/internal/ no identifier resolves to. A use inside the name's own
// declaration, or as a method's receiver type, does not count. A use of an
// instantiated generic method counts for its origin. A concrete method counts
// as reached when its type implements an interface method of the same name
// that some code uses. Methods named in surfaceInterfaceMethods are not
// reported. Uses in root/bench/ are counted once with and once without, and
// the exported names they alone reach are reported as bench-only.
func scanSurface(root, mod string) (surfaceReport, error) {
	im := &surfaceImporter{root: root, mod: mod, fset: token.NewFileSet(), std: importer.Default(), pkgs: map[string]*surfacePkg{}}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		imp := mod
		if rel != "." {
			imp += "/" + filepath.ToSlash(rel)
		}
		_, err = im.load(imp)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		return err
	})
	if err != nil {
		return surfaceReport{}, err
	}

	type decl struct {
		surfaceEntry
		start, end token.Pos // the declaration's extent; uses inside it do not count
	}
	decls := map[types.Object]*decl{}
	var named []*types.Named // every non-generic named type, to test against used interfaces
	for _, p := range im.pkgs {
		for _, obj := range p.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() && obj.Parent() == p.types.Scope() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					named = append(named, n)
				}
			}
		}
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		add := func(id *ast.Ident, qual string, start, end token.Pos) {
			obj := p.info.Defs[id]
			if obj == nil || id.Name == "_" || id.Name == "init" {
				return
			}
			decls[obj] = &decl{
				surfaceEntry: surfaceEntry{name: p.types.Name() + "." + qual + id.Name, dir: p.dir, pos: im.fset.Position(id.Pos()).String()},
				start:        start, end: end,
			}
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add(d.Name, "", d.Pos(), d.End())
					} else if !surfaceInterfaceMethods[d.Name.Name] {
						recv := p.info.Defs[d.Name].Type().(*types.Signature).Recv().Type()
						if ptr, ok := recv.(*types.Pointer); ok {
							recv = ptr.Elem()
						}
						add(d.Name, recv.(*types.Named).Obj().Name()+".", d.Pos(), d.End())
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, "", s.Pos(), s.End())
							if it, ok := s.Type.(*ast.InterfaceType); ok {
								for _, m := range it.Methods.List {
									for _, id := range m.Names {
										if !surfaceInterfaceMethods[id.Name] {
											add(id, s.Name.Name+".", m.Pos(), m.End())
										}
									}
								}
							}
						case *ast.ValueSpec:
							if d.Tok == token.CONST {
								for _, id := range s.Names {
									add(id, "", s.Pos(), s.End())
								}
							}
						}
					}
				}
			}
		}
	}

	// reached marks every declared object some use resolves to, counting
	// bench/'s uses only when withBench is set.
	reached := func(withBench bool) map[types.Object]bool {
		seen := map[types.Object]bool{}
		ifaceMethods := map[*types.Func]bool{}
		for _, p := range im.pkgs {
			if p.dir == "bench" && !withBench {
				continue
			}
			for id, obj := range p.info.Uses {
				if p.receivers[id] {
					continue
				}
				if fn, ok := obj.(*types.Func); ok {
					obj = fn.Origin()
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						ifaceMethods[fn] = true
					}
				}
				if d := decls[obj]; d != nil && (id.Pos() < d.start || id.Pos() >= d.end) {
					seen[obj] = true
				}
			}
		}
		for fn := range ifaceMethods {
			iface := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			for _, n := range named {
				if types.IsInterface(n) || !types.Implements(types.NewPointer(n), iface) {
					continue
				}
				if m, _, _ := types.LookupFieldOrMethod(n, true, fn.Pkg(), fn.Name()); m != nil {
					seen[m.(*types.Func).Origin()] = true
				}
			}
		}
		return seen
	}
	all, product := reached(true), reached(false)
	var rep surfaceReport
	for obj, d := range decls {
		switch {
		case !all[obj]:
			rep.unreached = append(rep.unreached, d.surfaceEntry)
		case !product[obj] && obj.Exported():
			rep.benchOnly = append(rep.benchOnly, d.name)
		}
	}
	sort.Slice(rep.unreached, func(i, j int) bool { return rep.unreached[i].name < rep.unreached[j].name })
	sort.Strings(rep.benchOnly)
	return rep, nil
}

// surfacePkg is one type-checked package of the scanned module.
type surfacePkg struct {
	dir       string // slash-separated, relative to the root
	files     []*ast.File
	types     *types.Package
	info      *types.Info
	receivers map[*ast.Ident]bool // identifiers inside method receivers
}

// surfaceImporter type-checks the module's packages from source, each once,
// and imports everything else through std.
type surfaceImporter struct {
	root, mod string
	fset      *token.FileSet
	std       types.Importer
	pkgs      map[string]*surfacePkg
}

func (im *surfaceImporter) Import(path string) (*types.Package, error) {
	if path != im.mod && !strings.HasPrefix(path, im.mod+"/") {
		return im.std.Import(path)
	}
	p, err := im.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (im *surfaceImporter) load(path string) (*surfacePkg, error) {
	if p, ok := im.pkgs[path]; ok {
		return p, nil
	}
	dir := strings.TrimPrefix(strings.TrimPrefix(path, im.mod), "/")
	bp, err := build.ImportDir(filepath.Join(im.root, filepath.FromSlash(dir)), 0)
	if err != nil {
		return nil, err
	}
	p := &surfacePkg{
		dir:       dir,
		info:      &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		receivers: map[*ast.Ident]bool{},
	}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(im.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						p.receivers[id] = true
					}
					return true
				})
			}
		}
	}
	conf := types.Config{Importer: im}
	if p.types, err = conf.Check(path, im.fset, p.files, p.info); err != nil {
		return nil, err
	}
	im.pkgs[path] = p
	return p, nil
}
