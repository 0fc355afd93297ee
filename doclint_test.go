package waterwise

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"strings"
	"testing"
)

// TestExportedAPIDocumented is the doc-comment lint backing the feed
// PR's documentation guarantee: every exported top-level declaration in
// the public facade and the environment-feed packages must carry a doc
// comment (the godoc pass promised that each states its determinism and
// concurrency behavior — this lint at least keeps the comments from
// silently disappearing). Grouped const/var/type declarations may carry
// one doc comment for the group.
func TestExportedAPIDocumented(t *testing.T) {
	for _, dir := range []string{".", "internal/feed", "internal/obs", "internal/region", "internal/scenario", "internal/tsdb", "internal/wal", "internal/wire"} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					for _, miss := range undocumented(decl) {
						pos := fset.Position(miss.pos)
						t.Errorf("%s:%d: exported %s %s has no doc comment", pos.Filename, pos.Line, miss.kind, miss.name)
					}
				}
			}
		}
	}
}

type missingDoc struct {
	kind, name string
	pos        token.Pos
}

// undocumented reports the exported names a top-level declaration leaves
// without documentation.
func undocumented(decl ast.Decl) []missingDoc {
	var out []missingDoc
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() && d.Doc == nil {
			kind := "func"
			if d.Recv != nil {
				kind = fmt.Sprintf("method (%s)", types(d.Recv))
			}
			out = append(out, missingDoc{kind, d.Name.Name, d.Pos()})
		}
	case *ast.GenDecl:
		if d.Doc != nil {
			return nil // a group doc covers every spec
		}
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && s.Doc == nil && s.Comment == nil {
					out = append(out, missingDoc{"type", s.Name.Name, s.Pos()})
				}
			case *ast.ValueSpec:
				if s.Doc != nil || s.Comment != nil {
					continue
				}
				for _, name := range s.Names {
					if name.IsExported() {
						out = append(out, missingDoc{"value", name.Name, s.Pos()})
					}
				}
			}
		}
	}
	return out
}

// types renders a receiver list compactly for the error message.
func types(fl *ast.FieldList) string {
	if fl == nil || len(fl.List) == 0 {
		return ""
	}
	switch t := fl.List[0].Type.(type) {
	case *ast.StarExpr:
		if id, ok := t.X.(*ast.Ident); ok {
			return "*" + id.Name
		}
	case *ast.Ident:
		return t.Name
	}
	return "receiver"
}

// stdInterfaceMethods are exempt from TestExportedFuncsHaveProductionCallers
// by name: they exist to satisfy a standard-library interface and are
// called through it, not by identifier.
var stdInterfaceMethods = map[string]bool{
	"String": true, "Error": true, "Len": true, "Less": true, "Swap": true,
	"Push": true, "Pop": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"RoundTrip": true, "ServeHTTP": true,
}

// testOnlyAllowed lists the exported functions under internal/ that no
// production file references and that stay anyway, each with its reason.
// Everything else must earn its place in a non-test file.
var testOnlyAllowed = map[string]string{
	"lp.SolveReference":           "the dense-tableau oracle the simplex differential tests compare against",
	"obs.LintProm":                "the exposition checker every metrics test runs",
	"wire.DecodeFrame":            "fuzz and golden-bytes target; shares parseHeader with ReadFrame",
	"wire.AppendFrame":            "fuzz and golden-bytes target, DecodeFrame's inverse",
	"core.LastRoundObjective":     "instrument: the reprice and warm-start tests compare round objectives",
	"fleet.Owner":                 "instrument: routing tests ask which shard owns a region",
	"milp.SetBinary":              "instrument: differential tests build models with it",
	"milp.SetInteger":             "instrument: differential tests build models with it",
	"stats.StdDev":                "instrument: trace and perturbation tests measure spread",
	"forecast.Evaluate":           "instrument: forecaster accuracy tests score with it",
	"gridmix.MeanCarbonIntensity": "instrument: region calibration tests",
	"gridmix.MeanEWIF":            "instrument: region calibration tests",
	"obs.StageBreakdown":          "instrument: the obs tests read a trace's stages by name",
	"server.ConnCount":            "instrument: stream tests wait on connection teardown",
	"server.DecisionFromWire":     "instrument: WireDecision's inverse, the stream round-trip tests' decoder",
	"transfer.NewCustom":          "instrument: transfer tests pin bandwidth and latency",
}

// TestExportedFuncsHaveProductionCallers keeps "no production code that
// only tests call" true: every exported func or method under internal/
// must be referenced from at least one non-test file of this module or
// of bench/, or sit in testOnlyAllowed with a reason. References match
// by identifier name, which errs toward "used".
func TestExportedFuncsHaveProductionCallers(t *testing.T) {
	type decl struct{ key, pos string }
	var decls []decl
	idents := map[string]int{} // every identifier occurrence, declarations included
	declared := map[string]int{}
	fset := token.NewFileSet()
	err := fs.WalkDir(os.DirFS("."), ".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." {
				return fs.SkipDir // .git, .bench_build
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				idents[id.Name]++
			}
			return true
		})
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name.Name]++
			if strings.HasPrefix(path, "internal/") && fd.Name.IsExported() {
				decls = append(decls, decl{file.Name.Name + "." + fd.Name.Name, fset.Position(fd.Pos()).String()})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range decls {
		name := d.key[strings.IndexByte(d.key, '.')+1:]
		if idents[name] > declared[name] || stdInterfaceMethods[name] {
			continue
		}
		seen[d.key] = true
		if testOnlyAllowed[d.key] == "" {
			t.Errorf("%s: exported %s has no caller outside _test.go files: delete it, or add it to testOnlyAllowed with the reason it stays", d.pos, d.key)
		}
	}
	for key := range testOnlyAllowed {
		if !seen[key] {
			t.Errorf("testOnlyAllowed lists %s, which is gone or has a production caller now: drop the entry", key)
		}
	}
}
