package mpcspanner

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestPublicAPISurface is the golden API gate: the exported identifier set
// of package mpcspanner must exactly match the checked-in api/v1.txt, so a
// PR can neither break the v1 surface nor bloat it silently. Every surface
// change is an explicit, reviewable edit of that file.
//
// To regenerate after an intentional change:
//
//	UPDATE_API=1 go test -run TestPublicAPISurface .
func TestPublicAPISurface(t *testing.T) {
	got := exportedSurface(t)
	want := readSurfaceFile(t, "api/v1.txt")

	if os.Getenv("UPDATE_API") != "" {
		writeSurfaceFile(t, got)
		return
	}

	var missing, extra []string
	for name := range want {
		if !got[name] {
			missing = append(missing, name)
		}
	}
	for name := range got {
		if !want[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing) > 0 {
		t.Errorf("exported surface lost identifiers (breaking change):\n  %s",
			strings.Join(missing, "\n  "))
	}
	if len(extra) > 0 {
		t.Errorf("exported surface gained identifiers not declared in api/v1.txt:\n  %s\n"+
			"add them to api/v1.txt deliberately, or unexport them",
			strings.Join(extra, "\n  "))
	}
}

// exportedSurface type-checks the package (source importer, so the aliased
// internal types resolve too) and returns every exported identifier
// reachable through it: funcs, types, consts, vars, and the exported method
// sets of exported types as "Type.Method" — including methods that live on
// internal types re-exported here as aliases (Oracle, Graph, APSPResult, …),
// which a pure AST scan of this package would never see.
func exportedSurface(t *testing.T) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	astPkg, ok := pkgs["mpcspanner"]
	if !ok {
		t.Fatalf("package mpcspanner not found in %v", pkgs)
	}
	var files []*ast.File
	for _, f := range astPkg.Files {
		files = append(files, f)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("mpcspanner", fset, files, nil)
	if err != nil {
		t.Fatalf("type-checking the public package: %v", err)
	}
	out := make(map[string]bool)
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		out[name] = true
		tn, ok := obj.(*types.TypeName)
		if !ok {
			continue
		}
		// *T's method set is a superset of T's, so one enumeration covers
		// both value and pointer receivers.
		ms := types.NewMethodSet(types.NewPointer(tn.Type()))
		for i := 0; i < ms.Len(); i++ {
			if m := ms.At(i).Obj(); m.Exported() {
				out[name+"."+m.Name()] = true
			}
		}
	}
	return out
}

// readSurfaceFile parses api/v1.txt into a set. Lines are identifiers; '#'
// starts a comment line.
func readSurfaceFile(t *testing.T, path string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden API file: %v (regenerate with UPDATE_API=1)", err)
	}
	names := make(map[string]bool)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		names[line] = true
	}
	return names
}

// writeSurfaceFile regenerates api/v1.txt as one sorted list.
func writeSurfaceFile(t *testing.T, got map[string]bool) {
	t.Helper()
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("# Golden exported surface of package mpcspanner (v1).\n")
	b.WriteString("# Checked by TestPublicAPISurface; edit deliberately, one identifier per line.\n")
	for _, name := range names {
		fmt.Fprintln(&b, name)
	}
	if err := os.WriteFile("api/v1.txt", []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("api/v1.txt regenerated: %d identifiers", len(names))
}
