package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestHotPathFuncsExist fails on any HotPathFuncs key that names no
// function or method in the module. allocvet only checks the functions
// it finds, so a key left behind by a deleted or renamed function pins
// nothing, and the lint gate would pass without the replacement being
// pinned.
func TestHotPathFuncsExist(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	byPkg := map[string][]string{}
	for key := range HotPathFuncs {
		slash := strings.LastIndex(key, "/")
		dot := strings.Index(key[slash+1:], ".")
		if slash < 0 || dot < 0 {
			t.Errorf("HotPathFuncs key %q is not importpath.[Receiver.]name", key)
			continue
		}
		path := key[:slash+1+dot]
		byPkg[path] = append(byPkg[path], key)
	}
	fset := token.NewFileSet()
	for path, keys := range byPkg {
		rel, ok := strings.CutPrefix(path, l.ModuleName()+"/")
		if !ok {
			t.Errorf("HotPathFuncs keys %v are outside module %s", keys, l.ModuleName())
			continue
		}
		dir := filepath.Join(l.moduleRoot, filepath.FromSlash(rel))
		names, err := goSourceFiles(dir)
		if err != nil {
			t.Errorf("package %s of HotPathFuncs keys %v: %v", path, keys, err)
			continue
		}
		declared := map[string]bool{}
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok {
					declared[funcKey(path, fn)] = true
				}
			}
		}
		sort.Strings(keys)
		for _, key := range keys {
			if !declared[key] {
				t.Errorf("HotPathFuncs key %q names no function or method in %s", key, path)
			}
		}
	}
}

// TestDeterministicPackagesExist fails on any DeterministicPackages key
// that names no package. determvet runs only inside the packages it
// loads, so a key left behind by a deleted or moved package checks
// nothing while the lint gate stays green. Module keys must name a
// module directory with Go sources; the fixture keys must name a
// directory under testdata/src.
func TestDeterministicPackagesExist(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for key := range DeterministicPackages {
		dir := filepath.Join("testdata", "src", filepath.FromSlash(key))
		if rel, ok := strings.CutPrefix(key, l.ModuleName()+"/"); ok {
			dir = filepath.Join(l.moduleRoot, filepath.FromSlash(rel))
		}
		names, err := goSourceFiles(dir)
		if err != nil || len(names) == 0 {
			t.Errorf("DeterministicPackages key %q names no package with Go sources (%s): %v", key, dir, err)
		}
	}
}
