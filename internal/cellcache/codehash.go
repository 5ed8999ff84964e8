// Code-version keying: every cache key embeds a digest of the Go
// source of the packages that can affect simulation output, so editing
// any of them silently invalidates the whole cache — stale entries are
// simply never matched again (and `armbar cache gc` reclaims them).
package cellcache

import (
	"crypto/sha256"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// simPackages lists the internal packages whose sources feed seeded
// experiment output, directly or through the figure generators. The
// list errs on the side of inclusion: hashing one package too many
// only costs a cold rerun after an edit, while missing one would serve
// stale results. cellcache itself is included so an encoding change
// can never decode old records into wrong values.
var simPackages = []string{
	"a64", "absmodel", "ace", "barrier", "cellcache", "core",
	"dedup", "ds", "explore", "figures", "floorplan", "isa",
	"locks", "mesi", "pc", "platform", "prog", "report",
	"runner", "sb", "sim", "topo",
}

var (
	codeHashOnce sync.Once
	codeHashVal  Key
)

// CodeHash returns the process-wide code-version digest, computed once
// (module source scan; the executable image as a fallback when the
// source tree is unavailable, e.g. an installed binary run elsewhere).
func CodeHash() Key {
	codeHashOnce.Do(func() { codeHashVal = computeCodeHash() })
	return codeHashVal
}

func computeCodeHash() Key {
	if root, ok := findModuleRoot(); ok {
		if k, err := HashPackages(root, simPackages); err == nil {
			return k
		}
	}
	// No readable source tree: fall back to the binary itself, which
	// still changes on every rebuild — over-invalidation, never
	// staleness.
	if exe, err := os.Executable(); err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			return sha256.Sum256(data)
		}
	}
	// Last resort: a fixed sentinel. The cache still works, but code
	// edits no longer invalidate it; Open callers can surface
	// CodeHashHex to make this visible.
	return sha256.Sum256([]byte("armbar/cellcache: unknown code version"))
}

// HashPackages digests every non-test .go file of root/internal/<pkg>
// for the named packages, in sorted (package, file) order. Exported so
// tests can verify that a one-byte source edit flips the digest.
func HashPackages(root string, pkgs []string) (Key, error) {
	sorted := append([]string(nil), pkgs...)
	sort.Strings(sorted)
	h := sha256.New()
	files := 0
	for _, pkg := range sorted {
		dir := filepath.Join(root, "internal", pkg)
		ents, err := os.ReadDir(dir) // returns names sorted
		if err != nil {
			// A listed package may not exist yet (or anymore): record
			// its absence so adding it later flips the hash.
			h.Write([]byte("absent:" + pkg + "\x00"))
			continue
		}
		for _, e := range ents {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				return Key{}, err
			}
			h.Write([]byte(pkg + "/" + name + "\x00"))
			h.Write(data)
			h.Write([]byte{0})
			files++
		}
	}
	if files == 0 {
		return Key{}, os.ErrNotExist
	}
	var k Key
	h.Sum(k[:0])
	return k, nil
}

// findModuleRoot walks up from the working directory (and, failing
// that, from this file's compile-time location) looking for the armbar
// go.mod.
func findModuleRoot() (string, bool) {
	if wd, err := os.Getwd(); err == nil {
		if root, ok := rootFrom(wd); ok {
			return root, true
		}
	}
	if _, file, _, ok := runtime.Caller(0); ok {
		if root, ok := rootFrom(filepath.Dir(file)); ok {
			return root, true
		}
	}
	return "", false
}

func rootFrom(dir string) (string, bool) {
	for i := 0; i < 16; i++ {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(data)), "module armbar") {
			return dir, true
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			break
		}
		dir = parent
	}
	return "", false
}
