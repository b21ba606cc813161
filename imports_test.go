package synapse

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// moduleDeps returns the module-internal packages pkg reaches through the
// imports of its non-test files, transitively, as directories relative to
// the repository root. Files of every build constraint count, so the
// closure is the union over platforms.
func moduleDeps(t *testing.T, pkg string) map[string]bool {
	t.Helper()
	const module = "synapse/"
	seen := map[string]bool{}
	queue := []string{pkg}
	for len(queue) > 0 {
		dir := queue[0]
		queue = queue[1:]
		entries, err := os.ReadDir(filepath.FromSlash(dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(filepath.FromSlash(dir), name), nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				dep, ok := strings.CutPrefix(path, module)
				if !ok || seen[dep] {
					continue
				}
				seen[dep] = true
				queue = append(queue, dep)
			}
		}
	}
	return seen
}

// TestImportBoundaries pins the profiler/emulator split at link time: a
// profile taken once replays anywhere, so the replay engine — and the fleet
// worker that hosts it — links neither the profiler (watcher, procfs,
// proc, app, the pacing clock), nor the profile-and-emulate orchestration
// (core), nor the paper's figure code (exp).
func TestImportBoundaries(t *testing.T) {
	for _, tc := range []struct {
		pkg       string
		forbidden []string
	}{
		{"internal/scenario", []string{"internal/core", "internal/exp"}},
		{"internal/emulator", []string{"internal/watcher", "internal/clock"}},
		{"cmd/synapse-worker", []string{
			"internal/watcher", "internal/procfs", "internal/proc", "internal/app",
			"internal/clock", "internal/core", "internal/exp",
		}},
	} {
		deps := moduleDeps(t, tc.pkg)
		for _, f := range tc.forbidden {
			if deps[f] {
				t.Errorf("%s reaches %s", tc.pkg, f)
			}
		}
	}
}
