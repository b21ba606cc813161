package synapse

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches markdown inline links and images: [text](target).
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// mdName matches a markdown file name, e.g. docs/service.md.
var mdName = regexp.MustCompile(`[A-Za-z0-9_./-]+\.md\b`)

// TestDocsLinks verifies every relative markdown link in README.md and
// docs/ resolves to a file in the repository, and every *.md file a Go
// comment cites exists (relative to the repository root or to the citing
// file), so the documentation cannot silently rot as files move. CI runs
// it in the docs job.
func TestDocsLinks(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == ".bench_build" || path == filepath.Join("bench", "out") || path == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(string(data), "\n") {
			_, comment, ok := strings.Cut(line, "//")
			if !ok {
				continue
			}
			for _, name := range mdName.FindAllString(comment, -1) {
				_, atRoot := os.Stat(name)
				_, beside := os.Stat(filepath.Join(filepath.Dir(path), name))
				if atRoot != nil && beside != nil {
					t.Errorf("%s cites %s, which is not in the tree", path, name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	files := []string{"README.md"}
	entries, err := os.ReadDir("docs")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".md") {
			files = append(files, filepath.Join("docs", e.Name()))
		}
	}
	if len(files) < 2 {
		t.Fatalf("suspiciously few markdown files: %v", files)
	}

	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"),
				strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"):
				continue // external; not checked offline
			case strings.HasPrefix(target, "#"):
				continue // intra-document anchor
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			resolved := filepath.Join(filepath.Dir(f), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved %s): %v", f, m[1], resolved, err)
			}
		}
	}
}
