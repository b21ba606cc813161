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

// docFlag matches a command-line flag as the docs write one: a dash and a
// lower-case name after a backtick or whitespace (so not the dash inside
// synapse-sim or first-complete-wins, and not a negative number).
var docFlag = regexp.MustCompile("[`\\s]-([a-z][a-z-]*)")

// goFlag matches a flag definition on a flag.FlagSet named fs: fs.Int("name",
// fs.IntVar(&v, "name", and their siblings.
var goFlag = regexp.MustCompile(`\bfs\.[A-Z]\w*\((?:&[\w.]+, )?"([a-z][a-z-]*)"`)

// TestDocsFlagsExist verifies every flag docs/distributed.md's quick start
// and tuning table name is defined by synapse-sim, synapse-worker or the
// shared daemon flag set — a tuning row for a flag that left the binaries
// fails here instead of misleading an operator.
func TestDocsFlagsExist(t *testing.T) {
	defined := map[string]bool{}
	for _, src := range []string{"cmd/synapse-sim/main.go", "cmd/synapse-worker/main.go", "internal/httpsvc/daemon.go"} {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range goFlag.FindAllSubmatch(data, -1) {
			defined[string(m[1])] = true
		}
	}
	if len(defined) < 20 {
		t.Fatalf("found only %d flag definitions: the pattern no longer matches how flags are declared", len(defined))
	}
	data, err := os.ReadFile("docs/distributed.md")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, heading := range []string{"## Quick start\n", "### Tuning\n"} {
		_, section, ok := strings.Cut(string(data), heading)
		if !ok {
			t.Fatalf("docs/distributed.md has no %q section", strings.TrimSpace(heading))
		}
		section, _, _ = strings.Cut(section, "\n## ")
		for _, m := range docFlag.FindAllStringSubmatch(section, -1) {
			checked++
			if !defined[m[1]] {
				t.Errorf("docs/distributed.md %q names -%s, which no binary defines", strings.TrimSpace(heading), m[1])
			}
		}
	}
	if checked < 8 {
		t.Errorf("checked only %d flags: the sections or the pattern drifted", checked)
	}
}
