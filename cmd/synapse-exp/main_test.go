package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runExp runs the CLI body and returns what it printed, with the trailing
// wall-time line (the one non-deterministic line) cut off.
func runExp(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("synapse-exp %v: %v", args, err)
	}
	out := buf.String()
	i := strings.LastIndex(out, "regenerated ")
	if i < 0 {
		t.Fatalf("synapse-exp %v: no closing summary line in:\n%s", args, out)
	}
	return out[:i]
}

// The emitted tables are a function of the configuration alone: the worker
// count only changes which goroutine replays which figure cell.
func TestExpTablesIdenticalAcrossWorkers(t *testing.T) {
	serial := runExp(t, "-quick", "-only", "fig7", "-workers", "1")
	parallel := runExp(t, "-quick", "-only", "fig7", "-workers", "2")
	if !strings.Contains(serial, "== fig7:") {
		t.Fatalf("-only fig7 printed no fig7 table:\n%s", serial)
	}
	if strings.Count(serial, "== ") != 1 {
		t.Errorf("-only fig7 printed other artifacts too:\n%s", serial)
	}
	if serial != parallel {
		t.Errorf("-workers 1 and -workers 2 differ:\n--- 1 ---\n%s--- 2 ---\n%s", serial, parallel)
	}
}

func TestExpOutWritesTextAndCSV(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "artifacts")
	printed := runExp(t, "-quick", "-only", "fig7", "-out", dir)
	txt, err := os.ReadFile(filepath.Join(dir, "fig7.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(printed, string(txt)) {
		t.Errorf("fig7.txt is not the printed table:\n%s", txt)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "fig7.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(string(csv)), "\n"); len(lines) < 2 || !strings.Contains(lines[0], ",") {
		t.Errorf("fig7.csv is not a header plus rows:\n%s", csv)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("-only fig7 -out wrote %d files, want the fig7 .txt/.csv pair", len(entries))
	}
}

func TestExpUnknownOnlyErrors(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-quick", "-only", "fig99"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "fig99") || !strings.Contains(err.Error(), "fig7") {
		t.Fatalf("unknown -only id: err = %v, want one naming the id and the known ones", err)
	}
	if buf.Len() != 0 {
		t.Errorf("unknown -only id still printed:\n%s", buf.String())
	}
}

func TestExpVersionFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-version"}, &buf); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.HasPrefix(out, "synapse-exp ") || !strings.Contains(out, "go") {
		t.Errorf("-version printed %q", out)
	}
}
