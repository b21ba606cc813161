package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// testBin holds the real binaries, built once for the whole package.
var testBin string

func TestMain(m *testing.M) {
	// runProc re-executes this binary in launch mode.
	if len(os.Args) > 2 && os.Args[1] == "launch" {
		os.Exit(launchMain(os.Args[2:]))
	}
	dir, err := os.MkdirTemp("", "bench-bin")
	if err == nil {
		_, err = buildBinaries(context.Background(), "..", dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	testBin = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// smokeConfig returns a config that runs every workload at a hundredth of
// its size, writing under the test's own temp dir.
func smokeConfig(t *testing.T) (context.Context, *config) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx, &config{root: "..", binDir: testBin, outDir: t.TempDir(),
		seed: 42, scale: 0.01, setups: 1, minRuns: 2}
}

// benchmarkDecl is the part of BENCHMARK.json the harness must agree with.
type benchmarkDecl struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestSmoke(t *testing.T) {
	ctx, cfg := smokeConfig(t)
	data, err := os.ReadFile(filepath.Join(cfg.root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkDecl
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(bm.Workloads), len(workloads))
	}
	sameDecls := func(kind string, want []struct{ Name, Unit string }, got []metricDecl) {
		if len(want) != len(got) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the harness emits %d", len(want), kind, len(got))
		}
		for i, d := range got {
			if want[i].Name != d.name || want[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the harness %s [%s]", kind, i, want[i].Name, want[i].Unit, d.name, d.unit)
			}
		}
	}
	sameDecls("end_to_end", bm.EndToEnd, endToEnd)
	sameDecls("per_layer", bm.PerLayer, perLayer)

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for i := range workloads {
		w := &workloads[i]
		if bm.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q", i, bm.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			untraced, err := runOne(ctx, cfg, w, false, 0)
			if err != nil {
				t.Fatal(err)
			}
			first, err := runOne(ctx, cfg, w, true, 0)
			if err != nil {
				t.Fatal(err)
			}
			second, err := runOne(ctx, cfg, w, true, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*result{untraced, first, second} {
				if !r.Correct {
					t.Errorf("traced=%v: %d of %d operations failed: %s", r.Traced, r.Failed, r.Attempted, r.FirstFailure)
				}
				if len(r.Metrics) != len(r.decls()) {
					t.Errorf("traced=%v: %d metrics emitted, want %d", r.Traced, len(r.Metrics), len(r.decls()))
				}
				for _, d := range r.decls() {
					m, ok := r.Metrics[d.name]
					if !ok || m.Unit != d.unit || !nameRE.MatchString(d.name) {
						t.Errorf("metric %q: emitted=%v unit %q want %q", d.name, ok, m.Unit, d.unit)
					}
				}
				line, err := r.contractLine()
				if err != nil {
					t.Fatal(err)
				}
				var obj map[string]json.RawMessage
				if err := json.Unmarshal(line, &obj); err != nil || len(obj) != 4 {
					t.Errorf("contract line %s: %v", line, err)
				}
			}
			for _, d := range endToEnd {
				if untraced.Metrics[d.name].Median <= 0 {
					t.Errorf("end-to-end metric %s is %g; it must never be 0", d.name, untraced.Metrics[d.name].Median)
				}
			}
			// Two traced runs of one seed do the same work, exactly.
			for _, name := range exactCounts {
				if a, b := first.Metrics[name].Median, second.Metrics[name].Median; a != b {
					t.Errorf("%s: %g then %g for the same seed", name, a, b)
				}
			}
			if first.ReportSHA256 != untraced.ReportSHA256 {
				t.Errorf("report sha256 differs between modes: %s vs %s", first.ReportSHA256, untraced.ReportSHA256)
			}
			if _, err := os.Stat(filepath.Join(cfg.outDir, w.name, "trace.json")); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestGateCanFail shows the correctness gate is live: a corrupted reference
// or a fleet with no live worker fails every operation of the run, while
// losing one of two workers must not — the coordinator reassigns and the
// report bytes stay identical.
func TestGateCanFail(t *testing.T) {
	ctx, cfg := smokeConfig(t)
	w, err := findWorkload("dist-cluster")
	if err != nil {
		t.Fatal(err)
	}
	e, err := prepareSim(ctx, cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	ref, _, err := e.reference(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s := e.measure(ctx, ref); s.failed != 0 {
		t.Fatalf("healthy fleet: %d of %d failed: %v", s.failed, s.ops, s.err)
	}
	corrupt := append([]byte(nil), ref...)
	corrupt[len(corrupt)/2] ^= 1
	if s := e.measure(ctx, corrupt); s.failed != s.ops {
		t.Errorf("corrupted reference: %d of %d failed, want all", s.failed, s.ops)
	}
	e.workers[0].stop()
	if s := e.measure(ctx, ref); s.failed != 0 {
		t.Errorf("one of two workers lost: %d of %d failed: %v", s.failed, s.ops, s.err)
	}
	e.workers[1].stop()
	if s := e.measure(ctx, ref); s.failed != s.ops {
		t.Errorf("no live worker: %d of %d failed, want all", s.failed, s.ops)
	}
}

func TestVerdict(t *testing.T) {
	sp := func(med, lo, hi float64) spread { return spread{Median: med, Min: lo, Max: hi, N: 5, Unit: "s"} }
	for _, c := range []struct {
		name        string
		a, b        spread
		lowerBetter bool
		word        string
		regressed   bool
	}{
		{"within bound", sp(1, 0.98, 1.02), sp(1.05, 1.03, 1.07), true, "ok", false},
		{"clear regression", sp(1, 0.98, 1.02), sp(1.3, 1.28, 1.32), true, "REGRESSED", true},
		{"clear gain", sp(1, 0.98, 1.02), sp(0.7, 0.68, 0.72), true, "better", false},
		{"hidden by spread", sp(1, 0.7, 1.6), sp(1.3, 0.9, 1.7), true, "unresolved", false},
		{"higher is better", sp(100, 98, 102), sp(70, 68, 72), false, "REGRESSED", true},
	} {
		got := verdict(c.a, c.b, c.lowerBetter, 0.10)
		if got.word != c.word || got.regressed != c.regressed {
			t.Errorf("%s: got %s regressed=%v, want %s regressed=%v", c.name, got.word, got.regressed, c.word, c.regressed)
		}
	}
}
