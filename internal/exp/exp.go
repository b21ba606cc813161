// Package exp reproduces every table and figure of the paper's evaluation
// (§5). Each experiment is a function returning a Table whose rows carry the
// same series the paper plots; each experiment's ID names its paper artifact
// (README.md shows how to regenerate them) and exp_test.go pins the
// paper-vs-reproduced values that matter.
//
// All experiments run against the simulated machine catalog and are fully
// deterministic for a given configuration (seeded noise provides the error
// bars). Config.Quick shrinks problem sizes and repetition counts so the
// whole suite runs in seconds inside `go test -bench`; cmd/synapse-exp runs
// the full-size versions.
package exp

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"synapse/internal/clock"
)

// Config scales the experiments.
type Config struct {
	// Quick selects reduced problem sizes and repetitions.
	Quick bool
	// Reps is the number of repetitions used for error bars.
	Reps int
	// Seed bases the deterministic noise.
	Seed uint64
	// Workers bounds the parallel runner fanning figure cells
	// (machine × size × kernel) across goroutines: 0 uses GOMAXPROCS,
	// 1 forces the serial schedule. Results are deterministic — byte
	// identical tables — at any worker count.
	Workers int

	// budget, when set by All, is the suite-wide concurrency budget:
	// every executing cell holds one token, so nested fan-outs (figures
	// inside the suite) cannot multiply concurrency beyond Workers.
	budget chan struct{}
}

// DefaultConfig returns the full-scale configuration used by the experiment
// runner.
func DefaultConfig() Config { return Config{Reps: 3, Seed: 42} }

// QuickConfig returns the reduced configuration used by tests and benches.
func QuickConfig() Config { return Config{Quick: true, Reps: 2, Seed: 42} }

func (c Config) reps() int {
	if c.Reps <= 0 {
		return 1
	}
	return c.Reps
}

// workers resolves the parallel runner's worker count.
func (c Config) workers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// Table is one reproduced artifact: an ID tying it to the paper, column
// headers, formatted rows and free-form notes (observations the prose of
// the paper makes about the figure).
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Add appends a formatted row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends an observation.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned ASCII.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (quotes are avoided by
// replacing commas in cells).
func (t *Table) CSV() string {
	var b strings.Builder
	clean := func(s string) string { return strings.ReplaceAll(s, ",", ";") }
	cols := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = clean(c)
	}
	b.WriteString(strings.Join(cols, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = clean(c)
		}
		b.WriteString(strings.Join(cells, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// simClock returns a fresh deterministic clock for one run.
func simClock() clock.AutoSim {
	return clock.NewAutoSim(time.Date(2016, 5, 23, 0, 0, 0, 0, time.UTC))
}

// fmtSec formats seconds compactly.
func fmtSec(s float64) string {
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0f", s)
	case s >= 10:
		return fmt.Sprintf("%.1f", s)
	default:
		return fmt.Sprintf("%.3f", s)
	}
}

// fmtPct formats a percentage.
func fmtPct(p float64) string { return fmt.Sprintf("%+.1f%%", p) }

// fmtSci formats large counts in scientific notation.
func fmtSci(v float64) string { return fmt.Sprintf("%.3e", v) }

// steps formats an iteration count the way the paper labels its x axes.
func stepsLabel(n int) string {
	switch {
	case n >= 1_000_000 && n%1_000_000 == 0:
		return fmt.Sprintf("%dM", n/1_000_000)
	case n >= 1000 && n%1000 == 0:
		return fmt.Sprintf("%dk", n/1000)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// All runs every experiment at the given configuration, in paper order.
func All(cfg Config) ([]*Table, error) {
	type mk struct {
		name string
		fn   func(Config) (*Table, error)
	}
	makers := []mk{
		{"table1", func(c Config) (*Table, error) { return Table1(), nil }},
		{"fig2", Fig2},
		{"fig3", Fig3},
		{"fig4", Fig4},
		{"fig5", Fig5},
		{"fig6top", Fig6Top},
		{"fig6bottom", Fig6Bottom},
		{"fig7", Fig7},
		{"fig8", func(c Config) (*Table, error) { return Fig8to11(c, MetricCycles) }},
		{"fig9", func(c Config) (*Table, error) { return Fig8to11(c, MetricTx) }},
		{"fig10", func(c Config) (*Table, error) { return Fig8to11(c, MetricInstructions) }},
		{"fig11", func(c Config) (*Table, error) { return Fig8to11(c, MetricIPC) }},
		{"fig12", Fig12},
		{"fig13", Fig13},
		{"fig14", Fig14},
		{"fig15", Fig15},
	}
	// All the artifacts regenerate concurrently. The makers themselves are
	// cheap orchestrators — they fan their own cells through runCells — so
	// they run as plain goroutines holding no budget tokens, while the
	// shared budget bounds actual cell execution across the whole suite to
	// cfg.Workers.
	if cfg.budget == nil {
		cfg.budget = make(chan struct{}, cfg.workers())
	}
	out := make([]*Table, len(makers))
	errs := make([]error, len(makers))
	var wg sync.WaitGroup
	for i := range makers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t, err := makers[i].fn(cfg)
			if err != nil {
				err = fmt.Errorf("exp %s: %w", makers[i].name, err)
			}
			out[i], errs[i] = t, err
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
