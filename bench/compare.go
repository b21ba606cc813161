package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// benchmarkFile is the part of BENCHMARK.json compare needs: each
// end-to-end metric's direction and the bound it may worsen by.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain implements `bench compare a.json b.json`: b (the change) is
// set against a (the parent) metric by metric and workload by workload. It
// returns the exit code: non-zero on any end-to-end regression beyond its
// bound or any rise in failed operations.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	root := fs.String("root", ".", "repository root (holds BENCHMARK.json)")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-root dir] a.json b.json")
		return 2
	}
	var bm benchmarkFile
	var a, b resultFile
	for path, into := range map[string]any{filepath.Join(*root, "BENCHMARK.json"): &bm, fs.Arg(0): &a, fs.Arg(1): &b} {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, into)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench compare: %s: %v\n", path, err)
			return 2
		}
	}
	if a.NumCPU != b.NumCPU || a.Scale != b.Scale || a.Seed != b.Seed {
		fmt.Printf("# warning: sets differ in seed, scale or nproc (%d/%g/%d vs %d/%g/%d); times are not comparable\n",
			a.Seed, a.Scale, a.NumCPU, b.Seed, b.Scale, b.NumCPU)
	}
	breaches := 0
	for _, rb := range b.Results {
		i := slices.IndexFunc(a.Results, func(r *result) bool { return r.Workload == rb.Workload && r.Traced == rb.Traced })
		if i < 0 {
			continue
		}
		ra := a.Results[i]
		if rb.Failed*max(ra.Attempted, 1) > ra.Failed*max(rb.Attempted, 1) {
			fmt.Printf("%-34s %-15s failed %d/%d -> %d/%d  REGRESSED\n", "failed", rb.Workload, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			breaches++
		}
		if rb.ReportSHA256 != ra.ReportSHA256 {
			fmt.Printf("%-34s %-15s %.12s -> %.12s  differs\n", "report_sha256", rb.Workload, ra.ReportSHA256, rb.ReportSHA256)
		}
		if !rb.Traced {
			for _, m := range bm.EndToEnd {
				v := verdict(ra.Metrics[m.Name], rb.Metrics[m.Name], m.Better == "lower", m.Bound)
				fmt.Printf("%-34s %-15s %s\n", m.Name, rb.Workload, v)
				if v.regressed {
					breaches++
				}
			}
			continue
		}
		for _, d := range perLayer {
			ma, mb := ra.Metrics[d.name], rb.Metrics[d.name]
			if ma.Median == 0 && mb.Median == 0 {
				continue
			}
			note := ""
			if slices.Contains(exactCounts, d.name) && ma.Median != mb.Median {
				note = "  exact count differs"
			}
			fmt.Printf("%-34s %-15s %12.6g -> %12.6g %-6s x%.3f%s\n", d.name, rb.Workload, ma.Median, mb.Median, d.unit, ratio(mb.Median, ma.Median), note)
		}
	}
	if breaches > 0 {
		fmt.Printf("# %d end-to-end breaches\n", breaches)
		return 1
	}
	return 0
}

func ratio(b, a float64) float64 {
	if a == 0 {
		return 0
	}
	return b / a
}

// outcome is one (metric, workload) comparison.
type outcome struct {
	a, b      spread
	word      string
	regressed bool
}

func (o outcome) String() string {
	return fmt.Sprintf("%12.6g -> %12.6g %-4s x%.3f of base %.6g  %s", o.a.Median, o.b.Median, o.a.Unit, ratio(o.b.Median, o.a.Median), o.a.Median, o.word)
}

// verdict sets the change's runs against the parent's. Medians within the
// bound are ok. Beyond it the change is better or regressed only when the
// two min-max ranges do not overlap by more than the bound; otherwise run to
// run spread hides the answer and the pair is unresolved.
func verdict(a, b spread, lowerBetter bool, bound float64) outcome {
	o := outcome{a: a, b: b, word: "ok"}
	if a.Median == 0 || a.N == 0 || b.N == 0 {
		o.word = "missing"
		return o
	}
	worse := b.Median/a.Median - 1
	if !lowerBetter {
		worse = a.Median/b.Median - 1
	}
	if worse <= bound && worse >= -bound {
		return o
	}
	overlap := (min(a.Max, b.Max) - max(a.Min, b.Min)) / a.Median
	switch {
	case overlap > bound:
		o.word = "unresolved"
	case worse > 0:
		o.word, o.regressed = "REGRESSED", true
	default:
		o.word = "better"
	}
	return o
}
