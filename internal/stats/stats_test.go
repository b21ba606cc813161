package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanBasic(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSumMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if got := Sum(xs); got != 11 {
		t.Errorf("Sum = %v, want 11", got)
	}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %v, want -1", got)
	}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %v, want 7", got)
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("Min/Max of empty slice should be 0")
	}
}

func TestVarianceKnown(t *testing.T) {
	// Sample variance of {2,4,4,4,5,5,7,9} with n-1 denominator = 32/7.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	want := 32.0 / 7.0
	if got := Variance(xs); !almostEq(got, want, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, want)
	}
}

func TestVarianceDegenerate(t *testing.T) {
	if Variance(nil) != 0 || Variance([]float64{3}) != 0 {
		t.Error("Variance of <2 samples should be 0")
	}
}

func TestStdErrShrinksWithN(t *testing.T) {
	a := []float64{1, 3}
	b := []float64{1, 3, 1, 3, 1, 3, 1, 3}
	if StdErr(b) >= StdErr(a) {
		t.Errorf("StdErr should shrink with more data: %v vs %v", StdErr(b), StdErr(a))
	}
}

func TestTCrit99Table(t *testing.T) {
	if got := TCrit99(1); !almostEq(got, 63.657, 1e-9) {
		t.Errorf("TCrit99(1) = %v", got)
	}
	if got := TCrit99(10); !almostEq(got, 3.169, 1e-9) {
		t.Errorf("TCrit99(10) = %v", got)
	}
	if got := TCrit99(1000); !almostEq(got, 2.576, 1e-9) {
		t.Errorf("TCrit99(1000) = %v", got)
	}
	if !math.IsInf(TCrit99(0), 1) {
		t.Error("TCrit99(0) should be +Inf")
	}
}

func TestCI99ContainsMeanOfTightData(t *testing.T) {
	xs := []float64{10, 10.1, 9.9, 10.05, 9.95}
	ci := CI99(xs)
	if ci <= 0 {
		t.Fatalf("CI99 = %v, want > 0", ci)
	}
	if ci > 1 {
		t.Fatalf("CI99 = %v implausibly wide for tight data", ci)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{1, 2, 3}
	s := Summarize(xs)
	if s.N != 3 || !almostEq(s.Mean, 2, 1e-12) || !almostEq(s.Min, 1, 0) || !almostEq(s.Max, 3, 0) {
		t.Errorf("Summarize = %+v", s)
	}
	if !almostEq(s.StdDev, 1, 1e-12) {
		t.Errorf("StdDev = %v, want 1", s.StdDev)
	}
}

func TestRelErrAndPctDiff(t *testing.T) {
	if got := RelErr(110, 100); !almostEq(got, 0.1, 1e-12) {
		t.Errorf("RelErr = %v", got)
	}
	if got := RelErr(0, 0); got != 0 {
		t.Errorf("RelErr(0,0) = %v", got)
	}
	if !math.IsInf(RelErr(1, 0), 1) {
		t.Error("RelErr(1,0) should be +Inf")
	}
	if got := PctDiff(60, 100); !almostEq(got, -40, 1e-12) {
		t.Errorf("PctDiff = %v, want -40", got)
	}
	if !math.IsInf(PctDiff(1, 0), 1) {
		t.Error("PctDiff(x,0) should be +Inf")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2},
	} {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatalf("Percentile err: %v", err)
		}
		if !almostEq(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("Percentile of empty slice should error")
	}
	if got, _ := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("Percentile singleton = %v", got)
	}
	// Out-of-range p clamps.
	if got, _ := Percentile(xs, -5); got != 1 {
		t.Errorf("Percentile(-5) = %v, want 1", got)
	}
	if got, _ := Percentile(xs, 200); got != 5 {
		t.Errorf("Percentile(200) = %v, want 5", got)
	}
}

func TestLinearFitExactLine(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{3, 5, 7, 9} // y = 1 + 2x
	a, b, r2, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(a, 1, 1e-9) || !almostEq(b, 2, 1e-9) || !almostEq(r2, 1, 1e-9) {
		t.Errorf("fit = (%v, %v, %v)", a, b, r2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, _, _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Error("single point should error")
	}
	if _, _, _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, _, _, err := LinearFit([]float64{2, 2}, []float64{1, 5}); err == nil {
		t.Error("degenerate x should error")
	}
}

func TestLinearFitConstantY(t *testing.T) {
	a, b, r2, err := LinearFit([]float64{1, 2, 3}, []float64{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(a, 4, 1e-9) || !almostEq(b, 0, 1e-9) || r2 != 1 {
		t.Errorf("constant-y fit = (%v,%v,%v)", a, b, r2)
	}
}

// Property: mean is bounded by min and max.
func TestMeanBoundedProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-9 && m <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: variance is translation invariant and scales quadratically.
func TestVarianceScaleProperty(t *testing.T) {
	f := func(raw []int8, shift int8, scaleRaw uint8) bool {
		if len(raw) < 2 {
			return true
		}
		scale := 1 + float64(scaleRaw%7)
		xs := make([]float64, len(raw))
		ys := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
			ys[i] = float64(v)*scale + float64(shift)
		}
		v1 := Variance(xs) * scale * scale
		v2 := Variance(ys)
		return almostEq(v1, v2, 1e-6*(1+math.Abs(v1)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: CI99 half-width is non-negative and zero only for n < 2 or
// identical samples.
func TestCI99NonNegativeProperty(t *testing.T) {
	f := func(raw []int8) bool {
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		return CI99(xs) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed should give same stream")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should give different streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(9)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("Intn(5) did not cover all values: %v", seen)
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(123)
	const n = 20000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Normal(10, 2)
	}
	if m := Mean(xs); !almostEq(m, 10, 0.1) {
		t.Errorf("Normal mean = %v, want ~10", m)
	}
	if s := StdDev(xs); !almostEq(s, 2, 0.1) {
		t.Errorf("Normal stddev = %v, want ~2", s)
	}
}

func TestJitter(t *testing.T) {
	r := NewRNG(5)
	if got := r.Jitter(100, 0); got != 100 {
		t.Errorf("Jitter with relStd 0 should be identity, got %v", got)
	}
	for i := 0; i < 1000; i++ {
		if v := r.Jitter(100, 0.05); v <= 0 {
			t.Fatalf("Jitter produced non-positive value %v", v)
		}
	}
}

// TestLatencyRingP95IndexRule pins the ring's contract: cold until 16
// samples, then the nearest-rank p95 — sorted[95*(n-1)/100] — over at most
// the 64 most recent observations, in any arrival order.
func TestLatencyRingP95IndexRule(t *testing.T) {
	for _, tc := range []struct {
		n        int // observations 1ms..n ms, fed in descending order
		wantWarm bool
		want     time.Duration
	}{
		{0, false, 0},
		{15, false, 0},
		{16, true, 15 * time.Millisecond},  // index 95*15/100 = 14
		{20, true, 19 * time.Millisecond},  // index 18
		{21, true, 20 * time.Millisecond},  // index 19
		{64, true, 60 * time.Millisecond},  // index 59
		{100, true, 60 * time.Millisecond}, // the window kept the last 64: 64ms..1ms
	} {
		var r LatencyRing
		for i := tc.n; i >= 1; i-- {
			r.Observe(time.Duration(i) * time.Millisecond)
		}
		got, warm := r.P95()
		if warm != tc.wantWarm || got != tc.want {
			t.Errorf("n=%d: P95 = (%v, %v), want (%v, %v)", tc.n, got, warm, tc.want, tc.wantWarm)
		}
	}
}

// TestLatencyRingEvictsOldest: past the window the oldest samples fall out,
// so the threshold tracks a regime change instead of averaging over history.
func TestLatencyRingEvictsOldest(t *testing.T) {
	var r LatencyRing
	for i := 0; i < 64; i++ {
		r.Observe(time.Second)
	}
	for i := 0; i < 64; i++ {
		r.Observe(time.Millisecond)
	}
	if got, _ := r.P95(); got != time.Millisecond {
		t.Errorf("P95 after a full window of fast samples = %v, want 1ms", got)
	}
}

func TestLatencyRingAllocFree(t *testing.T) {
	var r LatencyRing
	for i := 0; i < 64; i++ {
		r.Observe(time.Duration(64-i) * time.Microsecond)
	}
	var sink time.Duration
	if allocs := testing.AllocsPerRun(100, func() {
		r.Observe(time.Millisecond)
		sink, _ = r.P95()
	}); allocs != 0 {
		t.Fatalf("Observe+P95 allocated %.1f objects per run, want 0", allocs)
	}
	_ = sink
}
