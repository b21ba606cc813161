package perfcount

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestAddAccumulates(t *testing.T) {
	a := Counters{Cycles: 100, Instructions: 200, ReadBytes: 10, RSS: 5, PeakRSS: 5}
	b := Counters{Cycles: 50, Instructions: 75, ReadBytes: 1, RSS: 3, PeakRSS: 3}
	got := a.Add(b)
	if got.Cycles != 150 || got.Instructions != 275 || got.ReadBytes != 11 {
		t.Errorf("Add cumulative fields wrong: %+v", got)
	}
	if got.RSS != 3 {
		t.Errorf("RSS should take the newer gauge value, got %v", got.RSS)
	}
	if got.PeakRSS != 5 {
		t.Errorf("PeakRSS should keep the high-water mark, got %v", got.PeakRSS)
	}
}

func TestAddPeakTracksRSS(t *testing.T) {
	a := Counters{}
	got := a.Add(Counters{RSS: 9})
	if got.PeakRSS != 9 {
		t.Errorf("PeakRSS should follow RSS upward, got %v", got.PeakRSS)
	}
}

func TestSubDeltas(t *testing.T) {
	prev := Counters{Cycles: 100, WriteBytes: 5, RSS: 4, Threads: 2}
	cur := Counters{Cycles: 180, WriteBytes: 9, RSS: 6, Threads: 3}
	d := cur.Sub(prev)
	if d.Cycles != 80 || d.WriteBytes != 4 {
		t.Errorf("Sub deltas wrong: %+v", d)
	}
	if d.RSS != 6 {
		t.Errorf("Sub should keep current gauge, got %v", d.RSS)
	}
	if d.Threads != 3 {
		t.Errorf("Sub should keep current thread count, got %v", d.Threads)
	}
}

func TestScale(t *testing.T) {
	c := Counters{Cycles: 10, FLOPs: 4, AllocBytes: 8}
	s := c.Scale(0.5)
	if s.Cycles != 5 || s.FLOPs != 2 || s.AllocBytes != 4 {
		t.Errorf("Scale wrong: %+v", s)
	}
}

func TestIsZero(t *testing.T) {
	if !(Counters{}).IsZero() {
		t.Error("zero value should be zero")
	}
	if (Counters{Cycles: 1}).IsZero() {
		t.Error("non-zero counters reported zero")
	}
}

func TestEfficiencyFormula(t *testing.T) {
	c := Counters{Cycles: 80, StalledFront: 10, StalledBack: 10}
	if got := c.Efficiency(); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("Efficiency = %v, want 0.8", got)
	}
	if !math.IsNaN((Counters{}).Efficiency()) {
		t.Error("Efficiency of empty counters should be NaN")
	}
	// No stalls: perfect efficiency.
	if got := (Counters{Cycles: 5}).Efficiency(); got != 1 {
		t.Errorf("Efficiency without stalls = %v, want 1", got)
	}
}

func TestUtilization(t *testing.T) {
	c := Counters{Cycles: 50}
	if got := c.Utilization(200); got != 0.25 {
		t.Errorf("Utilization = %v, want 0.25", got)
	}
	if !math.IsNaN(c.Utilization(0)) {
		t.Error("Utilization with zero max should be NaN")
	}
}

func TestIPC(t *testing.T) {
	c := Counters{Instructions: 217, Cycles: 100}
	if got := c.IPC(); math.Abs(got-2.17) > 1e-12 {
		t.Errorf("IPC = %v, want 2.17", got)
	}
	if !math.IsNaN((Counters{Instructions: 5}).IPC()) {
		t.Error("IPC with zero cycles should be NaN")
	}
}

func TestFLOPS(t *testing.T) {
	c := Counters{FLOPs: 1e9}
	if got := c.FLOPS(2); got != 5e8 {
		t.Errorf("FLOPS = %v, want 5e8", got)
	}
	if !math.IsNaN(c.FLOPS(0)) {
		t.Error("FLOPS over zero time should be NaN")
	}
}

// Property: Add then Sub round-trips cumulative fields.
func TestAddSubRoundTripProperty(t *testing.T) {
	f := func(ac, ai, bc, bi uint32) bool {
		a := Counters{Cycles: float64(ac), Instructions: float64(ai)}
		b := Counters{Cycles: float64(bc), Instructions: float64(bi)}
		sum := a.Add(b)
		d := sum.Sub(a)
		return d.Cycles == b.Cycles && d.Instructions == b.Instructions
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: efficiency is always within [0, 1] for non-negative counters.
func TestEfficiencyBoundedProperty(t *testing.T) {
	f := func(used, sf, sb uint32) bool {
		c := Counters{Cycles: float64(used), StalledFront: float64(sf), StalledBack: float64(sb)}
		e := c.Efficiency()
		if math.IsNaN(e) {
			return used == 0 && sf == 0 && sb == 0
		}
		return e >= 0 && e <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Add is associative on cumulative fields.
func TestAddAssociativeProperty(t *testing.T) {
	f := func(xs [3]uint16) bool {
		a := Counters{Cycles: float64(xs[0])}
		b := Counters{Cycles: float64(xs[1])}
		c := Counters{Cycles: float64(xs[2])}
		left := a.Add(b).Add(c)
		right := a.Add(b.Add(c))
		return left.Cycles == right.Cycles
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFieldsFollowDeclarationOrder pins Fields/SetFields to the struct: a
// field added to, removed from or reordered within Counters without the
// matching edit to both helpers fails here, instead of silently dropping or
// permuting a counter in every fixed-layout encoding built on them.
func TestFieldsFollowDeclarationOrder(t *testing.T) {
	typ := reflect.TypeOf(Counters{})
	if typ.NumField() != NumFields {
		t.Fatalf("Counters has %d fields, NumFields = %d: update NumFields, Fields and SetFields together",
			typ.NumField(), NumFields)
	}
	var c Counters
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < NumFields; i++ {
		v.Field(i).SetFloat(float64(i + 1))
	}
	f := c.Fields()
	for i, got := range f {
		if got != float64(i+1) {
			t.Errorf("Fields()[%d] = %v, want field %s (%v)", i, got, typ.Field(i).Name, i+1)
		}
	}
	var back Counters
	back.SetFields(&f)
	if back != c {
		t.Errorf("SetFields(Fields()) = %+v, want %+v", back, c)
	}
}
