package power

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func mustSimple(t *testing.T) *SimpleInverse {
	t.Helper()
	m, err := NewSimpleInverse(1, 0.7, 4)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustAlpha(t *testing.T) *Alpha {
	t.Helper()
	m, err := NewAlpha(1, 0.5, 1.5, 0.8, 3.3)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSimpleInverseBasics(t *testing.T) {
	m := mustSimple(t)
	if tc := m.CycleTime(2); tc != 0.5 {
		t.Errorf("CycleTime(2) = %g, want 0.5", tc)
	}
	if v := m.VoltageForCycleTime(0.5); v != 2 {
		t.Errorf("VoltageForCycleTime(0.5) = %g, want 2", v)
	}
	if v := m.VoltageForCycleTime(100); v != 0.7 {
		t.Errorf("huge cycle time should clamp to Vmin, got %g", v)
	}
	if v := m.VoltageForCycleTime(1e-9); v != 4 {
		t.Errorf("tiny cycle time should clamp to Vmax, got %g", v)
	}
}

func TestSimpleInverseValidation(t *testing.T) {
	cases := []struct{ k, vmin, vmax float64 }{
		{0, 1, 2}, {-1, 1, 2}, {1, 0, 2}, {1, -1, 2}, {1, 3, 2},
	}
	for _, c := range cases {
		if _, err := NewSimpleInverse(c.k, c.vmin, c.vmax); err == nil {
			t.Errorf("NewSimpleInverse(%v) accepted", c)
		}
	}
}

func TestAlphaValidation(t *testing.T) {
	if _, err := NewAlpha(1, 0.5, 0.5, 0.8, 3.3); err == nil {
		t.Error("alpha < 1 accepted")
	}
	if _, err := NewAlpha(1, 0.5, 2.5, 0.8, 3.3); err == nil {
		t.Error("alpha > 2 accepted")
	}
	if _, err := NewAlpha(1, 0.9, 1.5, 0.8, 3.3); err == nil {
		t.Error("Vmin <= Vt accepted")
	}
	if _, err := NewAlpha(-1, 0.5, 1.5, 0.8, 3.3); err == nil {
		t.Error("negative K accepted")
	}
}

// TestCycleTimeMonotone: both models must be strictly decreasing in voltage
// over their range — the inverse is otherwise meaningless.
func TestCycleTimeMonotone(t *testing.T) {
	for _, m := range []Model{mustSimple(t), mustAlpha(t)} {
		prev := math.Inf(1)
		for v := m.VMin(); v <= m.VMax()+1e-9; v += (m.VMax() - m.VMin()) / 200 {
			tc := m.CycleTime(v)
			if tc >= prev {
				t.Fatalf("%T: CycleTime not strictly decreasing at v=%g", m, v)
			}
			prev = tc
		}
	}
}

// TestInverseRoundTrip: VoltageForCycleTime(CycleTime(v)) == v inside the
// range (property test over both models).
func TestInverseRoundTrip(t *testing.T) {
	rng := stats.NewRNG(2)
	for _, m := range []Model{mustSimple(t), mustAlpha(t)} {
		for i := 0; i < 500; i++ {
			v := rng.Uniform(m.VMin(), m.VMax())
			got := m.VoltageForCycleTime(m.CycleTime(v))
			if math.Abs(got-v) > 1e-6*v {
				t.Fatalf("%T: round trip %g -> %g", m, v, got)
			}
		}
	}
}

func TestVoltageForWindow(t *testing.T) {
	m := mustSimple(t)
	// 10 cycles in 5 ms needs V = 2 exactly.
	v, fits := VoltageForWindow(m, 10, 5)
	if !fits || math.Abs(v-2) > 1e-12 {
		t.Errorf("VoltageForWindow(10, 5) = %g fits=%v", v, fits)
	}
	// Zero work fits at Vmin.
	if v, fits := VoltageForWindow(m, 0, 5); !fits || v != m.VMin() {
		t.Errorf("zero work: v=%g fits=%v", v, fits)
	}
	// Impossible: 100 cycles in 1 ms needs V=100 > Vmax.
	if v, fits := VoltageForWindow(m, 100, 1); fits || v != m.VMax() {
		t.Errorf("overload should clamp to Vmax and not fit: v=%g fits=%v", v, fits)
	}
	// Non-positive window with work.
	if v, fits := VoltageForWindow(m, 1, 0); fits || v != m.VMax() {
		t.Errorf("zero window: v=%g fits=%v", v, fits)
	}
}

// TestVoltageForWindowFitsProperty: whenever fits is reported, the work must
// actually complete within the window at the returned voltage.
func TestVoltageForWindowFitsProperty(t *testing.T) {
	m := mustAlpha(t)
	rng := stats.NewRNG(77)
	if err := quick.Check(func(cRaw, wRaw uint16) bool {
		cycles := 0.01 + float64(cRaw%5000)/50
		window := 0.01 + float64(wRaw%5000)/50
		v, fits := VoltageForWindow(m, cycles, window)
		if v < m.VMin() || v > m.VMax() {
			return false
		}
		if fits {
			return cycles*m.CycleTime(v) <= window*(1+1e-6)
		}
		// Not fitting means even Vmax is too slow.
		return cycles*m.CycleTime(m.VMax()) > window*(1-1e-9)
	}, &quick.Config{MaxCount: 500, Rand: nil}); err != nil {
		t.Error(err)
	}
	_ = rng
}

// TestEnergyConvexity: for the inverse model, energy for fixed work over a
// window shrinks as the window grows — the monotonicity ACS exploits.
func TestEnergyConvexity(t *testing.T) {
	m := mustSimple(t)
	cycles := 20.0
	prev := math.Inf(1)
	for w := 5.0; w <= 30; w += 1 {
		v, _ := VoltageForWindow(m, cycles, w)
		e := Energy(1, v, cycles)
		if e > prev+1e-12 {
			t.Fatalf("energy increased when window grew to %g", w)
		}
		prev = e
	}
}

func TestEnergyQuadraticInVoltage(t *testing.T) {
	if e := Energy(2, 3, 10); e != 180 {
		t.Errorf("Energy(2,3,10) = %g, want 180", e)
	}
}

func TestDefaultModel(t *testing.T) {
	m := DefaultModel()
	if m.VMin() != 0.7 || m.VMax() != 4 {
		t.Errorf("DefaultModel range [%g, %g]", m.VMin(), m.VMax())
	}
}
