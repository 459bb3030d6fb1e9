package power

import (
	"testing"

	"repro/internal/stats"
)

func mustDiscrete(t *testing.T, levels []float64) *Discrete {
	t.Helper()
	d, err := NewDiscrete(mustSimple(t), levels)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDiscreteValidation(t *testing.T) {
	base := mustSimple(t)
	if _, err := NewDiscrete(base, nil); err == nil {
		t.Error("empty level set accepted")
	}
	if _, err := NewDiscrete(base, []float64{0.5}); err == nil {
		t.Error("level below base Vmin accepted")
	}
	if _, err := NewDiscrete(base, []float64{5}); err == nil {
		t.Error("level above base Vmax accepted")
	}
}

func TestDiscreteLevelsSortedDeduped(t *testing.T) {
	d := mustDiscrete(t, []float64{3, 1, 2, 2, 1})
	ls := d.Levels()
	want := []float64{1, 2, 3}
	if len(ls) != len(want) {
		t.Fatalf("levels %v", ls)
	}
	for i := range want {
		if ls[i] != want[i] {
			t.Fatalf("levels %v, want %v", ls, want)
		}
	}
	if d.VMin() != 1 || d.VMax() != 3 {
		t.Errorf("range [%g, %g]", d.VMin(), d.VMax())
	}
}

// TestDiscreteRoundsUp: quantisation must never slow execution below the
// requested rate — deadlines depend on it.
func TestDiscreteRoundsUp(t *testing.T) {
	d := mustDiscrete(t, []float64{1, 2, 3})
	rng := stats.NewRNG(5)
	for i := 0; i < 1000; i++ {
		tc := rng.Uniform(0.2, 2)
		v := d.VoltageForCycleTime(tc)
		if d.CycleTime(v) > tc*(1+1e-12) && v != d.VMax() {
			t.Fatalf("discrete voltage %g too slow for tc=%g", v, tc)
		}
		found := false
		for _, l := range d.Levels() {
			if l == v {
				found = true
			}
		}
		if !found {
			t.Fatalf("returned non-level voltage %g", v)
		}
	}
}

func TestDiscreteExactLevelHit(t *testing.T) {
	d := mustDiscrete(t, []float64{1, 2, 3})
	// tc = 0.5 needs exactly V = 2 on the inverse model.
	if v := d.VoltageForCycleTime(0.5); v != 2 {
		t.Errorf("exact hit returned %g, want 2", v)
	}
}

func TestUniformLevels(t *testing.T) {
	base := mustSimple(t)
	ls, err := UniformLevels(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != 4 || ls[0] != base.VMin() || ls[3] != base.VMax() {
		t.Errorf("levels %v", ls)
	}
	if _, err := UniformLevels(base, 0); err == nil {
		t.Error("zero levels accepted")
	}
	one, err := UniformLevels(base, 1)
	if err != nil || len(one) != 1 || one[0] != base.VMax() {
		t.Errorf("single level %v err=%v", one, err)
	}
}
