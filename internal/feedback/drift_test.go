package feedback

import (
	"testing"

	"repro/internal/stats"
)

// TestPageHinkleyStationaryNoFire: standardized unit noise around a constant
// mean never fires — the false-positive half of the pinned regression. The
// stream is seeded, so this is a fixed sequence, not a probabilistic claim.
func TestPageHinkleyStationaryNoFire(t *testing.T) {
	d, err := NewPageHinkley(DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(11)
	for i := 0; i < 5000; i++ {
		if d.Add(rng.Normal(0, 1)) {
			t.Fatalf("false positive at sample %d", i)
		}
	}
}

// TestPageHinkleyDetectsShifts: a mean shift in either direction fires, and
// the detection index is pinned for the seeded stream — any change to the
// detector's arithmetic shows up as a moved re-solve point. The stream is
// standardized (unit noise); the shift is a 4σ regime change, the size a
// ModeSwitch between mean fractions induces on the controller's statistic.
func TestPageHinkleyDetectsShifts(t *testing.T) {
	cases := []struct {
		name   string
		shift  float64
		fireAt int // pinned detection sample for seed 7, shift at 300
	}{
		{"down", -4, 304},
		{"up", +4, 302},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewPageHinkley(DriftConfig{})
			if err != nil {
				t.Fatal(err)
			}
			rng := stats.NewRNG(7)
			fired := -1
			for i := 0; i < 400; i++ {
				x := rng.Normal(0, 1)
				if i >= 300 {
					x += tc.shift
				}
				if d.Add(x) {
					fired = i
					break
				}
			}
			if fired < 0 {
				t.Fatal("shift never detected")
			}
			if fired < 300 {
				t.Fatalf("fired at %d, before the shift", fired)
			}
			if fired != tc.fireAt {
				t.Errorf("fired at sample %d, pinned %d — detector arithmetic changed", fired, tc.fireAt)
			}
		})
	}
}

// TestPageHinkleyMinSamples: no firing before MinSamples even under a
// blatant shift, and Reset restarts the warm-up.
func TestPageHinkleyMinSamples(t *testing.T) {
	d, err := NewPageHinkley(DriftConfig{MinSamples: 10, Lambda: 0.01, Delta: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		x := 1.0
		if i >= 4 {
			x = 5.0
		}
		if d.Add(x) {
			t.Fatalf("fired at sample %d < MinSamples", i)
		}
	}
	if !d.Add(5.0) {
		t.Error("did not fire once MinSamples reached")
	}
	d.Reset()
	if d.n != 0 {
		t.Error("reset kept samples")
	}
	if d.up != 0 || d.down != 0 {
		t.Error("reset kept evidence")
	}
	if d.Add(100) {
		t.Error("fired immediately after reset")
	}
}

func TestDriftConfigValidation(t *testing.T) {
	if _, err := NewPageHinkley(DriftConfig{Lambda: -2}); err == nil {
		t.Error("negative Lambda accepted")
	}
	// A negative Delta requests an exact zero dead-band (pure CUSUM): with
	// no dead-band, constant unit deviations accumulate at full rate.
	d, err := NewPageHinkley(DriftConfig{Delta: -1, Lambda: 3, MinSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	fired := -1
	for i := 0; i < 20; i++ {
		if d.Add(float64(i)) {
			fired = i
			break
		}
	}
	if fired < 0 || fired > 5 {
		t.Errorf("zero dead-band detector fired at %d, want within the first few samples", fired)
	}
}
