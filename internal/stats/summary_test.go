package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	s.AddAll([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %g, want 5", s.Mean())
	}
	// Sample variance of the classic dataset is 32/7.
	if math.Abs(s.Var()-32.0/7) > 1e-12 {
		t.Errorf("Var = %g, want %g", s.Var(), 32.0/7)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("range [%g, %g], want [2, 9]", s.Min(), s.Max())
	}
}

func TestSummaryEmptyAndSingle(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 || s.CI95() != 0 {
		t.Error("empty summary should be all zeros")
	}
	s.Add(3)
	if s.Mean() != 3 || s.Var() != 0 {
		t.Errorf("single-sample summary: mean=%g var=%g", s.Mean(), s.Var())
	}
}

// TestSummaryMatchesDirect is a property test: the streaming moments agree
// with the two-pass formulas on random data.
func TestSummaryMatchesDirect(t *testing.T) {
	r := NewRNG(8)
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 2
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Uniform(-100, 100)
		}
		var s Summary
		s.AddAll(xs)
		mean := Mean(xs)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		direct := ss / float64(n-1)
		return math.Abs(s.Mean()-mean) < 1e-9 && math.Abs(s.Var()-direct) < 1e-6*math.Max(1, direct)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStdHelper(t *testing.T) {
	if s := Std([]float64{1, 1, 1}); s != 0 {
		t.Errorf("Std of constants = %g", s)
	}
}
