package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(12345), NewRNG(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedSensitivity(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical outputs in 100 draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		x := r.Float64()
		if x < 0 || x >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", x)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(99)
	var s Summary
	for i := 0; i < 100000; i++ {
		s.Add(r.Float64())
	}
	if math.Abs(s.Mean()-0.5) > 0.01 {
		t.Errorf("uniform mean = %g, want ≈0.5", s.Mean())
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) hit only %d distinct values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(4)
	for i := 0; i < 1000; i++ {
		x := r.Uniform(-3, 5)
		if x < -3 || x >= 5 {
			t.Fatalf("Uniform(-3,5) = %g", x)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(11)
	var s Summary
	for i := 0; i < 200000; i++ {
		s.Add(r.Normal(10, 2))
	}
	if math.Abs(s.Mean()-10) > 0.05 {
		t.Errorf("Normal mean = %g, want ≈10", s.Mean())
	}
	if math.Abs(s.Std()-2) > 0.05 {
		t.Errorf("Normal std = %g, want ≈2", s.Std())
	}
}

func TestNormalZeroSigma(t *testing.T) {
	r := NewRNG(1)
	if v := r.Normal(5, 0); v != 5 {
		t.Errorf("Normal(5, 0) = %g", v)
	}
}

func TestTruncNormalSupport(t *testing.T) {
	r := NewRNG(13)
	for i := 0; i < 20000; i++ {
		x := r.TruncNormal(0.55, 0.15, 0.1, 1.0)
		if x < 0.1 || x > 1.0 {
			t.Fatalf("TruncNormal escaped support: %g", x)
		}
	}
}

// TestTruncNormalPaperParameters checks the §4 workload distribution: mean
// ACEC = (BCEC+WCEC)/2, σ = (WCEC−BCEC)/6, support [BCEC, WCEC]. With ±3σ
// support the truncation barely moves the mean.
func TestTruncNormalPaperParameters(t *testing.T) {
	r := NewRNG(17)
	bcec, wcec := 10.0, 100.0
	acec := (bcec + wcec) / 2
	sigma := (wcec - bcec) / 6
	var s Summary
	for i := 0; i < 100000; i++ {
		s.Add(r.TruncNormal(acec, sigma, bcec, wcec))
	}
	if math.Abs(s.Mean()-acec) > 0.5 {
		t.Errorf("truncated mean = %g, want ≈%g", s.Mean(), acec)
	}
	if s.Min() < bcec || s.Max() > wcec {
		t.Errorf("support violated: [%g, %g]", s.Min(), s.Max())
	}
}

func TestTruncNormalDegenerate(t *testing.T) {
	r := NewRNG(1)
	if v := r.TruncNormal(5, 0, 0, 10); v != 5 {
		t.Errorf("zero-sigma draw = %g, want 5", v)
	}
	if v := r.TruncNormal(50, 3, 7, 7); v != 7 {
		t.Errorf("point-support draw = %g, want 7", v)
	}
	// Mean far outside the support must clamp, not hang.
	if v := r.TruncNormal(1e9, 1e-12, 0, 1); v < 0 || v > 1 {
		t.Errorf("far-tail draw escaped support: %g", v)
	}
}

func TestBimodalSupport(t *testing.T) {
	r := NewRNG(23)
	lo, hi := 0.0, 100.0
	nearHi := 0
	for i := 0; i < 10000; i++ {
		x := r.Bimodal(10, 90, 5, 0.1, lo, hi)
		if x < lo || x > hi {
			t.Fatalf("Bimodal escaped support: %g", x)
		}
		if x > 50 {
			nearHi++
		}
	}
	frac := float64(nearHi) / 10000
	if frac < 0.05 || frac > 0.2 {
		t.Errorf("high-mode fraction = %g, want ≈0.1", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(31)
	if err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == n
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(5)
	child := parent.Split()
	// The child stream must differ from the parent's continued stream.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("parent and child streams collided %d times", same)
	}
}

func TestChoiceDistribution(t *testing.T) {
	r := NewRNG(41)
	xs := []int64{1, 2, 3}
	counts := map[int64]int{}
	for i := 0; i < 9000; i++ {
		counts[r.ChoiceInt(xs)]++
	}
	for _, x := range xs {
		if counts[x] < 2500 || counts[x] > 3500 {
			t.Errorf("ChoiceInt(%d) count %d far from uniform 3000", x, counts[x])
		}
	}
}

// TestNormInvAgainstErf cross-checks the inverse-CDF sampler against the
// standard library's error function: Φ(normInv(p)) must round-trip to p.
func TestNormInvAgainstErf(t *testing.T) {
	phi := func(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }
	for _, p := range []float64{1e-12, 1e-6, 0.001, 0.02425, 0.1, 0.3, 0.5, 0.7, 0.9, 0.97575, 0.999, 1 - 1e-9} {
		z := normInv(p)
		if got := phi(z); math.Abs(got-p) > 1e-8*math.Max(p, 1-p)+1e-15 {
			t.Errorf("Φ(normInv(%g)) = %g", p, got)
		}
	}
	if !(normInv(0.5) == 0) {
		t.Errorf("normInv(0.5) = %g, want 0", normInv(0.5))
	}
	if normInv(0.001) >= 0 || normInv(0.999) <= 0 {
		t.Error("tail signs wrong")
	}
}
