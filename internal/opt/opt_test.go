package opt

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestGoldenMinQuadratic(t *testing.T) {
	f := func(x float64) float64 { return (x - 3) * (x - 3) }
	x, fx := GoldenMin(f, -10, 10, 1e-9, 200)
	if math.Abs(x-3) > 1e-6 || fx > 1e-10 {
		t.Errorf("GoldenMin quadratic: x=%g fx=%g", x, fx)
	}
}

func TestGoldenMinEndpointOptimum(t *testing.T) {
	// Monotone decreasing: optimum at the right endpoint.
	f := func(x float64) float64 { return -x }
	x, _ := GoldenMin(f, 0, 5, 1e-9, 200)
	if math.Abs(x-5) > 1e-6 {
		t.Errorf("endpoint optimum missed: x=%g", x)
	}
	// Monotone increasing: left endpoint.
	g := func(x float64) float64 { return x }
	x, _ = GoldenMin(g, 0, 5, 1e-9, 200)
	if math.Abs(x) > 1e-6 {
		t.Errorf("left endpoint missed: x=%g", x)
	}
}

func TestGoldenMinDegenerateInterval(t *testing.T) {
	f := func(x float64) float64 { return x * x }
	x, fx := GoldenMin(f, 2, 2, 1e-9, 100)
	if x != 2 || fx != 4 {
		t.Errorf("degenerate interval: x=%g fx=%g", x, fx)
	}
	// Reversed bounds are normalised.
	x, _ = GoldenMin(f, 5, -5, 1e-9, 200)
	if math.Abs(x) > 1e-6 {
		t.Errorf("reversed bounds: x=%g", x)
	}
}

// TestGoldenMinNeverWorseThanEndpoints is the safety property coordinate
// descent relies on: the returned value never exceeds both endpoint values,
// even on non-unimodal functions.
func TestGoldenMinNeverWorseThanEndpoints(t *testing.T) {
	rng := stats.NewRNG(3)
	if err := quick.Check(func(a, b, c, d uint16) bool {
		// A wiggly cubic-with-sine, not unimodal.
		p1 := float64(a%100)/10 - 5
		p2 := float64(b%100)/10 - 5
		f := func(x float64) float64 {
			return math.Sin(3*x+p1) + 0.1*(x-p2)*(x-p2)
		}
		lo := rng.Uniform(-5, 0)
		hi := rng.Uniform(0, 5)
		_, fx := GoldenMin(f, lo, hi, 1e-6, 100)
		return fx <= f(lo)+1e-12 && fx <= f(hi)+1e-12
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp broken")
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	rosen := func(x []float64) float64 {
		return 100*math.Pow(x[1]-x[0]*x[0], 2) + math.Pow(1-x[0], 2)
	}
	x, fx, err := NelderMead(rosen, []float64{-1.2, 1}, NelderMeadOptions{MaxEvals: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if fx > 1e-4 {
		t.Errorf("Rosenbrock min missed: x=%v fx=%g", x, fx)
	}
}

func TestNelderMeadSphereHighDim(t *testing.T) {
	sphere := func(x []float64) float64 {
		var s float64
		for _, v := range x {
			s += v * v
		}
		return s
	}
	x0 := []float64{3, -2, 1, 4, -1}
	_, fx, err := NelderMead(sphere, x0, NelderMeadOptions{MaxEvals: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if fx > 1e-3 {
		t.Errorf("sphere min missed: fx=%g", fx)
	}
}

func TestNelderMeadValidation(t *testing.T) {
	if _, _, err := NelderMead(func(x []float64) float64 { return 0 }, nil, NelderMeadOptions{}); err == nil {
		t.Error("empty x0 accepted")
	}
}

func TestPenaltyMinimizeConstrainedQuadratic(t *testing.T) {
	// min (x−5)² s.t. x ≤ 2 → x* = 2.
	f := func(x []float64) float64 { return (x[0] - 5) * (x[0] - 5) }
	cons := []Constraint{func(x []float64) float64 { return x[0] - 2 }}
	x, _, err := PenaltyMinimize(f, cons, []float64{0}, PenaltyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 0.01 {
		t.Errorf("constrained optimum x=%g, want 2", x[0])
	}
}

func TestPenaltyMinimizeBoxBounds(t *testing.T) {
	f := func(x []float64) float64 { return x[0]*x[0] + x[1]*x[1] }
	x, _, err := PenaltyMinimize(f, nil, []float64{5, 5}, PenaltyOptions{
		Lower: []float64{1, -10},
		Upper: []float64{10, 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-6 || math.Abs(x[1]) > 1e-3 {
		t.Errorf("box-bounded optimum %v, want [1, 0]", x)
	}
}

func TestPenaltyMinimizeValidation(t *testing.T) {
	f := func(x []float64) float64 { return 0 }
	if _, _, err := PenaltyMinimize(f, nil, nil, PenaltyOptions{}); err == nil {
		t.Error("empty x0 accepted")
	}
	if _, _, err := PenaltyMinimize(f, nil, []float64{1}, PenaltyOptions{Lower: []float64{1, 2}}); err == nil {
		t.Error("mismatched bounds accepted")
	}
}

func TestMaxViolation(t *testing.T) {
	cons := []Constraint{
		func(x []float64) float64 { return x[0] - 1 },
		func(x []float64) float64 { return -x[0] },
	}
	if v := MaxViolation(cons, []float64{3}); v != 2 {
		t.Errorf("MaxViolation = %g, want 2", v)
	}
	if v := MaxViolation(cons, []float64{0.5}); v != 0 {
		t.Errorf("feasible point violation = %g", v)
	}
}
