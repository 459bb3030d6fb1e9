// Package opt provides the pure-Go mathematical-programming machinery used
// to solve the paper's NLP (§3.2): one-dimensional golden-section search,
// projected coordinate descent, Nelder–Mead simplex search, and a
// penalty-method gradient solver. The coordinate-descent path is the
// production solver (internal/core builds on it); Nelder–Mead and the
// penalty solver exist to cross-check solution quality on small instances
// (experiment E9).
package opt

// invPhi = 1/φ, the golden-section step ratio.
const invPhi = 0.6180339887498949

// GoldenMin minimises a unimodal (or approximately unimodal) function f on
// the closed interval [lo, hi] by golden-section search, returning the
// best point found and its value. tol is the absolute interval tolerance;
// maxIter bounds the number of shrink steps. The endpoints are always
// evaluated, so the result is never worse than min(f(lo), f(hi)) even if f
// is not unimodal.
func GoldenMin(f func(float64) float64, lo, hi, tol float64, maxIter int) (x, fx float64) {
	if hi < lo {
		lo, hi = hi, lo
	}
	bestX, bestF := lo, f(lo)
	if fHi := f(hi); fHi < bestF {
		bestX, bestF = hi, fHi
	}
	if hi-lo <= tol {
		return bestX, bestF
	}
	a, b := lo, hi
	c := b - invPhi*(b-a)
	d := a + invPhi*(b-a)
	fc, fd := f(c), f(d)
	for i := 0; i < maxIter && b-a > tol; i++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - invPhi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + invPhi*(b-a)
			fd = f(d)
		}
	}
	if fc < bestF {
		bestX, bestF = c, fc
	}
	if fd < bestF {
		bestX, bestF = d, fd
	}
	return bestX, bestF
}

// Clamp returns x restricted to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
