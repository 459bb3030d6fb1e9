package stats

import (
	"fmt"
	"math"
)

// Summary accumulates streaming summary statistics (Welford's online
// algorithm) without retaining samples. It is the unit every experiment
// reports: mean, deviation, min/max and a 95% normal-approximation
// confidence half-width.
type Summary struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add folds one observation into the summary.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// AddAll folds every observation of xs into the summary.
func (s *Summary) AddAll(xs []float64) {
	for _, x := range xs {
		s.Add(x)
	}
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean, or 0 for an empty summary.
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance (0 for fewer than two samples).
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the unbiased sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation (0 for an empty summary).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 for an empty summary).
func (s *Summary) Max() float64 { return s.max }

// CI95 returns the half-width of a 95% confidence interval for the mean
// under the normal approximation (1.96·σ/√n). For n < 2 it returns 0.
func (s *Summary) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return 1.96 * s.Std() / math.Sqrt(float64(s.n))
}

// String renders the summary for experiment logs.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g ±%.2g (std=%.3g min=%.4g max=%.4g)",
		s.n, s.Mean(), s.CI95(), s.Std(), s.min, s.max)
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// Std returns the unbiased sample standard deviation of xs.
func Std(xs []float64) float64 {
	var s Summary
	s.AddAll(xs)
	return s.Std()
}
