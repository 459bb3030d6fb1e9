package feedback

import "fmt"

// Drift detection (DESIGN.md §8): a two-sided Page–Hinkley test over a
// scalar per-hyper-period statistic — here the ratio of observed total work
// to the work the solved model predicts. The test is a pure fold of the
// input sequence (no randomness, no timing), so for a fixed observation
// stream the hyper-period at which drift fires is a constant: the property
// the closed-loop determinism contract leans on.

// DriftConfig parameterises the Page–Hinkley detector. The defaults are
// chosen for *standardized* inputs — the controller feeds the test
// z = (observed/predicted − 1)/σ̂, where σ̂ is the per-hyper-period noise the
// solved model predicts — so one set of thresholds works for every task set,
// whatever its BCEC/WCEC span.
type DriftConfig struct {
	// Delta is the deviation dead-band in standardized units (default 1):
	// evidence accumulates only from deviations beyond one predicted noise
	// σ, so stationary noise cancels (a clamped CUSUM's false-positive
	// rate falls like exp(−2·Delta·Lambda) — the defaults put it around
	// e⁻²⁴ per excursion). Zero selects the default; a negative value
	// requests an exact zero dead-band (pure CUSUM).
	Delta float64
	// Lambda is the accumulated-evidence threshold at which drift fires
	// (default 12 standardized units: a 4σ regime change — what a mode
	// switch between mean fractions induces — fires in about four
	// hyper-periods).
	Lambda float64
	// MinSamples is the minimum number of inputs before the test may fire
	// (default 12), so the running mean settles before it is trusted.
	MinSamples int
}

func (c DriftConfig) withDefaults() DriftConfig {
	if c.Delta == 0 {
		c.Delta = 1
	} else if c.Delta < 0 {
		c.Delta = 0 // explicit zero dead-band
	}
	if c.Lambda == 0 {
		c.Lambda = 12
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 12
	}
	return c
}

func (c DriftConfig) validate() error {
	if c.Delta < 0 || c.Lambda <= 0 {
		return fmt.Errorf("feedback: drift config needs Delta ≥ 0 and Lambda > 0 (got %g, %g)", c.Delta, c.Lambda)
	}
	return nil
}

// PageHinkley is the two-sided Page–Hinkley state: cumulative deviations of
// the input from its running mean, one accumulator per direction, each
// clamped at zero (CUSUM form). Construct with NewPageHinkley.
type PageHinkley struct {
	cfg  DriftConfig
	n    int64
	mean float64
	up   float64 // evidence the mean shifted up
	down float64 // evidence the mean shifted down
}

// NewPageHinkley returns a detector with defaults applied.
func NewPageHinkley(cfg DriftConfig) (*PageHinkley, error) {
	c := cfg.withDefaults()
	if err := c.validate(); err != nil {
		return nil, err
	}
	return &PageHinkley{cfg: c}, nil
}

// Add folds one statistic into the test and reports whether drift fired on
// this input. After a detection the caller decides what to do; the detector
// keeps accumulating until Reset.
func (d *PageHinkley) Add(x float64) bool {
	d.n++
	d.mean += (x - d.mean) / float64(d.n)
	d.up += x - d.mean - d.cfg.Delta
	if d.up < 0 {
		d.up = 0
	}
	d.down += d.mean - x - d.cfg.Delta
	if d.down < 0 {
		d.down = 0
	}
	if d.n < int64(d.cfg.MinSamples) {
		return false
	}
	return d.up > d.cfg.Lambda || d.down > d.cfg.Lambda
}

// Reset clears all state (running mean and both accumulators).
func (d *PageHinkley) Reset() {
	d.n, d.mean, d.up, d.down = 0, 0, 0, 0
}
