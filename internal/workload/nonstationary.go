package workload

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/task"
)

// Nonstationary workload scenarios (DESIGN.md §8): workload streams whose
// per-task execution-cycle distribution changes *across* hyper-periods — the
// regime the static grid cannot express, and the one the feedback subsystem
// (internal/feedback) exists to exploit. A scenario is a pure function of
// (task set, config, hyper-period index): every hyper-period draws from a
// dedicated RNG stream derived from (Seed, h) alone, so generation is
// byte-deterministic per seed, independent of chunking, and supports random
// access (a burst at hyper-period h is decided by hashing h, not by
// sequential state).
//
// All draws stay inside each task's [BCEC, WCEC] support — the feasibility
// envelope the worst-case schedule guarantees deadlines over — so every
// scenario is safe under every schedule; only the *distribution within* the
// support moves.

// ScenarioKind enumerates the nonstationary families.
type ScenarioKind int

const (
	// Stationary draws every hyper-period from the stated model (mean at
	// baseFrac of the support) — the control arm: an adaptive controller
	// must not pay for adaptivity here.
	Stationary ScenarioKind = iota
	// ModeSwitch alternates the workload mean between baseFrac and altFrac
	// every SwitchEvery hyper-periods — an application flipping between
	// operating modes (k4.0s-style criticality-mode behaviour).
	ModeSwitch
	// DriftingMean moves the mean linearly from baseFrac to altFrac over
	// DriftOver hyper-periods, then holds — slow environmental drift.
	DriftingMean
	// BurstyTail runs at baseFrac but enters altFrac bursts (burstLen
	// hyper-periods, started with probability burstProb per hyper-period)
	// and salts every draw with a tailProb chance of a near-WCEC outlier —
	// heavy-tailed load with correlated heavy episodes.
	BurstyTail
)

// The regime constants every scenario runs. Means are fractions of each
// task's [BCEC, WCEC] support: frac f places task t's mean at
// BCEC_t + f·(WCEC_t − BCEC_t), so one scenario drives every task of a
// heterogeneous set coherently.
const (
	// baseFrac is the initial/regime-A mean fraction: the stated ACEC of
	// sets built by Random/WithRatio, so Stationary matches the solved model
	// exactly.
	baseFrac = 0.5
	// altFrac is the regime-B / drift-target / burst mean fraction: the
	// workload runs heavier than the stated model. Heavier regimes are where
	// adaptation pays most: a schedule whose end-times were tuned for a
	// light average forces late pieces to high voltages when work runs long
	// (energy is convex in speed), while lighter-than-modelled regimes are
	// largely recovered at runtime by greedy reclamation anyway.
	altFrac = 0.85
	// burstProb is the per-hyper-period probability a BurstyTail burst
	// begins, and burstLen its length in hyper-periods.
	burstProb = 0.03
	burstLen  = 10
	// tailProb is the BurstyTail per-draw probability of a near-WCEC
	// outlier outside bursts.
	tailProb = 0.02
	// sigmaFrac is the per-draw standard deviation as a fraction of the
	// support span (the paper's §4 choice). Near the support edges σ is
	// capped at a third of the distance to the nearer edge, so the ±3σ
	// window always fits inside [BCEC, WCEC] — the same property the
	// paper's midpoint-mean choice has — and truncation never biases the
	// realised mean away from the regime mean (which MeanFrac reports as
	// ground truth).
	sigmaFrac = 1.0 / 6
)

// String names the scenario kind.
func (k ScenarioKind) String() string {
	switch k {
	case Stationary:
		return "stationary"
	case ModeSwitch:
		return "modeswitch"
	case DriftingMean:
		return "drift"
	case BurstyTail:
		return "bursty"
	default:
		return fmt.Sprintf("ScenarioKind(%d)", int(k))
	}
}

// ParseScenarioKind parses a scenario-kind name.
func ParseScenarioKind(s string) (ScenarioKind, error) {
	switch s {
	case "stationary":
		return Stationary, nil
	case "modeswitch":
		return ModeSwitch, nil
	case "drift":
		return DriftingMean, nil
	case "bursty":
		return BurstyTail, nil
	default:
		return 0, fmt.Errorf("workload: unknown scenario kind %q (want stationary, modeswitch, drift, bursty)", s)
	}
}

// ScenarioConfig parameterises a nonstationary scenario; the regime means
// and burst shape are the constants above.
type ScenarioConfig struct {
	// Kind selects the family.
	Kind ScenarioKind
	// Seed derives every hyper-period's draw stream. Equal seeds give
	// byte-identical streams.
	Seed uint64
	// SwitchEvery is the ModeSwitch regime length in hyper-periods
	// (default 120).
	SwitchEvery int
	// DriftOver is the DriftingMean transition length in hyper-periods
	// (default 240).
	DriftOver int
}

func (c ScenarioConfig) withDefaults() (ScenarioConfig, error) {
	if c.SwitchEvery <= 0 {
		c.SwitchEvery = 120
	}
	if c.DriftOver <= 0 {
		c.DriftOver = 240
	}
	switch c.Kind {
	case Stationary, ModeSwitch, DriftingMean, BurstyTail:
	default:
		return c, fmt.Errorf("workload: unknown scenario kind %v", c.Kind)
	}
	return c, nil
}

// Scenario is a resolved nonstationary workload source over one task set.
type Scenario struct {
	set *task.Set
	cfg ScenarioConfig
}

// NewScenario validates cfg against set and returns the scenario.
func NewScenario(set *task.Set, cfg ScenarioConfig) (*Scenario, error) {
	if set == nil || set.N() == 0 {
		return nil, fmt.Errorf("workload: scenario needs a non-empty task set")
	}
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Scenario{set: set, cfg: c}, nil
}

// hyperSeed derives the dedicated seed of hyper-period h's draw stream: a
// two-round SplitMix64 mix of (Seed, h, purpose), so streams of adjacent
// hyper-periods — and the burst-decision stream — never overlap.
func (s *Scenario) hyperSeed(h int, purpose uint64) uint64 {
	r := stats.NewRNG(s.cfg.Seed ^ (uint64(h)+1)*0xa24baed4963ee407 ^ purpose*0x9e3779b97f4a7c15)
	return r.SplitSeed()
}

// burstActive reports whether a BurstyTail burst covers hyper-period h:
// a burst started at any h₀ ∈ (h−burstLen, h] — a pure function of h, so
// burst episodes are identical however the horizon is chunked.
func (s *Scenario) burstActive(h int) bool {
	for h0 := h - burstLen + 1; h0 <= h; h0++ {
		if h0 < 0 {
			continue
		}
		r := stats.RNG{}
		r.Reset(s.hyperSeed(h0, 2))
		if r.Float64() < burstProb {
			return true
		}
	}
	return false
}

// MeanFrac returns the regime mean fraction at hyper-period h — the ground
// truth a clairvoyant oracle adapts to. (Per-draw tail outliers of BurstyTail
// sit on top of this regime mean.)
func (s *Scenario) MeanFrac(h int) float64 {
	c := &s.cfg
	switch c.Kind {
	case ModeSwitch:
		if (h/c.SwitchEvery)%2 == 1 {
			return altFrac
		}
		return baseFrac
	case DriftingMean:
		if h >= c.DriftOver {
			return altFrac
		}
		t := float64(h) / float64(c.DriftOver)
		return baseFrac + t*(altFrac-baseFrac)
	case BurstyTail:
		if s.burstActive(h) {
			return altFrac
		}
		return baseFrac
	default: // Stationary
		return baseFrac
	}
}

// FillActuals fills buf with hyper-period h's per-instance draws: taskOf[i]
// names the task owning instance i (the preemptive plan's Instances order
// downstream), and buf[i] receives that instance's actual cycles, always
// inside [BCEC, WCEC]. The draws consume a dedicated stream derived from
// (Seed, h) in instance order, so the stream is a pure function of the seed
// and the hyper-period — independent of chunk boundaries and of whatever
// schedule executes it.
func (s *Scenario) FillActuals(h int, taskOf []int, buf []float64) error {
	if len(taskOf) != len(buf) {
		return fmt.Errorf("workload: %d instances but %d buffer slots", len(taskOf), len(buf))
	}
	frac := s.MeanFrac(h)
	var rng stats.RNG
	rng.Reset(s.hyperSeed(h, 1))
	for i, t := range taskOf {
		if t < 0 || t >= s.set.N() {
			return fmt.Errorf("workload: instance %d names task %d of %d", i, t, s.set.N())
		}
		tk := &s.set.Tasks[t]
		span := tk.WCEC - tk.BCEC
		mean := tk.BCEC + frac*span
		if s.cfg.Kind == BurstyTail && rng.Float64() < tailProb {
			// Heavy-tail outlier: a near-worst-case release.
			mean = tk.BCEC + 0.95*span
		}
		// Cap σ so ±3σ fits the support: truncation then never biases the
		// realised mean off the regime mean (see sigmaFrac).
		sigma := sigmaFrac * span
		if lim := (mean - tk.BCEC) / 3; sigma > lim {
			sigma = lim
		}
		if lim := (tk.WCEC - mean) / 3; sigma > lim {
			sigma = lim
		}
		buf[i] = rng.TruncNormal(mean, sigma, tk.BCEC, tk.WCEC)
	}
	return nil
}

// Actuals generates hyper-periods [0, horizon) as one slice of per-instance
// rows — the convenience form chunked closed-loop harnesses index into.
func (s *Scenario) Actuals(horizon int, taskOf []int) ([][]float64, error) {
	out := make([][]float64, horizon)
	for h := range out {
		out[h] = make([]float64, len(taskOf))
		if err := s.FillActuals(h, taskOf, out[h]); err != nil {
			return nil, err
		}
	}
	return out, nil
}
