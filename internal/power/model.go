// Package power implements the DVS processor timing and energy model of the
// paper (§2.2, equations (1)–(3)):
//
//   - cycle time as a function of supply voltage,
//   - dynamic energy E = Ceff · Vdd² per cycle,
//   - a continuous voltage range [Vmin, Vmax],
//
// plus extensions used by the ablation experiments: the alpha-power-law
// delay model, discrete voltage levels, and the Ishihara–Yasuura two-level
// split that recovers continuous-voltage energy on discrete hardware.
//
// Units: time in milliseconds, workload in cycles, voltage in volts. Energy
// is reported in Ceff·V²·cycles units; the experiments only ever report
// energy ratios, which are dimensionless.
package power

import (
	"fmt"
	"math"
)

// Model abstracts a DVS-capable processor: a monotone map between supply
// voltage and clock speed, bounded by [Vmin, Vmax].
type Model interface {
	// CycleTime returns the duration of one clock cycle (ms) at voltage v.
	// It must be strictly decreasing in v over [Vmin, Vmax].
	CycleTime(v float64) float64

	// VoltageForCycleTime returns the lowest voltage whose cycle time is at
	// most tc, clamped into [Vmin, Vmax]. It is the inverse of CycleTime up
	// to clamping.
	VoltageForCycleTime(tc float64) float64

	// VMin and VMax bound the usable supply voltage.
	VMin() float64
	VMax() float64
}

// Energy returns the dynamic energy of executing cycles cycles at voltage v.
func Energy(ceff, v, cycles float64) float64 { return ceff * v * v * cycles }

// VoltageForWindow returns the lowest feasible voltage at which cycles
// cycles complete within window ms on m, clamped to [VMin, VMax], together
// with whether the workload actually fits at that voltage (it may not if the
// clamp engaged at VMax). A non-positive window with positive work clamps to
// VMax and reports unfit; zero work fits at VMin trivially.
func VoltageForWindow(m Model, cycles, window float64) (v float64, fits bool) {
	if cycles <= 0 {
		return m.VMin(), true
	}
	if window <= 0 {
		return m.VMax(), false
	}
	v = m.VoltageForCycleTime(window / cycles)
	// After clamping, check the workload still fits within the window;
	// allow a hair of float slack so exact solutions round-trip.
	return v, cycles*m.CycleTime(v) <= window*(1+1e-9)
}

// SimpleInverse is the simplified model of the paper's motivational example:
// "the clock cycle time is inversely proportional to the supply voltage".
//
//	CycleTime(v) = K / v
//
// with K in ms·V per cycle. At v = 1 V, one cycle takes K ms.
type SimpleInverse struct {
	K    float64 // cycle time · voltage product (ms·V)
	Vmin float64
	Vmax float64
}

// NewSimpleInverse validates and returns a SimpleInverse model.
func NewSimpleInverse(k, vmin, vmax float64) (*SimpleInverse, error) {
	if k <= 0 {
		return nil, fmt.Errorf("power: SimpleInverse K must be positive, got %g", k)
	}
	if err := checkRange(vmin, vmax); err != nil {
		return nil, err
	}
	return &SimpleInverse{K: k, Vmin: vmin, Vmax: vmax}, nil
}

// CycleTime implements Model.
func (m *SimpleInverse) CycleTime(v float64) float64 { return m.K / v }

// VoltageForCycleTime implements Model.
func (m *SimpleInverse) VoltageForCycleTime(tc float64) float64 {
	if tc <= 0 {
		return m.Vmax
	}
	return clamp(m.K/tc, m.Vmin, m.Vmax)
}

// VMin implements Model.
func (m *SimpleInverse) VMin() float64 { return m.Vmin }

// VMax implements Model.
func (m *SimpleInverse) VMax() float64 { return m.Vmax }

// Alpha is the alpha-power-law delay model of paper eq. (1):
//
//	CycleTime(v) = K · v / (v − Vt)^α
//
// where Vt is the threshold voltage and α ∈ (1, 2] a process constant. It is
// strictly decreasing in v for v > Vt·α/(α−1)... in fact for all v > Vt when
// α ≥ 1, which NewAlpha enforces together with Vmin > Vt.
type Alpha struct {
	K    float64 // scale (ms·V^(α−1))
	Vt   float64 // threshold voltage (V)
	Aexp float64 // process constant α in [1, 2]
	Vmin float64
	Vmax float64
}

// NewAlpha validates and returns an Alpha model.
func NewAlpha(k, vt, alpha, vmin, vmax float64) (*Alpha, error) {
	if k <= 0 {
		return nil, fmt.Errorf("power: Alpha K must be positive, got %g", k)
	}
	if alpha < 1 || alpha > 2 {
		return nil, fmt.Errorf("power: Alpha exponent must lie in [1, 2], got %g", alpha)
	}
	if vt < 0 {
		return nil, fmt.Errorf("power: threshold voltage must be non-negative, got %g", vt)
	}
	if err := checkRange(vmin, vmax); err != nil {
		return nil, err
	}
	if vmin <= vt {
		return nil, fmt.Errorf("power: Vmin %g must exceed threshold voltage %g", vmin, vt)
	}
	m := &Alpha{K: k, Vt: vt, Aexp: alpha, Vmin: vmin, Vmax: vmax}
	return m, nil
}

// CycleTime implements Model.
func (m *Alpha) CycleTime(v float64) float64 {
	return m.K * v / math.Pow(v-m.Vt, m.Aexp)
}

// VoltageForCycleTime implements Model by bisection: CycleTime is strictly
// decreasing on [Vmin, Vmax] (checked in NewAlpha via the Vmin > Vt
// constraint and α ≥ 1), so the preimage is unique when it exists.
func (m *Alpha) VoltageForCycleTime(tc float64) float64 {
	if tc <= 0 {
		return m.Vmax
	}
	if m.CycleTime(m.Vmin) <= tc {
		return m.Vmin
	}
	if m.CycleTime(m.Vmax) >= tc {
		return m.Vmax
	}
	lo, hi := m.Vmin, m.Vmax
	for i := 0; i < 80; i++ {
		mid := 0.5 * (lo + hi)
		if m.CycleTime(mid) > tc {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi // hi is always feasible (CycleTime(hi) <= tc)
}

// VMin implements Model.
func (m *Alpha) VMin() float64 { return m.Vmin }

// VMax implements Model.
func (m *Alpha) VMax() float64 { return m.Vmax }

func checkRange(vmin, vmax float64) error {
	if vmin <= 0 {
		return fmt.Errorf("power: Vmin must be positive, got %g", vmin)
	}
	if vmax < vmin {
		return fmt.Errorf("power: Vmax %g must be at least Vmin %g", vmax, vmin)
	}
	return nil
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// DefaultModel returns the model used by the paper-replication experiments:
// the simplified inverse-proportional model with K = 1 ms·V per kilocycle
// equivalent (we measure workload directly in "cycles" where one cycle takes
// 1/v ms — the same normalisation the motivational example uses) and the
// motivational example's voltage range [0.7 V, 4 V].
func DefaultModel() Model {
	m, err := NewSimpleInverse(1.0, 0.7, 4.0)
	if err != nil {
		panic("power: DefaultModel construction cannot fail: " + err.Error())
	}
	return m
}
