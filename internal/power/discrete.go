package power

import (
	"fmt"
	"sort"
)

// Discrete wraps a continuous Model and restricts the usable voltages to a
// finite ascending level set, as real DVS processors do. VoltageForCycleTime
// rounds *up* to the next level so deadlines are never violated by
// quantisation. Used by the E8 ablation (continuous-voltage assumption).
type Discrete struct {
	base   Model
	levels []float64 // ascending, within [base.VMin(), base.VMax()]
}

// NewDiscrete returns a Discrete model over the given levels. Levels are
// sorted, deduplicated, and must all lie within the base model's range.
func NewDiscrete(base Model, levels []float64) (*Discrete, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("power: discrete model needs at least one level")
	}
	ls := append([]float64(nil), levels...)
	sort.Float64s(ls)
	out := ls[:1]
	for _, v := range ls[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	for _, v := range out {
		if v < base.VMin() || v > base.VMax() {
			return nil, fmt.Errorf("power: level %g V outside base range [%g, %g]",
				v, base.VMin(), base.VMax())
		}
	}
	return &Discrete{base: base, levels: out}, nil
}

// UniformLevels returns n voltage levels spread evenly over the base model's
// range, endpoints included.
func UniformLevels(base Model, n int) ([]float64, error) {
	if n < 1 {
		return nil, fmt.Errorf("power: need at least one level, got %d", n)
	}
	if n == 1 {
		return []float64{base.VMax()}, nil
	}
	ls := make([]float64, n)
	for i := range ls {
		ls[i] = base.VMin() + (base.VMax()-base.VMin())*float64(i)/float64(n-1)
	}
	// Pin the endpoints exactly: accumulated rounding must not push the top
	// level outside the base range or below the true maximum speed.
	ls[0], ls[n-1] = base.VMin(), base.VMax()
	return ls, nil
}

// CycleTime implements Model by delegating to the base model; any voltage in
// the continuous range can still be queried (levels constrain only choices).
func (d *Discrete) CycleTime(v float64) float64 { return d.base.CycleTime(v) }

// VoltageForCycleTime implements Model: the lowest *level* whose cycle time
// is at most tc, or the top level if none suffices.
func (d *Discrete) VoltageForCycleTime(tc float64) float64 {
	cont := d.base.VoltageForCycleTime(tc)
	// Round up to the first level >= cont. Levels are ascending.
	i := sort.SearchFloat64s(d.levels, cont)
	if i >= len(d.levels) {
		return d.levels[len(d.levels)-1]
	}
	return d.levels[i]
}

// VMin implements Model: the lowest level.
func (d *Discrete) VMin() float64 { return d.levels[0] }

// VMax implements Model: the highest level.
func (d *Discrete) VMax() float64 { return d.levels[len(d.levels)-1] }

// Levels returns the ascending level set (a copy).
func (d *Discrete) Levels() []float64 { return append([]float64(nil), d.levels...) }

// Base returns the continuous model the levels quantise. Together with
// Levels it is the model's full identity, which the grid memo fingerprints.
func (d *Discrete) Base() Model { return d.base }
