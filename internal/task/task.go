// Package task defines the periodic hard real-time task model of the paper
// (§2.1): a frame-based preemptive system of independent periodic tasks with
// relative deadline equal to period, scheduled by rate-monotonic (RM) fixed
// priorities, each task characterised by worst-case, average-case and
// best-case execution cycles (WCEC / ACEC / BCEC) and an effective switching
// capacitance.
//
// Time is measured in integral milliseconds for periods so the hyper-period
// is an exact least common multiple; schedule mathematics downstream uses
// float64 milliseconds.
package task

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Task is one periodic task. The zero value is not valid; construct task
// sets through NewSet (or Set.Validate) so invariants hold everywhere else.
type Task struct {
	// Name identifies the task in traces and reports.
	Name string `json:"name"`

	// Period is the task period in integral milliseconds. The relative
	// deadline equals the period (paper §2.1).
	Period int64 `json:"period_ms"`

	// WCEC is the worst-case execution cycle count.
	WCEC float64 `json:"wcec"`

	// ACEC is the average-case execution cycle count: the expected value of
	// the actual-cycle distribution, obtainable by profiling (paper §2.1).
	ACEC float64 `json:"acec"`

	// BCEC is the best-case execution cycle count, the lower support of the
	// workload distribution.
	BCEC float64 `json:"bcec"`

	// Ceff is the effective switching capacitance entering E = Ceff·V²·cycles.
	Ceff float64 `json:"ceff"`
}

// Validate reports the first model violation in t, if any.
func (t *Task) Validate() error {
	if t.Period <= 0 {
		return fmt.Errorf("task %q: period must be positive, got %d", t.Name, t.Period)
	}
	if t.WCEC <= 0 {
		return fmt.Errorf("task %q: WCEC must be positive, got %g", t.Name, t.WCEC)
	}
	if t.BCEC < 0 {
		return fmt.Errorf("task %q: BCEC must be non-negative, got %g", t.Name, t.BCEC)
	}
	if t.BCEC > t.WCEC {
		return fmt.Errorf("task %q: BCEC %g exceeds WCEC %g", t.Name, t.BCEC, t.WCEC)
	}
	if t.ACEC < t.BCEC || t.ACEC > t.WCEC {
		return fmt.Errorf("task %q: ACEC %g outside [BCEC %g, WCEC %g]",
			t.Name, t.ACEC, t.BCEC, t.WCEC)
	}
	if t.Ceff <= 0 {
		return fmt.Errorf("task %q: Ceff must be positive, got %g", t.Name, t.Ceff)
	}
	return nil
}

// Deadline returns the relative deadline in milliseconds (equal to the
// period in this model).
func (t *Task) Deadline() float64 { return float64(t.Period) }

// Set is an immutable-by-convention collection of tasks ordered by
// rate-monotonic priority: index 0 is the highest priority (shortest
// period); ties break by original insertion order, matching the paper's
// "priorities of two tasks are the same if they have the same period" with a
// deterministic resolution.
type Set struct {
	Tasks []Task `json:"tasks"`
}

// NewSet sorts the tasks into RM priority order (stable, so equal periods
// keep caller order), names each unnamed task "T<i>" by its sorted position,
// validates them, and returns the set. Naming after the sort keeps a
// permutation of distinct-period tasks the same set, named or not.
func NewSet(tasks []Task) (*Set, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("task: a set needs at least one task")
	}
	ts := append([]Task(nil), tasks...)
	sort.SliceStable(ts, func(i, j int) bool { return ts[i].Period < ts[j].Period })
	for i := range ts {
		if ts[i].Name == "" {
			ts[i].Name = fmt.Sprintf("T%d", i+1)
		}
		if err := ts[i].Validate(); err != nil {
			return nil, err
		}
	}
	names := map[string]bool{}
	for i := range ts {
		if names[ts[i].Name] {
			return nil, fmt.Errorf("task: duplicate task name %q", ts[i].Name)
		}
		names[ts[i].Name] = true
	}
	s := &Set{Tasks: ts}
	if _, err := s.Hyperperiod(); err != nil {
		return nil, err
	}
	return s, nil
}

// N returns the number of tasks.
func (s *Set) N() int { return len(s.Tasks) }

// Hyperperiod returns the least common multiple of all periods in
// milliseconds. It fails if the LCM overflows int64 — a sign the period set
// was not chosen from a harmonically compatible pool.
func (s *Set) Hyperperiod() (int64, error) {
	h := int64(1)
	for i := range s.Tasks {
		var ok bool
		h, ok = lcm(h, s.Tasks[i].Period)
		if !ok {
			return 0, fmt.Errorf("task: hyper-period overflows int64 (periods too incommensurate; consider rounding, see DESIGN.md on GAP)")
		}
	}
	return h, nil
}

// UtilizationAt returns Σ WCECᵢ·tc / Pᵢ — the processor utilisation when all
// tasks run at a speed with cycle time tc ms/cycle. The paper scales WCEC so
// this is ≈ 0.7 at the maximum speed.
func (s *Set) UtilizationAt(cycleTime float64) float64 {
	var u float64
	for i := range s.Tasks {
		u += s.Tasks[i].WCEC * cycleTime / float64(s.Tasks[i].Period)
	}
	return u
}

// ScaleWCEC multiplies every task's WCEC/ACEC/BCEC by factor, returning a
// new set. Used by generators to hit a target utilisation.
func (s *Set) ScaleWCEC(factor float64) (*Set, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("task: scale factor must be positive, got %g", factor)
	}
	ts := append([]Task(nil), s.Tasks...)
	for i := range ts {
		ts[i].WCEC *= factor
		ts[i].ACEC *= factor
		ts[i].BCEC *= factor
	}
	return NewSet(ts)
}

// SameWorstCase reports whether a and b agree task for task on every field
// but ACEC and BCEC: the fields a worst-case schedule is a function of.
func SameWorstCase(a, b *Set) bool {
	if len(a.Tasks) != len(b.Tasks) {
		return false
	}
	for i := range a.Tasks {
		x, y := &a.Tasks[i], &b.Tasks[i]
		if x.Name != y.Name || x.Period != y.Period || x.WCEC != y.WCEC || x.Ceff != y.Ceff {
			return false
		}
	}
	return true
}

// MarshalJSON renders the set as {"tasks": [...]}.
func (s *Set) MarshalJSON() ([]byte, error) {
	type alias Set
	return json.Marshal((*alias)(s))
}

// UnmarshalJSON parses and re-validates a set (so hand-edited JSON cannot
// smuggle in invalid tasks or break priority ordering).
func (s *Set) UnmarshalJSON(data []byte) error {
	type alias Set
	var a alias
	if err := json.Unmarshal(data, &a); err != nil {
		return err
	}
	ns, err := NewSet(a.Tasks)
	if err != nil {
		return err
	}
	*s = *ns
	return nil
}

// String summarises the set for logs.
func (s *Set) String() string {
	h, err := s.Hyperperiod()
	if err != nil {
		return fmt.Sprintf("Set{%d tasks, invalid hyper-period}", len(s.Tasks))
	}
	return fmt.Sprintf("Set{%d tasks, H=%dms}", len(s.Tasks), h)
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// lcm returns the least common multiple and whether it fit in int64.
func lcm(a, b int64) (int64, bool) {
	g := gcd(a, b)
	q := a / g
	if q != 0 && b > (1<<62)/q {
		return 0, false
	}
	return q * b, true
}
