package core

import (
	"repro/internal/power"
	"repro/internal/preempt"
	"repro/internal/yds"
)

// SeedCertifies reports whether a WorstCase build of plan under cfg returns
// the seed's certified YDS optimum (solveSeeded) rather than running the
// usual descent.
func SeedCertifies(plan *preempt.Schedule, cfg Config) bool {
	cfg.Objective, cfg.WarmStart = WorstCase, nil
	s, err := solveSeeded(plan, cfg.withDefaults())
	return err == nil && s != nil
}

// YDSBound returns the YDS energy of the worst-case jobs of s's task set,
// computed by internal/yds from the set itself rather than from s's plan,
// and the floor no WCS energy of s may fall below: the bound less 1e-12
// relative and less what s's dead reservations leave uncharged. A dead
// reservation (0 < WCWork ≤ DeadWork) never runs, so its cycles escape the
// objective, and one more cycle raises the optimum by at most 3·Ceff·Vmax²,
// the derivative of Ceff·K²·W³/d². ok is false where the bound applies to
// no schedule: on a model other than SimpleInverse, or when the tasks' Ceff
// differ.
func YDSBound(s *Schedule) (bound, floor float64, ok bool, err error) {
	set := s.Plan.Set
	if _, simple := s.Model.(*power.SimpleInverse); !simple {
		return 0, 0, false, nil
	}
	ceff := set.Tasks[0].Ceff
	for _, t := range set.Tasks {
		if t.Ceff != ceff {
			return 0, 0, false, nil
		}
	}
	jobs, err := yds.FromTaskSet(set)
	if err != nil {
		return 0, 0, false, err
	}
	ys, err := yds.Build(jobs)
	if err != nil {
		return 0, 0, false, err
	}
	if bound, err = ys.Energy(s.Model); err != nil {
		return 0, 0, false, err
	}
	var dead float64
	for _, w := range s.WCWork {
		if w > 0 && w <= DeadWork {
			dead += w
		}
	}
	vmax := s.Model.VMax()
	return bound, bound*(1-1e-12) - 3*ceff*vmax*vmax*dead, true, nil
}
