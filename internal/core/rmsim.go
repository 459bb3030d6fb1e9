package core

import (
	"fmt"
	"math"
	"sort"
)

// rmVmaxSplits computes the worst-case workload split each instance's pieces
// receive under an exact preemptive rate-monotonic execution at maximum
// speed: the work an instance executes inside segment k of its window
// becomes piece k's worst-case budget R̂.
//
// These splits are the canonical feasible starting point: the ASAP chain of
// the fully-preemptive total order replays this execution exactly, so the
// chain meets every deadline if and only if the task set is schedulable at
// Vmax under rate-monotonic priorities. (Proportional splits — workload
// spread evenly over the window — can be infeasible even for schedulable
// sets, because they leave work in segments that higher-priority load fully
// occupies.)
func (s *Schedule) rmVmaxSplits() error {
	plan := s.Plan
	rate := 1 / s.Model.CycleTime(s.Model.VMax()) // cycles per ms at Vmax
	edges, order, remaining := s.rmTimeline()

	for e := 0; e+1 < len(edges); e++ {
		a, b := edges[e], edges[e+1]
		capacity := (b - a) * rate
		for _, idx := range order {
			if capacity <= 0 {
				break
			}
			if remaining[idx] <= 0 {
				continue
			}
			in := plan.Instances[idx]
			if in.Release > a+1e-12 {
				continue // not yet released in this interval
			}
			if in.Deadline < b-1e-12 {
				// Its window ended at or before this interval, with work
				// left: the set is unschedulable at Vmax.
				return fmt.Errorf("core: %s unschedulable at Vmax: %g cycles left at deadline %g",
					in.ID(plan.Set), remaining[idx], in.Deadline)
			}
			w := math.Min(remaining[idx], capacity)
			pos, err := s.pieceAt(idx, a)
			if err != nil {
				return err
			}
			s.WCWork[pos] += w
			remaining[idx] -= w
			capacity -= w
		}
	}
	for idx, r := range remaining {
		if r > 1e-9*plan.Set.Tasks[plan.Instances[idx].TaskIndex].WCEC {
			return fmt.Errorf("core: %s unschedulable at Vmax: %g cycles never scheduled",
				plan.Instances[idx].ID(plan.Set), r)
		}
		s.foldResidue(idx, r)
	}
	return nil
}

// ydsSeed replays rmVmaxSplits's fixed-priority execution with instance idx
// at speed[idx] cycles per ms instead of at Vmax, so an interval's capacity
// is time, not cycles: the cycles an instance executes inside piece k's
// segment become WCWork[k], and the time it finishes there becomes End[k].
// Fed the YDS speeds of the plan's instances, a replay that meets every
// deadline is a schedule of the YDS energy in the plan's total order
// (DESIGN §3). Dead pieces get initialize's bookkeeping ends. It reports
// false when an instance misses its deadline.
func (s *Schedule) ydsSeed(speed []float64) bool {
	plan := s.Plan
	edges, order, remaining := s.rmTimeline()
	// A residue within the tolerance the fold below accepts is not work to
	// run: at YDS speeds a critical interval ends exactly at a deadline, so
	// an instance there finishes with float dust left over.
	dust := func(idx int) float64 {
		return 1e-9 * plan.Set.Tasks[plan.Instances[idx].TaskIndex].WCEC
	}

	for e := 0; e+1 < len(edges); e++ {
		a, b := edges[e], edges[e+1]
		t := a
		for _, idx := range order {
			if t >= b {
				break
			}
			if remaining[idx] <= dust(idx) {
				continue
			}
			in := plan.Instances[idx]
			if in.Release > a+1e-12 {
				continue
			}
			if in.Deadline < b-1e-12 {
				return false
			}
			pos, err := s.pieceAt(idx, a)
			if err != nil {
				return false
			}
			w := remaining[idx]
			if dt := w / speed[idx]; dt < b-t {
				t += dt
			} else {
				w = min(w, (b-t)*speed[idx])
				t = b
			}
			s.WCWork[pos] += w
			s.End[pos] = t
			remaining[idx] -= w
		}
	}
	for idx, r := range remaining {
		if r > dust(idx) {
			return false
		}
		s.foldResidue(idx, r)
	}
	prev := 0.0
	for pos := range s.End {
		if s.WCWork[pos] <= deadWork {
			s.End[pos] = max(prev, plan.Subs[pos].Release)
			continue
		}
		prev = s.End[pos]
	}
	return true
}

// foldResidue adds instance idx's numerical residue r to its final piece,
// so its splits sum exactly to WCEC.
func (s *Schedule) foldResidue(idx int, r float64) {
	if r != 0 {
		positions := s.Plan.ByInstance[idx]
		s.WCWork[positions[len(positions)-1]] += r
	}
}

// rmTimeline returns what every replay of the plan's fixed-priority
// execution starts from: the timeline's segment edges in ascending order,
// the instances sorted by the plan's priority rule, and each instance's
// worst-case work, all of it still to run. It zeroes WCWork.
func (s *Schedule) rmTimeline() (edges []float64, order []int, remaining []float64) {
	plan := s.Plan

	// Timeline boundaries: every segment edge. Deadlines and releases are
	// segment edges by construction, so execution windows align with the
	// interval grid.
	edgeSet := map[float64]bool{0: true, plan.Hyperperiod: true}
	for _, su := range plan.Subs {
		edgeSet[su.SegStart] = true
		edgeSet[su.SegEnd] = true
	}
	edges = make([]float64, 0, len(edgeSet))
	for e := range edgeSet {
		edges = append(edges, e)
	}
	sort.Float64s(edges)

	// Remaining worst-case work per instance; pieceAt locates the piece
	// covering a time point.
	remaining = make([]float64, len(plan.Instances))
	for idx := range plan.Instances {
		remaining[idx] = plan.Set.Tasks[plan.Instances[idx].TaskIndex].WCEC
	}
	for pos := range s.WCWork {
		s.WCWork[pos] = 0
	}

	// Ready instances in rate-monotonic order; ties resolve by task index
	// then release, matching preempt's total order.
	higher := func(a, b int) bool {
		ia, ib := plan.Instances[a], plan.Instances[b]
		pa := plan.Set.Tasks[ia.TaskIndex].Period
		pb := plan.Set.Tasks[ib.TaskIndex].Period
		if pa != pb {
			return pa < pb
		}
		if ia.TaskIndex != ib.TaskIndex {
			return ia.TaskIndex < ib.TaskIndex
		}
		return ia.Number < ib.Number
	}

	// Instances sorted by priority once; each interval scans the ready ones
	// in that order. O(#edges · #instances) overall — fine at this scale.
	order = make([]int, len(plan.Instances))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return higher(order[x], order[y]) })
	return edges, order, remaining
}

// pieceAt returns the position (in total order) of instance idx's piece
// whose segment contains time t.
func (s *Schedule) pieceAt(idx int, t float64) (int, error) {
	positions := s.Plan.ByInstance[idx]
	// Binary search for the last piece with SegStart <= t.
	lo, hi := 0, len(positions)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if s.Plan.Subs[positions[mid]].SegStart <= t+1e-12 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	su := s.Plan.Subs[positions[lo]]
	if t < su.SegStart-1e-9 || t > su.SegEnd+1e-9 {
		return 0, fmt.Errorf("core: no piece of instance %d covers t=%g", idx, t)
	}
	return positions[lo], nil
}
