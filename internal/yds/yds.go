// Package yds implements the Yao–Demers–Shenker algorithm ("A scheduling
// model for reduced CPU energy", FOCS'95 — reference [3] of the paper as
// "Scheduling for reduced CPU energy"): the minimum-energy continuous-speed
// schedule for independent jobs with release times and deadlines under EDF.
//
// In this repository YDS plays two parts. It seeds core's WCS solver: when
// every job has the same capacitance and the energy per cycle is convex in
// the speed (the SimpleInverse model), no feasible schedule of the jobs is
// cheaper than YDS, so the solver replays its fixed-priority order with each
// instance at its YDS speed (Interval.Index maps speeds back to jobs) and
// returns the result when it reaches the YDS energy. And it is the
// independent bound tests and E9 check WCS against: at or above it (less
// the cycles core's dead reservations leave uncharged), and equal to it
// wherever that seed certifies. With mixed capacitances Energy still prices
// each job at its interval's speed, but the result is no longer a bound.
package yds

import (
	"fmt"
	"sort"

	"repro/internal/power"
	"repro/internal/task"
)

// Job is one schedulable unit: w cycles available at R, due at D.
type Job struct {
	Release  float64
	Deadline float64
	Work     float64 // cycles
	Ceff     float64 // effective capacitance for energy accounting
	Label    string
}

// Interval is one critical interval of the optimal schedule: all jobs
// assigned to it run at the same Speed (cycles per ms). Index[k] is the
// position of Jobs[k] in the slice Build was given.
type Interval struct {
	Start, End float64
	Speed      float64
	Jobs       []Job
	Index      []int
}

// Schedule is the YDS result.
type Schedule struct {
	Intervals []Interval
}

// FromTaskSet expands a task set over one hyper-period into worst-case jobs.
func FromTaskSet(set *task.Set) ([]Job, error) {
	instances, err := set.Instances()
	if err != nil {
		return nil, err
	}
	jobs := make([]Job, len(instances))
	for i, in := range instances {
		t := &set.Tasks[in.TaskIndex]
		jobs[i] = Job{
			Release:  in.Release,
			Deadline: in.Deadline,
			Work:     t.WCEC,
			Ceff:     t.Ceff,
			Label:    in.ID(set),
		}
	}
	return jobs, nil
}

// Build computes the optimal continuous-speed schedule by repeated
// critical-interval extraction. Complexity is O(n³) in the number of jobs,
// fine for hyper-period-sized job sets.
func Build(jobs []Job) (*Schedule, error) {
	for i, j := range jobs {
		if j.Work < 0 {
			return nil, fmt.Errorf("yds: job %d has negative work %g", i, j.Work)
		}
		if j.Deadline <= j.Release {
			return nil, fmt.Errorf("yds: job %d has empty window [%g, %g]", i, j.Release, j.Deadline)
		}
	}
	remaining := append([]Job(nil), jobs...)
	ids := make([]int, len(jobs)) // ids[k] is remaining[k]'s position in jobs
	for i := range ids {
		ids[i] = i
	}
	var out Schedule

	for len(remaining) > 0 {
		z1, z2, speed := criticalInterval(remaining)
		if speed <= 0 {
			// Only zero-work jobs remain; they consume no energy.
			break
		}
		iv := Interval{Start: z1, End: z2, Speed: speed}
		// Move the critical jobs into the interval and compress time for the
		// rest: windows overlapping [z1, z2] shrink by the overlap; times
		// after z2 shift left. The filter runs in place, writing slot k only
		// after reading it.
		next, nextIDs := remaining[:0], ids[:0]
		for k, j := range remaining {
			if j.Release >= z1 && j.Deadline <= z2 {
				iv.Jobs = append(iv.Jobs, j)
				iv.Index = append(iv.Index, ids[k])
				continue
			}
			j.Release = compress(j.Release, z1, z2)
			j.Deadline = compress(j.Deadline, z1, z2)
			next = append(next, j)
			nextIDs = append(nextIDs, ids[k])
		}
		out.Intervals = append(out.Intervals, iv)
		remaining, ids = next, nextIDs
		// Interval Start/End after the first extraction live in compressed
		// time; they are kept for ordering and diagnostics only. Energy and
		// feasibility depend solely on Speed and Jobs, which compression
		// does not alter.
	}
	sort.Slice(out.Intervals, func(a, b int) bool {
		return out.Intervals[a].Start < out.Intervals[b].Start
	})
	return &out, nil
}

// compress maps an original-time coordinate through removal of [z1, z2].
func compress(t, z1, z2 float64) float64 {
	switch {
	case t <= z1:
		return t
	case t >= z2:
		return t - (z2 - z1)
	default:
		return z1
	}
}

// criticalInterval scans all release/deadline pairs for the interval with
// maximum intensity: Σ work of fully contained jobs / length.
func criticalInterval(jobs []Job) (z1, z2, speed float64) {
	points := make([]float64, 0, 2*len(jobs))
	for _, j := range jobs {
		points = append(points, j.Release, j.Deadline)
	}
	sort.Float64s(points)
	points = dedupe(points)

	best := -1.0
	for a := 0; a < len(points); a++ {
		for b := a + 1; b < len(points); b++ {
			lo, hi := points[a], points[b]
			var work float64
			for _, j := range jobs {
				if j.Release >= lo && j.Deadline <= hi {
					work += j.Work
				}
			}
			if work <= 0 {
				continue
			}
			g := work / (hi - lo)
			if g > best {
				best = g
				z1, z2 = lo, hi
			}
		}
	}
	if best <= 0 {
		return 0, 0, 0
	}
	return z1, z2, best
}

func dedupe(xs []float64) []float64 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// Energy evaluates the schedule's energy on processor model m: every job in
// an interval runs at the interval speed, i.e. at the lowest voltage whose
// cycle rate reaches the speed. If an interval's speed exceeds the model's
// maximum rate, the job set is infeasible on m and an error is returned.
func (s *Schedule) Energy(m power.Model) (float64, error) {
	var total float64
	maxRate := 1 / m.CycleTime(m.VMax())
	for _, iv := range s.Intervals {
		if iv.Speed > maxRate*(1+1e-9) {
			return 0, fmt.Errorf("yds: interval [%g, %g] needs speed %g > max %g",
				iv.Start, iv.End, iv.Speed, maxRate)
		}
		v := m.VoltageForCycleTime(1 / iv.Speed)
		for _, j := range iv.Jobs {
			total += power.Energy(j.Ceff, v, j.Work)
		}
	}
	return total, nil
}
