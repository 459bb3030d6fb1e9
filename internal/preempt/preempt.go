// Package preempt constructs the fully-preemptive schedule of the paper
// (§3.1, Figs. 3 and 4): every task instance in one hyper-period is split at
// every release of a strictly-higher-priority task inside its scheduling
// window, producing the complete set of sub-instances a preemptive execution
// could ever create, together with their total execution order.
//
// The total order sorts sub-instances by segment start time and, within a
// time, by priority — exactly the order the paper derives for Fig. 4
// (T₁,₁,₁ < T₂,₁,₁ < T₃,₁,₁ < T₁,₂,₁ < T₃,₁,₂ < …). Downstream, the order is
// the backbone of the NLP chaining constraints and of the runtime
// dispatcher.
package preempt

import (
	"fmt"
	"sort"

	"repro/internal/task"
)

// SubInstance is one preemption-delimited piece of a task instance: the unit
// the NLP assigns an end-time and a worst-case workload to (paper notation
// T_{i,j,k}).
type SubInstance struct {
	// TaskIndex indexes the RM-ordered task set.
	TaskIndex int
	// InstanceNumber is the release index of the parent instance.
	InstanceNumber int
	// SubIndex is k: the zero-based position among the parent's pieces.
	SubIndex int
	// Release is the parent instance's absolute release time (ms). A
	// sub-instance may never start before it.
	Release float64
	// Deadline is the parent instance's absolute deadline (ms). A
	// sub-instance may never end after it.
	Deadline float64
	// SegStart and SegEnd delimit the fully-preemptive segment that created
	// this piece: SegStart is the later of the parent release and the
	// previous higher-priority release; SegEnd is the next higher-priority
	// release (or the parent deadline for the last piece). They order the
	// pieces; the NLP may move actual execution within [Release, Deadline].
	SegStart float64
	SegEnd   float64
	// InstanceIndex is the position of the parent in the flat instance list
	// (used to group pieces of the same instance).
	InstanceIndex int
}

// Schedule is the fully-preemptive expansion of a task set over one
// hyper-period.
type Schedule struct {
	Set       *task.Set
	Instances []task.Instance
	// Subs lists every sub-instance in total execution order.
	Subs []SubInstance
	// ByInstance maps an instance index to the (ascending) positions of its
	// sub-instances within Subs.
	ByInstance [][]int
	// Hyperperiod is the schedule horizon in ms.
	Hyperperiod float64
	// Opts records the options the schedule was built with (the
	// sub-instance cap), so a decoded schedule rebuilds the same plan.
	Opts Options
}

// Options tunes the expansion.
type Options struct {
	// MaxSubsPerInstance caps the number of pieces any single instance may
	// be split into; 0 means unlimited. When the cap binds, the *shortest*
	// segments are merged into their successors first, preserving the total
	// order. The E6 ablation sweeps this cap; the paper's experiments bound
	// task sets at one thousand sub-instances in total.
	MaxSubsPerInstance int
}

// Build expands set into its fully-preemptive schedule with default options.
func Build(set *task.Set) (*Schedule, error) { return BuildWith(set, Options{}) }

// BuildWith expands set into its fully-preemptive schedule.
func BuildWith(set *task.Set, opts Options) (*Schedule, error) {
	if set == nil || set.N() == 0 {
		return nil, fmt.Errorf("preempt: nil or empty task set")
	}
	h, err := set.Hyperperiod()
	if err != nil {
		return nil, err
	}
	instances, err := set.Instances()
	if err != nil {
		return nil, err
	}
	s := &Schedule{
		Set:         set,
		Instances:   instances,
		ByInstance:  make([][]int, len(instances)),
		Hyperperiod: float64(h),
		Opts:        opts,
	}

	for idx, in := range instances {
		cuts := preemptionPoints(set, instances, idx)
		bounds := append([]float64{in.Release}, cuts...)
		bounds = append(bounds, in.Deadline)
		if opts.MaxSubsPerInstance > 0 {
			bounds = capSegments(bounds, opts.MaxSubsPerInstance)
		}
		for k := 0; k+1 < len(bounds); k++ {
			s.Subs = append(s.Subs, SubInstance{
				TaskIndex:      in.TaskIndex,
				InstanceNumber: in.Number,
				SubIndex:       k,
				Release:        in.Release,
				Deadline:       in.Deadline,
				SegStart:       bounds[k],
				SegEnd:         bounds[k+1],
				InstanceIndex:  idx,
			})
		}
	}

	s.sortTotalOrder()
	for pos, su := range s.Subs {
		s.ByInstance[su.InstanceIndex] = append(s.ByInstance[su.InstanceIndex], pos)
	}
	// Re-number SubIndex in final order so k counts execution order within
	// the instance even after merging.
	for _, positions := range s.ByInstance {
		for k, pos := range positions {
			s.Subs[pos].SubIndex = k
		}
	}
	return s, nil
}

// preemptionPoints returns the strictly-interior release times of
// higher-priority work within the window of instance idx, ascending and
// deduplicated.
func preemptionPoints(set *task.Set, instances []task.Instance, idx int) []float64 {
	in := instances[idx]
	seen := map[float64]bool{}
	var cuts []float64
	for jdx, other := range instances {
		if jdx == idx {
			continue
		}
		if other.Release <= in.Release || other.Release >= in.Deadline {
			continue
		}
		if !higherPriority(set, instances, jdx, idx) {
			continue
		}
		if !seen[other.Release] {
			seen[other.Release] = true
			cuts = append(cuts, other.Release)
		}
	}
	sort.Float64s(cuts)
	return cuts
}

// higherPriority reports whether instance a strictly outranks instance b
// under rate-monotonic priorities.
func higherPriority(set *task.Set, instances []task.Instance, a, b int) bool {
	ia, ib := instances[a], instances[b]
	pa := set.Tasks[ia.TaskIndex].Period
	pb := set.Tasks[ib.TaskIndex].Period
	if pa != pb {
		return pa < pb
	}
	// Same period ⇒ same RM priority (paper §2.1); equal-priority releases
	// do not preempt, so neither outranks the other.
	return false
}

// capSegments merges the shortest interior segments until at most maxSegs
// remain. bounds has length segments+1 and is ascending; the first and last
// bound (release and deadline) are never removed.
func capSegments(bounds []float64, maxSegs int) []float64 {
	for len(bounds)-1 > maxSegs {
		// Find the shortest segment and delete its *ending* interior bound,
		// merging it into the successor. The last segment's end is the
		// deadline, which must stay; merge it into its predecessor instead.
		short, si := bounds[1]-bounds[0], 0
		for i := 0; i+1 < len(bounds); i++ {
			if l := bounds[i+1] - bounds[i]; l < short {
				short, si = l, i
			}
		}
		cut := si + 1
		if cut == len(bounds)-1 {
			cut = si // merge final segment into predecessor
		}
		if cut == 0 {
			cut = 1 // never remove the release bound
		}
		bounds = append(bounds[:cut], bounds[cut+1:]...)
	}
	return bounds
}

// sortTotalOrder arranges Subs into the fully-preemptive total order:
// ascending segment start; at equal starts, higher priority first; pieces of
// one instance keep ascending segment order by construction.
func (s *Schedule) sortTotalOrder() {
	sort.SliceStable(s.Subs, func(i, j int) bool {
		a, b := s.Subs[i], s.Subs[j]
		if a.SegStart != b.SegStart {
			return a.SegStart < b.SegStart
		}
		if a.InstanceIndex == b.InstanceIndex {
			return a.SegStart < b.SegStart // equal; keep stable order
		}
		// Priority comparison mirrors higherPriority but on sub-instances.
		pa := s.Set.Tasks[a.TaskIndex].Period
		pb := s.Set.Tasks[b.TaskIndex].Period
		if pa != pb {
			return pa < pb
		}
		return a.TaskIndex < b.TaskIndex
	})
}

// ID renders the paper's T_{i,j,k} notation, e.g. "T3,0,1".
func (su SubInstance) ID(set *task.Set) string {
	return fmt.Sprintf("%s,%d,%d", set.Tasks[su.TaskIndex].Name, su.InstanceNumber, su.SubIndex)
}

// Validate checks the structural invariants the rest of the system relies
// on; it is called by tests and by the core scheduler in debug paths.
func (s *Schedule) Validate() error {
	if len(s.Subs) == 0 {
		return fmt.Errorf("preempt: schedule has no sub-instances")
	}
	prevStart := -1.0
	for i, su := range s.Subs {
		if su.SegStart < su.Release-1e-9 || su.SegEnd > su.Deadline+1e-9 {
			return fmt.Errorf("preempt: sub %d segment [%g,%g] escapes window [%g,%g]",
				i, su.SegStart, su.SegEnd, su.Release, su.Deadline)
		}
		if su.SegEnd <= su.SegStart {
			return fmt.Errorf("preempt: sub %d has empty segment [%g,%g]", i, su.SegStart, su.SegEnd)
		}
		if su.SegStart < prevStart {
			return fmt.Errorf("preempt: total order violated at position %d", i)
		}
		prevStart = su.SegStart
	}
	for idx, positions := range s.ByInstance {
		if len(positions) == 0 {
			return fmt.Errorf("preempt: instance %d has no sub-instances", idx)
		}
		for k := 1; k < len(positions); k++ {
			if positions[k] <= positions[k-1] {
				return fmt.Errorf("preempt: instance %d pieces out of order", idx)
			}
			a := s.Subs[positions[k-1]]
			b := s.Subs[positions[k]]
			if b.SegStart < a.SegEnd-1e-9 {
				return fmt.Errorf("preempt: instance %d pieces overlap (%g < %g)",
					idx, b.SegStart, a.SegEnd)
			}
		}
	}
	return nil
}
