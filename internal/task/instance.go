package task

import (
	"fmt"
	"sort"
)

// Instance is the j-th release of a task within one hyper-period: absolute
// release time j·P and absolute deadline (j+1)·P (paper §2.1: first instance
// of every task released at time zero, relative deadline equal to period).
type Instance struct {
	// TaskIndex is the index of the parent task in the RM-ordered Set.
	TaskIndex int
	// Number is the zero-based release index within the hyper-period.
	Number int
	// Release is the absolute release time in ms.
	Release float64
	// Deadline is the absolute deadline in ms.
	Deadline float64
}

// ID renders a stable identifier such as "T2#3" (task T2, fourth release).
func (in Instance) ID(s *Set) string {
	return fmt.Sprintf("%s#%d", s.Tasks[in.TaskIndex].Name, in.Number)
}

// Instances expands the set over one hyper-period into the full list of task
// instances, ordered by (release, RM priority). Every task contributes
// exactly H/P instances.
func (s *Set) Instances() ([]Instance, error) {
	h, err := s.Hyperperiod()
	if err != nil {
		return nil, err
	}
	var out []Instance
	for i := range s.Tasks {
		p := s.Tasks[i].Period
		n := h / p
		for j := int64(0); j < n; j++ {
			out = append(out, Instance{
				TaskIndex: i,
				Number:    int(j),
				Release:   float64(j * p),
				Deadline:  float64((j + 1) * p),
			})
		}
	}
	sortInstances(out)
	return out, nil
}

// sortInstances orders by release time, then RM priority (lower TaskIndex
// first), then release number — a deterministic total order.
func sortInstances(ins []Instance) {
	sort.Slice(ins, func(i, j int) bool {
		a, b := ins[i], ins[j]
		if a.Release != b.Release {
			return a.Release < b.Release
		}
		if a.TaskIndex != b.TaskIndex {
			return a.TaskIndex < b.TaskIndex
		}
		return a.Number < b.Number
	})
}
