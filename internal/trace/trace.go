// Package trace renders static schedules and runtime executions for humans
// and downstream tools: ASCII Gantt charts for terminals, CSV rows for
// plotting.
package trace

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
)

// Row is one sub-instance of a static schedule in exportable form.
type Row struct {
	Order    int     `json:"order"`
	Task     string  `json:"task"`
	Instance int     `json:"instance"`
	Sub      int     `json:"sub"`
	Release  float64 `json:"release_ms"`
	Deadline float64 `json:"deadline_ms"`
	End      float64 `json:"end_ms"`
	WCWork   float64 `json:"wc_work_cycles"`
	AvgWork  float64 `json:"avg_work_cycles"`
}

// Rows flattens a schedule into export rows in total order.
func Rows(s *core.Schedule) []Row {
	out := make([]Row, len(s.Plan.Subs))
	for pos, su := range s.Plan.Subs {
		out[pos] = Row{
			Order:    pos,
			Task:     s.Plan.Set.Tasks[su.TaskIndex].Name,
			Instance: su.InstanceNumber,
			Sub:      su.SubIndex,
			Release:  su.Release,
			Deadline: su.Deadline,
			End:      s.End[pos],
			WCWork:   s.WCWork[pos],
			AvgWork:  s.AvgWork[pos],
		}
	}
	return out
}

// CSV renders the schedule as CSV with a header row.
func CSV(s *core.Schedule) string {
	var b strings.Builder
	b.WriteString("order,task,instance,sub,release_ms,deadline_ms,end_ms,wc_work,avg_work\n")
	for _, r := range Rows(s) {
		fmt.Fprintf(&b, "%d,%s,%d,%d,%g,%g,%g,%g,%g\n",
			r.Order, r.Task, r.Instance, r.Sub, r.Release, r.Deadline, r.End, r.WCWork, r.AvgWork)
	}
	return b.String()
}

// Gantt renders an ASCII Gantt chart of the static worst-case schedule: one
// lane per task, time scaled to width columns over [0, hyper-period]. Each
// sub-instance paints its worst-case execution window (latest start to static
// end).
func Gantt(s *core.Schedule, width int) string {
	if width <= 0 {
		width = 80
	}
	h := s.Plan.Hyperperiod
	scale := func(t float64) int {
		c := int(math.Round(t / h * float64(width)))
		if c < 0 {
			c = 0
		}
		if c > width {
			c = width
		}
		return c
	}

	lanes := make([][]byte, s.Plan.Set.N())
	for i := range lanes {
		lanes[i] = []byte(strings.Repeat(".", width))
	}
	prevEnd := 0.0
	for pos, su := range s.Plan.Subs {
		start := math.Max(prevEnd, su.Release)
		end := s.End[pos]
		prevEnd = end
		if s.WCWork[pos] <= 0 {
			continue
		}
		lane := lanes[su.TaskIndex]
		from, to := scale(start), scale(end)
		if to == from && to < width {
			to++
		}
		for c := from; c < to; c++ {
			lane[c] = '#'
		}
	}

	var b strings.Builder
	nameW := 0
	for _, t := range s.Plan.Set.Tasks {
		if len(t.Name) > nameW {
			nameW = len(t.Name)
		}
	}
	fmt.Fprintf(&b, "%s static schedule, H=%.0fms, energy=%.4g\n", s.Objective, h, s.Energy)
	for i, t := range s.Plan.Set.Tasks {
		fmt.Fprintf(&b, "%-*s |%s|\n", nameW, t.Name, lanes[i])
	}
	fmt.Fprintf(&b, "%-*s 0%s%.0fms\n", nameW, "", strings.Repeat(" ", width-1), h)
	return b.String()
}
