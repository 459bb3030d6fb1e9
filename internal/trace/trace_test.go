package trace

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/workload"
)

func buildSchedule(t *testing.T) *core.Schedule {
	t.Helper()
	rng := stats.NewRNG(3)
	set, err := workload.RandomFeasible(rng, workload.RandomConfig{
		N: 3, Ratio: 0.3, Utilization: 0.7,
	}, 50, func(s *task.Set) bool { return core.Feasible(s, core.Config{}) == nil })
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Build(set, core.Config{Objective: core.AverageCase})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRowsComplete(t *testing.T) {
	s := buildSchedule(t)
	rows := Rows(s)
	if len(rows) != len(s.Plan.Subs) {
		t.Fatalf("%d rows for %d subs", len(rows), len(s.Plan.Subs))
	}
	for i, r := range rows {
		if r.Order != i {
			t.Fatalf("row %d out of order", i)
		}
		if r.End <= 0 && s.WCWork[i] > 0 {
			t.Errorf("row %d has non-positive end", i)
		}
		if r.Task == "" {
			t.Errorf("row %d missing task name", i)
		}
	}
}

func TestCSVHeaderAndShape(t *testing.T) {
	s := buildSchedule(t)
	csv := CSV(s)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if !strings.HasPrefix(lines[0], "order,task,instance,sub,") {
		t.Errorf("header %q", lines[0])
	}
	if len(lines) != len(s.Plan.Subs)+1 {
		t.Errorf("%d lines for %d subs", len(lines), len(s.Plan.Subs))
	}
	for _, l := range lines[1:] {
		if strings.Count(l, ",") != 8 {
			t.Errorf("malformed CSV row %q", l)
		}
	}
}

func TestGanttRender(t *testing.T) {
	s := buildSchedule(t)
	g := Gantt(s, 60)
	if !strings.Contains(g, "ACS") {
		t.Error("Gantt missing objective label")
	}
	lines := strings.Split(strings.TrimSpace(g), "\n")
	// Header + one lane per task + axis.
	if len(lines) != s.Plan.Set.N()+2 {
		t.Errorf("%d lines", len(lines))
	}
	if !strings.Contains(g, "#") {
		t.Error("Gantt has no execution marks")
	}
	// Default width fallback.
	if g0 := Gantt(s, 0); !strings.Contains(g0, "#") {
		t.Error("default width render failed")
	}
}
