package preempt

import (
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/task"
)

func mkTask(name string, period int64) task.Task {
	return task.Task{Name: name, Period: period, WCEC: 10, ACEC: 5, BCEC: 1, Ceff: 1}
}

func mustSet(t *testing.T, tasks ...task.Task) *task.Set {
	t.Helper()
	s, err := task.NewSet(tasks)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPaperFigure34 reproduces the §3.1 example: three tasks with periods
// 3, 6 and 9 (hyper-period 18) expand so that lower-priority instances are
// split at every higher-priority release inside their window, and the total
// order starts T1,0 T2,0 T3,0 T1,1 T3,1 ...
func TestPaperFigure34(t *testing.T) {
	set := mustSet(t, mkTask("T1", 3), mkTask("T2", 6), mkTask("T3", 9))
	s, err := Build(set)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// T3's first instance [0,9) is cut by releases at 3 and 6 → 3 pieces.
	t3first := s.ByInstance[instanceIndex(t, s, "T3", 0)]
	if len(t3first) != 3 {
		t.Fatalf("T3#0 has %d pieces, want 3", len(t3first))
	}
	// T2's first instance [0,6) is cut at 3 → 2 pieces.
	t2first := s.ByInstance[instanceIndex(t, s, "T2", 0)]
	if len(t2first) != 2 {
		t.Fatalf("T2#0 has %d pieces, want 2", len(t2first))
	}
	// Total order prefix: T1 then T2 then T3 at time 0; at the release
	// time 3, T1's next instance first, then the continuation pieces of T2
	// and T3 in priority order.
	ids := make([]string, 6)
	for i := 0; i < 6; i++ {
		ids[i] = s.Subs[i].ID(set)
	}
	want := []string{"T1,0,0", "T2,0,0", "T3,0,0", "T1,1,0", "T2,0,1", "T3,0,1"}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("order %v, want prefix %v", ids, want)
		}
	}
}

func instanceIndex(t *testing.T, s *Schedule, name string, number int) int {
	t.Helper()
	for idx, in := range s.Instances {
		if s.Set.Tasks[in.TaskIndex].Name == name && in.Number == number {
			return idx
		}
	}
	t.Fatalf("instance %s#%d not found", name, number)
	return -1
}

func TestNoPreemptionForEqualPeriods(t *testing.T) {
	set := mustSet(t, mkTask("a", 10), mkTask("b", 10), mkTask("c", 10))
	s, err := Build(set)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Subs) != 3 {
		t.Fatalf("equal-priority tasks must not preempt each other: %d pieces", len(s.Subs))
	}
}

func TestHighestPriorityNeverSplit(t *testing.T) {
	set := mustSet(t, mkTask("hi", 10), mkTask("lo", 40))
	s, err := Build(set)
	if err != nil {
		t.Fatal(err)
	}
	for idx, positions := range s.ByInstance {
		if s.Set.Tasks[s.Instances[idx].TaskIndex].Name == "hi" && len(positions) != 1 {
			t.Fatalf("highest-priority instance split into %d pieces", len(positions))
		}
	}
	// The low-priority instance [0,40) is cut at 10, 20, 30 → 4 pieces.
	lo := s.ByInstance[instanceIndex(t, s, "lo", 0)]
	if len(lo) != 4 {
		t.Fatalf("lo#0 has %d pieces, want 4", len(lo))
	}
}

func TestSubInstanceCap(t *testing.T) {
	set := mustSet(t, mkTask("hi", 10), mkTask("lo", 80))
	for _, capN := range []int{1, 2, 3, 8} {
		s, err := BuildWith(set, Options{MaxSubsPerInstance: capN})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("cap %d: %v", capN, err)
		}
		// Pieces of every instance must still tile the full window.
		for idx, positions := range s.ByInstance {
			if len(positions) > capN {
				t.Errorf("cap %d: instance %d has %d pieces", capN, idx, len(positions))
			}
			in := s.Instances[idx]
			if s.Subs[positions[0]].SegStart != in.Release {
				t.Errorf("cap %d: first piece starts at %g, want %g",
					capN, s.Subs[positions[0]].SegStart, in.Release)
			}
			if s.Subs[positions[len(positions)-1]].SegEnd != in.Deadline {
				t.Errorf("cap %d: last piece ends at %g, want %g",
					capN, s.Subs[positions[len(positions)-1]].SegEnd, in.Deadline)
			}
		}
	}
}

func TestBuildRejectsNil(t *testing.T) {
	if _, err := Build(nil); err == nil {
		t.Error("nil set accepted")
	}
}

// TestExpansionInvariants is the structural property test: for random sets,
// the expansion validates, covers every instance, and orders pieces by
// segment start.
func TestExpansionInvariants(t *testing.T) {
	pool := []int64{10, 20, 25, 40, 50, 100, 200}
	rng := stats.NewRNG(14)
	if err := quick.Check(func(nRaw, capRaw uint8) bool {
		n := int(nRaw%8) + 1
		capN := int(capRaw % 6) // 0 = unlimited
		tasks := make([]task.Task, n)
		for i := range tasks {
			tasks[i] = task.Task{Period: pool[rng.Intn(len(pool))], WCEC: 5, ACEC: 3, BCEC: 1, Ceff: 1}
		}
		set, err := task.NewSet(tasks)
		if err != nil {
			return false
		}
		s, err := BuildWith(set, Options{MaxSubsPerInstance: capN})
		if err != nil {
			return false
		}
		if err := s.Validate(); err != nil {
			return false
		}
		// Each instance covered exactly once, segments tiling its window.
		for idx, positions := range s.ByInstance {
			in := s.Instances[idx]
			cursor := in.Release
			for _, pos := range positions {
				if s.Subs[pos].SegStart != cursor {
					return false
				}
				cursor = s.Subs[pos].SegEnd
			}
			if cursor != in.Deadline {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSegmentsAlignWithHPReleases: every interior segment boundary of an
// instance coincides with a strictly-higher-priority release.
func TestSegmentsAlignWithHPReleases(t *testing.T) {
	set := mustSet(t, mkTask("a", 10), mkTask("b", 25), mkTask("c", 50))
	s, err := Build(set)
	if err != nil {
		t.Fatal(err)
	}
	for idx, positions := range s.ByInstance {
		in := s.Instances[idx]
		for k := 1; k < len(positions); k++ {
			cut := s.Subs[positions[k]].SegStart
			found := false
			for _, other := range s.Instances {
				if other.Release == cut &&
					s.Set.Tasks[other.TaskIndex].Period < s.Set.Tasks[in.TaskIndex].Period {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("instance %d cut at %g matches no higher-priority release", idx, cut)
			}
		}
	}
}

func TestSubInstanceID(t *testing.T) {
	set := mustSet(t, mkTask("a", 10), mkTask("b", 20))
	s, err := Build(set)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Subs[0].ID(set); got != "a,0,0" {
		t.Errorf("ID = %q", got)
	}
}
