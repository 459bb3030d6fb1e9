package task

import (
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestInstancesCountAndWindows(t *testing.T) {
	s, err := NewSet([]Task{valid("a", 10), valid("b", 20)})
	if err != nil {
		t.Fatal(err)
	}
	ins, err := s.Instances()
	if err != nil {
		t.Fatal(err)
	}
	// H = 20: task a has 2 instances, task b has 1.
	if len(ins) != 3 {
		t.Fatalf("got %d instances, want 3", len(ins))
	}
	for _, in := range ins {
		p := float64(s.Tasks[in.TaskIndex].Period)
		if in.Deadline-in.Release != p {
			t.Errorf("instance %v window length %g != period %g", in, in.Deadline-in.Release, p)
		}
		if in.Release != float64(in.Number)*p {
			t.Errorf("instance %v release mismatch", in)
		}
	}
}

func TestInstancesOrdering(t *testing.T) {
	s, err := NewSet([]Task{valid("lo", 20), valid("hi", 10)})
	if err != nil {
		t.Fatal(err)
	}
	ins, err := s.Instances()
	if err != nil {
		t.Fatal(err)
	}
	// At release 0, the higher-priority (shorter-period) task comes first.
	if s.Tasks[ins[0].TaskIndex].Name != "hi" {
		t.Errorf("first instance is %s", s.Tasks[ins[0].TaskIndex].Name)
	}
	for i := 1; i < len(ins); i++ {
		if ins[i].Release < ins[i-1].Release {
			t.Fatal("instances not sorted by release")
		}
	}
}

// TestInstancesPartitionProperty: per task, instances tile [0, H) without
// gaps or overlaps.
func TestInstancesPartitionProperty(t *testing.T) {
	pool := []int64{10, 20, 25, 50, 100}
	rng := stats.NewRNG(9)
	if err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%5) + 1
		tasks := make([]Task, n)
		for i := range tasks {
			tasks[i] = Task{Period: pool[rng.Intn(len(pool))], WCEC: 1, ACEC: 1, BCEC: 1, Ceff: 1}
		}
		s, err := NewSet(tasks)
		if err != nil {
			return false
		}
		h, _ := s.Hyperperiod()
		ins, err := s.Instances()
		if err != nil {
			return false
		}
		next := make([]float64, s.N())
		counts := make([]int, s.N())
		for _, in := range ins {
			if in.Release != next[in.TaskIndex] {
				return false
			}
			next[in.TaskIndex] = in.Deadline
			counts[in.TaskIndex]++
		}
		for i := range counts {
			if next[i] != float64(h) || int64(counts[i]) != h/s.Tasks[i].Period {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestInstanceID(t *testing.T) {
	s, _ := NewSet([]Task{valid("a", 10)})
	ins, _ := s.Instances()
	if got := ins[0].ID(s); got != "a#0" {
		t.Errorf("ID = %q", got)
	}
}
