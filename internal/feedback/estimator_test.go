package feedback

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/workload"
)

func testSet(t *testing.T) *task.Set {
	t.Helper()
	rng := stats.NewRNG(5)
	set, err := workload.Random(rng, workload.RandomConfig{N: 3, Ratio: 0.25, Utilization: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestTaskEstimatorMoments(t *testing.T) {
	var e TaskEstimator
	rng := stats.NewRNG(1)
	var xs []float64
	for i := 0; i < 500; i++ {
		x := rng.Uniform(0, 10)
		xs = append(xs, x)
		e.Observe(x)
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var ss float64
	mn, mx := xs[0], xs[0]
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
		mn = math.Min(mn, x)
		mx = math.Max(mx, x)
	}
	if math.Abs(e.Mean()-mean) > 1e-9 {
		t.Errorf("mean %g, want %g", e.Mean(), mean)
	}
	if math.Abs(e.Variance()-ss/float64(len(xs))) > 1e-9 {
		t.Errorf("variance %g, want %g", e.Variance(), ss/float64(len(xs)))
	}
	if e.Min() != mn || e.Max() != mx {
		t.Errorf("min/max (%g, %g), want (%g, %g)", e.Min(), e.Max(), mn, mx)
	}
	if e.Count() != 500 {
		t.Errorf("count %d, want 500", e.Count())
	}
	e.Reset()
	if e.Count() != 0 || e.Mean() != 0 {
		t.Error("reset left state behind")
	}
}

func TestSetEstimatorAdaptedSet(t *testing.T) {
	set := testSet(t)
	se := NewSetEstimator(set)
	// Feed task 0 heavily toward BCEC; leave task 2 under-observed.
	taskOf := []int{0, 0, 1}
	for i := 0; i < 20; i++ {
		if err := se.ObserveInstances(taskOf, []float64{
			set.Tasks[0].BCEC, set.Tasks[0].BCEC, set.Tasks[1].WCEC,
		}); err != nil {
			t.Fatal(err)
		}
	}
	adapted, err := se.AdaptedSet(5)
	if err != nil {
		t.Fatal(err)
	}
	if got := adapted.Tasks[0].ACEC; got != set.Tasks[0].BCEC {
		t.Errorf("task 0 adapted ACEC %g, want BCEC %g", got, set.Tasks[0].BCEC)
	}
	if got := adapted.Tasks[1].ACEC; got != set.Tasks[1].WCEC {
		t.Errorf("task 1 adapted ACEC %g, want WCEC %g", got, set.Tasks[1].WCEC)
	}
	if got := adapted.Tasks[2].ACEC; got != set.Tasks[2].ACEC {
		t.Errorf("unobserved task 2 moved its ACEC to %g", got)
	}
	if adapted.Tasks[0].WCEC != set.Tasks[0].WCEC || adapted.Tasks[0].BCEC != set.Tasks[0].BCEC {
		t.Error("adaptation touched the worst/best-case model")
	}
	if err := se.ObserveInstances([]int{0}, []float64{1, 2}); err == nil {
		t.Error("mismatched observation row accepted")
	}
	if err := se.ObserveInstances([]int{9}, []float64{1}); err == nil {
		t.Error("out-of-range task accepted")
	}
}
