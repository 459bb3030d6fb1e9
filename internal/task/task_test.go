package task

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func valid(name string, period int64) Task {
	return Task{Name: name, Period: period, WCEC: 10, ACEC: 5, BCEC: 1, Ceff: 1}
}

func TestTaskValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Task)
	}{
		{"zero period", func(x *Task) { x.Period = 0 }},
		{"negative period", func(x *Task) { x.Period = -5 }},
		{"zero WCEC", func(x *Task) { x.WCEC = 0 }},
		{"negative BCEC", func(x *Task) { x.BCEC = -1 }},
		{"BCEC > WCEC", func(x *Task) { x.BCEC = 11 }},
		{"ACEC below BCEC", func(x *Task) { x.ACEC = 0.5 }},
		{"ACEC above WCEC", func(x *Task) { x.ACEC = 11 }},
		{"zero Ceff", func(x *Task) { x.Ceff = 0 }},
	}
	for _, c := range cases {
		x := valid("t", 10)
		c.mut(&x)
		if err := x.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	x := valid("ok", 10)
	if err := x.Validate(); err != nil {
		t.Errorf("valid task rejected: %v", err)
	}
}

func TestNewSetOrdersByRMPriority(t *testing.T) {
	s, err := NewSet([]Task{valid("slow", 40), valid("fast", 10), valid("mid", 20)})
	if err != nil {
		t.Fatal(err)
	}
	got := []string{s.Tasks[0].Name, s.Tasks[1].Name, s.Tasks[2].Name}
	want := []string{"fast", "mid", "slow"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestNewSetStableForEqualPeriods(t *testing.T) {
	s, err := NewSet([]Task{valid("a", 20), valid("b", 20), valid("c", 10)})
	if err != nil {
		t.Fatal(err)
	}
	if s.Tasks[1].Name != "a" || s.Tasks[2].Name != "b" {
		t.Errorf("equal-period order not stable: %v, %v", s.Tasks[1].Name, s.Tasks[2].Name)
	}
}

func TestNewSetRejections(t *testing.T) {
	if _, err := NewSet(nil); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := NewSet([]Task{valid("x", 10), valid("x", 20)}); err == nil {
		t.Error("duplicate names accepted")
	}
	bad := valid("bad", 10)
	bad.WCEC = 0
	if _, err := NewSet([]Task{bad}); err == nil {
		t.Error("invalid task accepted")
	}
}

func TestNewSetAutoNames(t *testing.T) {
	s, err := NewSet([]Task{{Period: 10, WCEC: 1, ACEC: 1, BCEC: 1, Ceff: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Tasks[0].Name == "" {
		t.Error("auto-name not assigned")
	}
}

func TestHyperperiod(t *testing.T) {
	s, err := NewSet([]Task{valid("a", 10), valid("b", 25), valid("c", 40)})
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Hyperperiod()
	if err != nil {
		t.Fatal(err)
	}
	if h != 200 {
		t.Errorf("H = %d, want 200", h)
	}
}

func TestHyperperiodOverflow(t *testing.T) {
	// Large mutually prime periods overflow int64 quickly.
	primes := []int64{1000003, 1000033, 1000037, 1000039, 1000081, 1000099, 1000117}
	tasks := make([]Task, len(primes))
	for i, p := range primes {
		tasks[i] = valid(strings.Repeat("x", i+1), p)
	}
	if _, err := NewSet(tasks); err == nil {
		t.Error("overflowing hyper-period accepted")
	}
}

// TestHyperperiodDividesAllPeriods is a property test: H is a common
// multiple of every period drawn from the default pool.
func TestHyperperiodDividesAllPeriods(t *testing.T) {
	pool := []int64{10, 20, 25, 40, 50, 100, 200}
	rng := stats.NewRNG(6)
	if err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%6) + 1
		tasks := make([]Task, n)
		for i := range tasks {
			tasks[i] = valid(strings.Repeat("t", i+1), pool[rng.Intn(len(pool))])
		}
		s, err := NewSet(tasks)
		if err != nil {
			return false
		}
		h, err := s.Hyperperiod()
		if err != nil {
			return false
		}
		for _, tk := range s.Tasks {
			if h%tk.Period != 0 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestUtilizationAndScale(t *testing.T) {
	s, err := NewSet([]Task{valid("a", 10), valid("b", 20)})
	if err != nil {
		t.Fatal(err)
	}
	// WCEC 10 each: U = 10·tc/10 + 10·tc/20 = 1.5·tc.
	if u := s.UtilizationAt(0.2); math.Abs(u-0.3) > 1e-12 {
		t.Errorf("U = %g, want 0.3", u)
	}
	s2, err := s.ScaleWCEC(2)
	if err != nil {
		t.Fatal(err)
	}
	if u := s2.UtilizationAt(0.2); math.Abs(u-0.6) > 1e-12 {
		t.Errorf("scaled U = %g, want 0.6", u)
	}
	// Scaling preserves ratios.
	if s2.Tasks[0].ACEC != 10 || s2.Tasks[0].BCEC != 2 {
		t.Errorf("scaled ACEC/BCEC = %g/%g", s2.Tasks[0].ACEC, s2.Tasks[0].BCEC)
	}
	if _, err := s.ScaleWCEC(0); err == nil {
		t.Error("zero scale accepted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s, err := NewSet([]Task{valid("a", 40), valid("b", 10)})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Set
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.N() != 2 || back.Tasks[0].Name != "b" {
		t.Errorf("round trip lost ordering: %+v", back.Tasks)
	}
}

func TestJSONRejectsInvalid(t *testing.T) {
	var s Set
	if err := json.Unmarshal([]byte(`{"tasks":[{"name":"x","period_ms":-1,"wcec":1,"acec":1,"bcec":1,"ceff":1}]}`), &s); err == nil {
		t.Error("invalid JSON task accepted")
	}
}

func TestSetString(t *testing.T) {
	s, _ := NewSet([]Task{valid("a", 10)})
	if got := s.String(); !strings.Contains(got, "H=10ms") {
		t.Errorf("String() = %q", got)
	}
}
