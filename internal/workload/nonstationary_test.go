package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"repro/internal/stats"
	"repro/internal/task"
)

func scenarioSet(t *testing.T) *task.Set {
	t.Helper()
	rng := stats.NewRNG(42)
	set, err := Random(rng, RandomConfig{N: 4, Ratio: 0.25, Utilization: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// taskOfInstances builds the instance→task mapping the preemptive plan hands
// to consumers, straight from the task model.
func taskOfInstances(t *testing.T, set *task.Set) []int {
	t.Helper()
	ins, err := set.Instances()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, len(ins))
	for i := range ins {
		out[i] = ins[i].TaskIndex
	}
	return out
}

// TestScenarioDeterminismAndChunkIndependence pins the generator contract:
// equal seeds give byte-identical streams, random access agrees with
// sequential generation (chunk boundaries are invisible), and different
// seeds give different streams.
func TestScenarioDeterminismAndChunkIndependence(t *testing.T) {
	set := scenarioSet(t)
	taskOf := taskOfInstances(t, set)
	for _, kind := range []ScenarioKind{Stationary, ModeSwitch, DriftingMean, BurstyTail} {
		sc1, err := NewScenario(set, ScenarioConfig{Kind: kind, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		sc2, err := NewScenario(set, ScenarioConfig{Kind: kind, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		a, err := sc1.Actuals(60, taskOf)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sc2.Actuals(60, taskOf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: equal seeds produced different streams", kind)
		}
		// Random access at an arbitrary h matches the sequential stream.
		row := make([]float64, len(taskOf))
		for _, h := range []int{0, 17, 59} {
			if err := sc1.FillActuals(h, taskOf, row); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(row, a[h]) {
				t.Errorf("%v: random access at h=%d differs from sequential generation", kind, h)
			}
		}
		scOther, err := NewScenario(set, ScenarioConfig{Kind: kind, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		c, err := scOther.Actuals(60, taskOf)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%v: different seeds produced identical streams", kind)
		}
	}
}

// TestScenarioActualsPinned pins the bytes of each kind's stream: a SHA-256
// over the float64 bits (little-endian, row by row) of 120 hyper-periods at
// seed 7, with regimes short enough (CI's adaptsim lengths) that the mode
// switch and the drift reach their alternate mean inside the window. Session
// replays and every adaptive-experiment table are built from these draws, so
// a change to a regime constant or to the draw order moves them.
func TestScenarioActualsPinned(t *testing.T) {
	set := scenarioSet(t)
	taskOf := taskOfInstances(t, set)
	want := map[ScenarioKind]string{
		Stationary:   "bb069fe6e3fde95b1c23d97afe05fec1b22edcb45f8ff5a5b011b9294fc056ca",
		ModeSwitch:   "093e618e2ef3d031ac94d9c9b5b81eb0003a27079f2cce65b162ba922c4ee744",
		DriftingMean: "c17040e633c21ccdd3c393bf7022e4b9bd6ed91751715c836420da26f2ac5966",
		BurstyTail:   "cf129526ab47c358ede6c61058eadcb75eb0eec1eeae3e1b89774e2f44412844",
	}
	for _, kind := range []ScenarioKind{Stationary, ModeSwitch, DriftingMean, BurstyTail} {
		sc, err := NewScenario(set, ScenarioConfig{Kind: kind, Seed: 7, SwitchEvery: 40, DriftOver: 60})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := sc.Actuals(120, taskOf)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var buf [8]byte
		for _, row := range rows {
			for _, x := range row {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
				h.Write(buf[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[kind] {
			t.Errorf("%v: actuals hash %s, want %s", kind, got, want[kind])
		}
	}
}

// TestScenarioFeasibilityEnvelope: every draw of every kind stays inside its
// task's [BCEC, WCEC] support — the invariant that makes any scenario safe
// under any worst-case-feasible schedule.
func TestScenarioFeasibilityEnvelope(t *testing.T) {
	set := scenarioSet(t)
	taskOf := taskOfInstances(t, set)
	for _, kind := range []ScenarioKind{Stationary, ModeSwitch, DriftingMean, BurstyTail} {
		sc, err := NewScenario(set, ScenarioConfig{Kind: kind, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := sc.Actuals(200, taskOf)
		if err != nil {
			t.Fatal(err)
		}
		for h, row := range rows {
			for i, x := range row {
				tk := &set.Tasks[taskOf[i]]
				if x < tk.BCEC || x > tk.WCEC {
					t.Fatalf("%v: h=%d instance %d draw %g outside [%g, %g]",
						kind, h, i, x, tk.BCEC, tk.WCEC)
				}
			}
		}
	}
}

// TestScenarioRegimeStructure checks the regime ground truth each kind
// promises: mode switches alternate, drift interpolates monotonically and
// saturates, stationary never moves, and the empirical mean of each regime
// tracks MeanFrac.
func TestScenarioRegimeStructure(t *testing.T) {
	set := scenarioSet(t)
	taskOf := taskOfInstances(t, set)

	st, err := NewScenario(set, ScenarioConfig{Kind: Stationary, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []int{0, 100, 999} {
		if st.MeanFrac(h) != 0.5 {
			t.Errorf("stationary MeanFrac(%d) = %g, want 0.5", h, st.MeanFrac(h))
		}
	}

	ms, err := NewScenario(set, ScenarioConfig{Kind: ModeSwitch, Seed: 1, SwitchEvery: 50})
	if err != nil {
		t.Fatal(err)
	}
	if ms.MeanFrac(0) != 0.5 || ms.MeanFrac(49) != 0.5 {
		t.Error("modeswitch regime A should sit at baseFrac")
	}
	if ms.MeanFrac(50) != 0.85 || ms.MeanFrac(99) != 0.85 {
		t.Error("modeswitch regime B should sit at altFrac")
	}
	if ms.MeanFrac(100) != 0.5 {
		t.Error("modeswitch should return to regime A")
	}

	dr, err := NewScenario(set, ScenarioConfig{Kind: DriftingMean, Seed: 1, DriftOver: 100})
	if err != nil {
		t.Fatal(err)
	}
	prev := dr.MeanFrac(0)
	if prev != 0.5 {
		t.Errorf("drift starts at %g, want 0.5", prev)
	}
	for h := 1; h <= 100; h++ {
		f := dr.MeanFrac(h)
		if f < prev {
			t.Fatalf("drift toward a higher altFrac fell at h=%d", h)
		}
		prev = f
	}
	if got := dr.MeanFrac(100); got != 0.85 {
		t.Errorf("drift endpoint %g, want 0.85", got)
	}
	if dr.MeanFrac(500) != 0.85 {
		t.Error("drift should hold altFrac after DriftOver")
	}

	// Empirical regime means track the ground truth (σ/√n puts 0.02 of the
	// span well outside noise for a 50-hyper-period regime).
	rows, err := ms.Actuals(100, taskOf)
	if err != nil {
		t.Fatal(err)
	}
	meanFracOf := func(lo, hi int) float64 {
		var sum, n float64
		for h := lo; h < hi; h++ {
			for i, x := range rows[h] {
				tk := &set.Tasks[taskOf[i]]
				sum += (x - tk.BCEC) / (tk.WCEC - tk.BCEC)
				n++
			}
		}
		return sum / n
	}
	if got := meanFracOf(0, 50); math.Abs(got-0.5) > 0.03 {
		t.Errorf("regime A empirical mean frac %g, want ≈0.5", got)
	}
	if got := meanFracOf(50, 100); math.Abs(got-0.85) > 0.03 {
		t.Errorf("regime B empirical mean frac %g, want ≈0.85", got)
	}
}

// TestScenarioBurstyTail: bursts exist, are contiguous, and the heavy tail
// shows up as near-WCEC draws outside bursts.
func TestScenarioBurstyTail(t *testing.T) {
	set := scenarioSet(t)
	sc, err := NewScenario(set, ScenarioConfig{Kind: BurstyTail, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	horizon := 400
	burst := 0
	for h := 0; h < horizon; h++ {
		if sc.MeanFrac(h) == 0.85 {
			burst++
		}
	}
	if burst == 0 {
		t.Fatal("no burst hyper-periods in 400 — burstProb broken")
	}
	if burst == horizon {
		t.Fatal("every hyper-period in a burst")
	}
}

func TestScenarioValidation(t *testing.T) {
	set := scenarioSet(t)
	if _, err := NewScenario(nil, ScenarioConfig{}); err == nil {
		t.Error("nil set accepted")
	}
	if _, err := NewScenario(set, ScenarioConfig{Kind: ScenarioKind(99)}); err == nil {
		t.Error("unknown kind accepted")
	}
	sc, err := NewScenario(set, ScenarioConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.FillActuals(0, []int{0, 1}, make([]float64, 3)); err == nil {
		t.Error("mismatched buffer length accepted")
	}
	if err := sc.FillActuals(0, []int{99}, make([]float64, 1)); err == nil {
		t.Error("out-of-range task index accepted")
	}
	for _, name := range []string{"stationary", "modeswitch", "drift", "bursty"} {
		k, err := ParseScenarioKind(name)
		if err != nil || k.String() != name {
			t.Errorf("ParseScenarioKind(%q) round-trip failed: %v %v", name, k, err)
		}
	}
	if _, err := ParseScenarioKind("nope"); err == nil {
		t.Error("unknown kind name parsed")
	}
}
