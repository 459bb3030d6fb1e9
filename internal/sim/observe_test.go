package sim

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/stats"
)

// drawActuals draws the workloads Run draws for seed under PaperDist: one
// RNG stream per hyper-period, split from the seed in hyper-period order,
// and one draw per instance in plan order.
func drawActuals(p *CompiledPlan, seed uint64, hyperperiods int) [][]float64 {
	master := stats.NewRNG(seed)
	rows := make([][]float64, hyperperiods)
	for h := range rows {
		var rng stats.RNG
		rng.Reset(master.SplitSeed())
		rows[h] = make([]float64, len(p.bcec))
		for i := range rows[h] {
			rows[h][i] = PaperDist(&rng, p.bcec[i], p.acec[i], p.wcec[i])
		}
	}
	return rows
}

// TestRunActualsMatchesRun replays Run's own draws through RunActuals and
// requires a bit-identical Result under every policy: the external-workload
// path and the drawing path share one dispatcher.
func TestRunActualsMatchesRun(t *testing.T) {
	acs, _ := buildPair(t, 2, 4, 0.5)
	p, err := Compile(acs)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []SlackPolicy{Greedy, Static, NoDVS} {
		cfg := Config{Policy: policy, Hyperperiods: 25, Seed: 7}
		rows := drawActuals(p, cfg.Seed, cfg.Hyperperiods)
		want, err := p.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8} {
			got, err := p.RunActuals(Config{Policy: policy, Workers: workers}, rows)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("policy %v Workers=%d: RunActuals differs from Run on identical workloads", policy, workers)
			}
		}
	}
}

// TestRunActualsChunking pins that splitting a horizon into chunks leaves the
// execution unchanged: chunks are independent experiments, so per-chunk
// scalar aggregates sum to the whole-run values (energy to float tolerance,
// counts exactly).
func TestRunActualsChunking(t *testing.T) {
	acs, _ := buildPair(t, 3, 3, 0.3)
	p, err := Compile(acs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Policy: Greedy, Hyperperiods: 24, Seed: 5}
	rows := drawActuals(p, cfg.Seed, cfg.Hyperperiods)
	whole, err := p.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var energy, busy float64
	var misses, switches int
	for lo := 0; lo < len(rows); lo += 7 {
		hi := lo + 7
		if hi > len(rows) {
			hi = len(rows)
		}
		r, err := p.RunActuals(Config{Policy: Greedy}, rows[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		energy += r.Energy
		busy += r.BusyTime
		misses += r.DeadlineMisses
		switches += r.Switches
	}
	if math.Abs(energy-whole.Energy) > 1e-9*whole.Energy {
		t.Errorf("chunked energy %g, whole-run %g", energy, whole.Energy)
	}
	if math.Abs(busy-whole.BusyTime) > 1e-9*whole.BusyTime {
		t.Errorf("chunked busy time %g, whole-run %g", busy, whole.BusyTime)
	}
	if misses != whole.DeadlineMisses || switches != whole.Switches {
		t.Errorf("chunked counts (%d misses, %d switches) differ from whole run (%d, %d)",
			misses, switches, whole.DeadlineMisses, whole.Switches)
	}
}

func TestRunActualsValidation(t *testing.T) {
	acs, _ := buildPair(t, 4, 3, 0.5)
	p, err := Compile(acs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunActuals(Config{}, [][]float64{make([]float64, p.Instances()+1)}); err == nil {
		t.Error("wrong-width row accepted")
	}
	if _, err := p.RunActuals(Config{Policy: SlackPolicy(99)}, nil); err == nil {
		t.Error("unknown policy accepted")
	}
	r, err := p.RunActuals(Config{}, nil)
	if err != nil || r.Energy != 0 {
		t.Errorf("empty horizon: got (%v, %v), want zero result", r, err)
	}
}
