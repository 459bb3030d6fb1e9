package core_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/workload"
)

// codecSet returns a small feasible set for codec tests.
func codecSet(t *testing.T, seed uint64, n int) *task.Set {
	t.Helper()
	rng := stats.NewRNG(seed)
	set, err := workload.RandomFeasible(rng, workload.RandomConfig{
		N: n, Ratio: 0.5, Utilization: 0.7,
	}, 50, func(s *task.Set) bool { return core.Feasible(s, core.Config{}) == nil })
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// codecModels returns one instance of every encodable model family.
func codecModels(t *testing.T) map[string]power.Model {
	t.Helper()
	si, err := power.NewSimpleInverse(1, 0.6, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	al, err := power.NewAlpha(0.2, 0.3, 1.5, 0.7, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	di, err := power.NewDiscrete(si, []float64{0.8, 1.5, 2.5, 4.0})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]power.Model{"simple": si, "alpha": al, "discrete": di}
}

// TestCodecRoundTripCompilesIdentically is the codec's core contract: for a
// solved schedule of every model family and both objectives,
// decode(encode(s)) compiles to a bit-identical sim plan, verifies like the
// original, and re-encodes to the identical bytes (canonical form).
func TestCodecRoundTripCompilesIdentically(t *testing.T) {
	for name, model := range codecModels(t) {
		for _, obj := range []core.Objective{core.AverageCase, core.WorstCase} {
			for _, seed := range []uint64{3} {
				set := codecSet(t, seed, 3)
				s, err := core.Build(set, core.Config{Objective: obj, Model: model, MaxSweeps: 8})
				if err != nil {
					t.Fatalf("%s/%v/%d: build: %v", name, obj, seed, err)
				}
				blob, err := core.EncodeSchedule(s)
				if err != nil {
					t.Fatalf("%s/%v/%d: encode: %v", name, obj, seed, err)
				}
				dec, err := core.DecodeSchedule(blob)
				if err != nil {
					t.Fatalf("%s/%v/%d: decode: %v", name, obj, seed, err)
				}
				if err := dec.Verify(1e-9); err != nil {
					t.Errorf("%s/%v/%d: decoded schedule fails Verify: %v", name, obj, seed, err)
				}
				if dec.Energy != s.Energy || dec.Sweeps != s.Sweeps || dec.Objective != s.Objective {
					t.Errorf("%s/%v/%d: scalars did not round-trip", name, obj, seed)
				}
				p1, err := sim.Compile(s)
				if err != nil {
					t.Fatalf("%s/%v/%d: compile original: %v", name, obj, seed, err)
				}
				p2, err := sim.Compile(dec)
				if err != nil {
					t.Fatalf("%s/%v/%d: compile decoded: %v", name, obj, seed, err)
				}
				if !reflect.DeepEqual(p1, p2) {
					t.Errorf("%s/%v/%d: decoded schedule compiles to a different plan", name, obj, seed)
				}
				again, err := core.EncodeSchedule(dec)
				if err != nil {
					t.Fatalf("%s/%v/%d: re-encode: %v", name, obj, seed, err)
				}
				if !bytes.Equal(blob, again) {
					t.Errorf("%s/%v/%d: encoding is not canonical: re-encode differs", name, obj, seed)
				}
			}
		}
	}
}

// TestCodecRejectsDamage: every truncation of a valid blob, a bit flip in
// every byte, and trailing garbage must all return an error — never a panic
// and never a silently different schedule.
func TestCodecRejectsDamage(t *testing.T) {
	set := codecSet(t, 5, 3)
	s, err := core.Build(set, core.Config{Objective: core.AverageCase})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := core.EncodeSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(blob); n++ {
		if _, err := core.DecodeSchedule(blob[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}
	if _, err := core.DecodeSchedule(append(append([]byte{}, blob...), 0)); err == nil {
		t.Fatal("trailing byte decoded without error")
	}
	// The plan-order flag is the word before the objective and the energy.
	// Every record carries 0 (rate-monotonic); a record with the retired EDF
	// order's 1 must not decode into the RM plan.
	var tail [16]byte
	binary.LittleEndian.PutUint64(tail[:8], uint64(s.Objective))
	binary.LittleEndian.PutUint64(tail[8:], math.Float64bits(s.Energy))
	at := bytes.Index(blob, tail[:]) - 8
	if at < 0 || !bytes.Equal(blob[at:at+8], make([]byte, 8)) {
		t.Fatal("plan-order flag not found before the objective")
	}
	edf := append([]byte{}, blob...)
	edf[at] = 1
	if _, err := core.DecodeSchedule(edf); err == nil {
		t.Fatal("a record with the plan-order flag set decoded without error")
	}
	flips := 0
	for i := range blob {
		mut := append([]byte{}, blob...)
		mut[i] ^= 0x40
		dec, err := core.DecodeSchedule(mut)
		if err != nil {
			continue
		}
		flips++
		// A flip the decoder accepts (it landed in a float payload) must still
		// produce a structurally consistent schedule that re-encodes to the
		// mutated bytes, not the original.
		if again, err := core.EncodeSchedule(dec); err == nil && bytes.Equal(again, blob) && !bytes.Equal(mut, blob) {
			t.Fatalf("flip at byte %d decoded back to the original content", i)
		}
	}
	t.Logf("%d/%d single-byte flips decoded (float payloads)", flips, len(blob))
}

// TestEncodeRefusesHandBuiltPlans: a schedule whose plan is not exactly what
// preempt.BuildWith derives from its task set and options must be refused,
// because the decoder re-derives the plan and would silently return a
// different schedule.
func TestEncodeRefusesHandBuiltPlans(t *testing.T) {
	set := codecSet(t, 9, 3)
	s, err := core.Build(set, core.Config{Objective: core.WorstCase})
	if err != nil {
		t.Fatal(err)
	}
	mutated := core.CloneSchedule(s)
	mutated.Plan.Subs[0].SegEnd += 1e-3
	if _, err := core.EncodeSchedule(mutated); err == nil {
		t.Fatal("encode accepted a schedule whose plan BuildWith does not reproduce")
	}
}

// FuzzDecodeSchedule hammers the decoder with mutated blobs. Two invariants:
// the decoder never panics (the fuzz engine catches that for free), and any
// input it accepts is in canonical form — re-encoding the result reproduces
// the input bytes exactly. Together these pin "decode ∘ encode = identity on
// the accepted set", which is what lets the disk store treat blob equality
// as content equality.
func FuzzDecodeSchedule(f *testing.F) {
	for _, seed := range []uint64{3, 17} {
		rng := stats.NewRNG(seed)
		set, err := workload.RandomFeasible(rng, workload.RandomConfig{
			N: 3, Ratio: 0.5, Utilization: 0.7,
		}, 50, func(s *task.Set) bool { return core.Feasible(s, core.Config{}) == nil })
		if err != nil {
			f.Fatal(err)
		}
		for _, obj := range []core.Objective{core.AverageCase, core.WorstCase} {
			s, err := core.Build(set, core.Config{Objective: obj})
			if err != nil {
				f.Fatal(err)
			}
			blob, err := core.EncodeSchedule(s)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(blob)
		}
	}
	f.Add([]byte("schedv1\x00"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := core.DecodeSchedule(data)
		if err != nil {
			return
		}
		again, err := core.EncodeSchedule(s)
		if err != nil {
			t.Fatalf("decoded schedule does not re-encode: %v", err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("accepted input is not canonical: re-encode differs")
		}
	})
}

// TestCheckInstances pins the plan-size bound at its edge: periods 1 and
// 4095 expand to exactly 4096 instances per hyper-period and pass, periods
// 1 and 4096 to 4097 and fail, as do the primes 2971 and 2999 (5,970).
func TestCheckInstances(t *testing.T) {
	for _, c := range []struct {
		periods []int64
		ok      bool
	}{
		{[]int64{1, 4095}, true},
		{[]int64{1, 4096}, false},
		{[]int64{2971, 2999}, false},
	} {
		var tasks []task.Task
		for i, p := range c.periods {
			tasks = append(tasks, task.Task{Name: string(rune('a' + i)), Period: p, WCEC: 1, ACEC: 1, BCEC: 1, Ceff: 1})
		}
		set, err := task.NewSet(tasks)
		if err != nil {
			t.Fatal(err)
		}
		if err := core.CheckInstances(set); (err == nil) != c.ok {
			t.Errorf("periods %v: CheckInstances = %v, want ok %v", c.periods, err, c.ok)
		}
	}
}
