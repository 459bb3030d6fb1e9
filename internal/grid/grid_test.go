package grid

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/preempt"
	"repro/internal/sim"
	"repro/internal/task"
)

func testSet(t testing.TB) *task.Set {
	t.Helper()
	set, err := task.NewSet([]task.Task{
		{Name: "a", Period: 10, WCEC: 4, ACEC: 2, BCEC: 1, Ceff: 1},
		{Name: "b", Period: 20, WCEC: 6, ACEC: 3, BCEC: 2, Ceff: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// withRatio returns a copy of set whose tasks have BCEC = ratio·WCEC and
// ACEC the mean of BCEC and WCEC: the same worst-case fields, other
// average-case ones.
func withRatio(t testing.TB, set *task.Set, ratio float64) *task.Set {
	t.Helper()
	ts := append([]task.Task(nil), set.Tasks...)
	for i := range ts {
		ts[i].BCEC = ratio * ts[i].WCEC
		ts[i].ACEC = 0.5 * (ts[i].BCEC + ts[i].WCEC)
	}
	out, err := task.NewSet(ts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestForEachRunsEveryJobOnceBounded(t *testing.T) {
	r := New(4, nil)
	const n = 100
	var ran [n]atomic.Int32
	var active, peak atomic.Int32
	r.ForEach(n, func(i int) {
		if a := active.Add(1); a > peak.Load() {
			peak.Store(a)
		}
		ran[i].Add(1)
		active.Add(-1)
	})
	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Fatalf("job %d ran %d times", i, got)
		}
	}
	if p := peak.Load(); p > 4 {
		t.Errorf("peak concurrency %d exceeds pool width 4", p)
	}
}

func TestCollectOrdersResultsByIndex(t *testing.T) {
	r := New(8, nil)
	out := Collect(r, 50, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("slot %d holds %d, want %d", i, v, i*i)
		}
	}
}

func TestCollectErrFailsFast(t *testing.T) {
	const workers = 2
	r := New(workers, nil)
	var started atomic.Int32
	running := make(chan struct{})
	_, err := CollectErr(r, 1000, func(i int) (int, error) {
		started.Add(1)
		switch {
		case i < 3:
			return i, nil
		case i == 3:
			close(running)
		default:
			// Job 3 was handed out before any later job; wait until it runs,
			// so its failure is recorded and, as the lowest, returned.
			<-running
		}
		return 0, fmt.Errorf("job %d failed", i)
	})
	if err == nil || err.Error() != "job 3 failed" {
		t.Fatalf("err = %v, want job 3's failure", err)
	}
	// Every job from 3 on fails, and a worker records its failure before it
	// takes another index, so each worker starts at most one of them. (With
	// one failing job the other worker could still drain every index while
	// the failing one stalls between its job's return and that record.)
	if n, most := started.Load(), int32(3+workers); n > most {
		t.Errorf("%d jobs started despite failures from job 3 on, want at most %d", n, most)
	}

	// Success path: every result present, in order.
	out, err := CollectErr(r, 20, func(i int) (int, error) { return i * 2, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*2 {
			t.Fatalf("slot %d holds %d", i, v)
		}
	}
}

func TestScheduleKeyContract(t *testing.T) {
	set := testSet(t)
	base := core.Config{Objective: core.AverageCase}
	k0, ok := ScheduleKey(set, base)
	if !ok {
		t.Fatal("base config not hashable")
	}

	// Equal configs share a key.
	if k1, _ := ScheduleKey(set, base); k1 != k0 {
		t.Error("equal configs produced different keys")
	}

	// Defaulted and explicit forms share a key.
	explicit := base
	explicit.Model = power.DefaultModel()
	explicit.MaxSweeps = 100
	explicit.StartSeed = 2005
	if k1, _ := ScheduleKey(set, explicit); k1 != k0 {
		t.Error("explicitly-defaulted config keys apart from the zero config")
	}

	// Result-irrelevant knobs are excluded: StartWorkers, Starts 0 vs 1,
	// ScenarioSeed while Scenarios == 0, StartSeed while Starts <= 1.
	for name, cfg := range map[string]core.Config{
		"StartWorkers":         {Objective: core.AverageCase, StartWorkers: 7},
		"Starts=1":             {Objective: core.AverageCase, Starts: 1},
		"dormant ScenarioSeed": {Objective: core.AverageCase, ScenarioSeed: 99},
		"dormant StartSeed":    {Objective: core.AverageCase, StartSeed: 77},
	} {
		if k1, _ := ScheduleKey(set, cfg); k1 != k0 {
			t.Errorf("%s changed the key but cannot change the solve", name)
		}
	}

	// A WCS never reads the scenario fields, so they are dormant on a
	// WorstCase config under both keys.
	for name, key := range map[string]func(*task.Set, core.Config) (Key, bool){
		"ScheduleKey": ScheduleKey, "wcsKey": wcsKey,
	} {
		plain, _ := key(set, core.Config{Objective: core.WorstCase})
		scen, _ := key(set, core.Config{Objective: core.WorstCase, Scenarios: 5, ScenarioSeed: 99})
		if scen != plain {
			t.Errorf("%s: scenario fields split a WorstCase key", name)
		}
	}

	// Result-relevant fields split keys.
	diff := map[string]core.Config{
		"Objective": {Objective: core.WorstCase},
		"MaxSweeps": {Objective: core.AverageCase, MaxSweeps: 7},
		"Preempt":   {Objective: core.AverageCase, Preempt: preempt.Options{MaxSubsPerInstance: 2}},
		"Scenarios": {Objective: core.AverageCase, Scenarios: 5},
		"Starts":    {Objective: core.AverageCase, Starts: 3},
		"StartSeed": {Objective: core.AverageCase, Starts: 3, StartSeed: 77},
	}
	seen := map[Key]string{k0: "base"}
	for name, cfg := range diff {
		k, ok := ScheduleKey(set, cfg)
		if !ok {
			t.Fatalf("%s config not hashable", name)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("%s config collides with %s", name, prev)
		}
		seen[k] = name
	}

	// A different task set splits the key.
	if k1, _ := ScheduleKey(withRatio(t, set, 0.9), base); k1 == k0 {
		t.Error("different task sets share a key")
	}

	// An unknown model implementation is not cacheable.
	if _, ok := ScheduleKey(set, core.Config{Model: unknownModel{}}); ok {
		t.Error("unknown model hashed as cacheable")
	}
}

// TestScheduleKeyPinned pins literal keys. A key is the wire form of a
// fingerprint, a store path and a fleet routing key, so any change to the
// bytes the hasher writes must show here as a reviewed diff. The set and the
// warm start are fixed by hand (the key hashes a warm start's content and
// never solves it), so no solver change can move these values; a change
// to the solver's output moves them through the key's domain version
// instead ("schedule/v2" since WCS starts at its YDS seed). It also bounds
// the allocations of one ScheduleKey, plain and warm.
func TestScheduleKeyPinned(t *testing.T) {
	set, err := task.NewSet([]task.Task{
		{Name: "alpha", Period: 10, WCEC: 2, ACEC: 1.25, BCEC: 0.5, Ceff: 1},
		{Name: "beta", Period: 20, WCEC: 4, ACEC: 2.5, BCEC: 1, Ceff: 1.5},
		{Name: "gamma", Period: 40, WCEC: 6, ACEC: 3, BCEC: 2, Ceff: 0.75},
		{Name: "delta", Period: 80, WCEC: 8, ACEC: 5, BCEC: 3, Ceff: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := preempt.Build(set)
	if err != nil {
		t.Fatal(err)
	}
	n := len(plan.Subs)
	warm := &core.Schedule{Plan: plan, Model: power.DefaultModel(), Objective: core.WorstCase,
		End: make([]float64, n), WCWork: make([]float64, n), AvgWork: make([]float64, n)}
	for i := range plan.Subs {
		warm.End[i] = plan.Subs[i].SegEnd
		warm.WCWork[i] = 0.125 * float64(i+1)
	}
	plain := core.Config{Objective: core.WorstCase}
	warmCfg := core.Config{Objective: core.AverageCase, WarmStart: warm}
	key := func(cfg core.Config) Key {
		k, ok := ScheduleKey(set, cfg)
		if !ok {
			t.Fatal("a known model hashed as uncacheable")
		}
		return k
	}
	plainKey, warmKey := key(plain), key(warmCfg)
	cmpKey, ok := CompareKey(plainKey.String(), sim.Config{Policy: sim.Greedy, Hyperperiods: 20, Seed: 7})
	if !ok {
		t.Fatal("a plain sim config hashed as uncacheable")
	}
	for _, c := range []struct{ name, got, want string }{
		{"ScheduleKey", plainKey.String(), "8d5bec5ebfe9fe068e4dd7a3499b058ea929c48a065be733d472d3a7b1b0856c"},
		{"ScheduleKey with a warm start", warmKey.String(), "c0fa4dedb618cfb12aca48d2aa69f8726fe7050f90f455560f611bbc853f797f"},
		{"CompareKey", cmpKey.String(), "83ec076893bf03e329d6d9534373e4a7a5817310a7be209ec5cf927f0006095e"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, pinned %s", c.name, c.got, c.want)
		}
	}
	for name, cfg := range map[string]core.Config{"plain": plain, "warm": warmCfg} {
		if a := testing.AllocsPerRun(50, func() { ScheduleKey(set, cfg) }); a > 6 {
			t.Errorf("%s ScheduleKey allocates %v times, want at most 6", name, a)
		}
	}
}

// TestScheduleKeyUncappedSubCap pins that every non-positive
// MaxSubsPerInstance shares the zero cap's key: the expansion caps pieces
// only for a positive value, so a negative cap is uncapped too.
func TestScheduleKeyUncappedSubCap(t *testing.T) {
	set := testSet(t)
	key := func(capN int) Key {
		k, ok := ScheduleKey(set, core.Config{Preempt: preempt.Options{MaxSubsPerInstance: capN}})
		if !ok {
			t.Fatalf("cap %d not hashable", capN)
		}
		return k
	}
	uncapped := key(0)
	for _, capN := range []int{-1, -12} {
		if key(capN) != uncapped {
			t.Errorf("cap %d keys apart from the uncapped config", capN)
		}
	}
	if key(2) == uncapped {
		t.Error("a positive cap shares the uncapped key")
	}
}

// TestCompareKeyContract pins what a simulated comparison is keyed on: the
// request fingerprint and the run-relevant sim.Config fields, never the
// worker count or the context, and nothing at all for a config carrying a
// function value.
func TestCompareKeyContract(t *testing.T) {
	const fp = "f00d"
	base := sim.Config{Policy: sim.Greedy, Hyperperiods: 20, Seed: 7}
	k0, ok := CompareKey(fp, base)
	if !ok {
		t.Fatal("base config not hashable")
	}
	scoped := base
	scoped.Workers = 4
	scoped.Ctx = context.Background()
	if k1, _ := CompareKey(fp, scoped); k1 != k0 {
		t.Error("Workers/Ctx changed the key but cannot change the result")
	}
	seen := map[Key]string{k0: "base"}
	for name, c := range map[string]struct {
		fp  string
		cfg sim.Config
	}{
		"fingerprint":  {"beef", base},
		"Policy":       {fp, sim.Config{Policy: sim.Static, Hyperperiods: 20, Seed: 7}},
		"Hyperperiods": {fp, sim.Config{Policy: sim.Greedy, Hyperperiods: 21, Seed: 7}},
		"Seed":         {fp, sim.Config{Policy: sim.Greedy, Hyperperiods: 20, Seed: 8}},
		"Overhead":     {fp, sim.Config{Policy: sim.Greedy, Hyperperiods: 20, Seed: 7, Overhead: sim.Overhead{EnergyPerSwitch: 1}}},
	} {
		k, ok := CompareKey(c.fp, c.cfg)
		if !ok {
			t.Fatalf("%s config not hashable", name)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("%s variant collides with %s", name, prev)
		}
		seen[k] = name
	}
	withDist := base
	withDist.Dist = sim.UniformDist
	if _, ok := CompareKey(fp, withDist); ok {
		t.Error("a config with Dist hashed as cacheable")
	}
}

type unknownModel struct{}

func (unknownModel) CycleTime(v float64) float64            { return 1 / v }
func (unknownModel) VoltageForCycleTime(tc float64) float64 { return 1 / tc }
func (unknownModel) VMin() float64                          { return 0.5 }
func (unknownModel) VMax() float64                          { return 2 }

// TestConfigFieldsGuard pins the field sets the cache key contract was
// written against. If this test fails, a field was added to core.Config,
// preempt.Options, task.Task or sim.Config: decide whether it affects solve
// or simulation results, extend ScheduleKey or CompareKey (and DESIGN.md
// §6) accordingly, then update the lists.
func TestConfigFieldsGuard(t *testing.T) {
	want := map[string][]string{
		// ctx is excluded from ScheduleKey by design: it scopes the work
		// (cancellation), never the result, and cancelled builds are not
		// cached at all. initBlend is set only on solveMultiStart's
		// per-start configs, which never reach a key, and tol only by core's
		// own tests; the key writes its constant 1e-6.
		"core.Config": {"Model", "Objective", "MaxSweeps",
			"Preempt", "WarmStart", "Scenarios", "ScenarioSeed", "Starts",
			"StartWorkers", "StartSeed", "initBlend", "tol", "ctx"},
		"preempt.Options": {"MaxSubsPerInstance"},
		"task.Task":       {"Name", "Period", "WCEC", "ACEC", "BCEC", "Ceff"},
		// sim.Config is guarded for CompareKey, which memoizes simulated
		// comparisons: it hashes Policy, Hyperperiods, Seed and the three
		// Overhead fields; a Dist makes the config uncacheable (function
		// values have no canonical encoding); Workers/Ctx are wall-clock scoped
		// and stay out (results are bit-identical for any worker count);
		// reference is test-only. A new field must join the key or be
		// shown not to change a Result. The guard also covers an indirect
		// hazard: the feedback subsystem's adaptive re-solves are keyed
		// through ScheduleKey on the *adapted task set* (ACEC moves,
		// WCEC/BCEC do not), so a sim-side knob that influenced solve
		// inputs would have to be routed into the task set or core.Config
		// — never smuggled through simulation state.
		"sim.Config": {"Policy", "Hyperperiods", "Seed", "Overhead", "Dist",
			"Workers", "Ctx", "reference"},
	}
	types := map[string]reflect.Type{
		"core.Config":     reflect.TypeOf(core.Config{}),
		"preempt.Options": reflect.TypeOf(preempt.Options{}),
		"task.Task":       reflect.TypeOf(task.Task{}),
		"sim.Config":      reflect.TypeOf(sim.Config{}),
	}
	for name, typ := range types {
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			got = append(got, typ.Field(i).Name)
		}
		if !reflect.DeepEqual(got, want[name]) {
			t.Errorf("%s fields changed: got %v, want %v — revisit ScheduleKey before updating",
				name, got, want[name])
		}
	}
}

func TestMemoScheduleHitAndMiss(t *testing.T) {
	set := testSet(t)
	memo := NewMemo()
	r := New(2, memo)

	cfg := core.Config{Objective: core.AverageCase}
	s1, err := r.BuildSchedule(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := r.BuildSchedule(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("cache hit returned a different schedule for equal configs")
	}
	if st := memo.Stats(); st.ScheduleHits != 1 || st.ScheduleMisses != 1 {
		t.Errorf("stats after hit: %+v, want 1 hit 1 miss", st)
	}

	other := cfg
	other.MaxSweeps = 7
	s3, err := r.BuildSchedule(set, other)
	if err != nil {
		t.Fatal(err)
	}
	if s3 == s1 {
		t.Error("differing configs shared a cache entry")
	}
	if st := memo.Stats(); st.ScheduleMisses != 2 {
		t.Errorf("stats after differing config: %+v, want 2 misses", st)
	}

	// Cache off (nil memo): fresh solves, equal content.
	bare := New(2, nil)
	s4, err := bare.BuildSchedule(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s4 == s1 {
		t.Error("nil-memo runner returned a cached pointer")
	}
	if !reflect.DeepEqual(s4.End, s1.End) || !reflect.DeepEqual(s4.WCWork, s1.WCWork) {
		t.Error("uncached solve differs from cached solve: solve is not pure")
	}
}

// TestMemoScheduleSingleflight: concurrent requests for one uncached key
// build exactly once.
func TestMemoScheduleSingleflight(t *testing.T) {
	set := testSet(t)
	memo := NewMemo()
	r := New(8, memo)
	var wg sync.WaitGroup
	got := make([]*core.Schedule, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = r.BuildSchedule(set, core.Config{Objective: core.AverageCase})
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(got); i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent builds for one key returned distinct schedules")
		}
	}
	if st := memo.Stats(); st.ScheduleMisses != 1 {
		t.Errorf("concurrent singleflight built %d times", st.ScheduleMisses)
	}
}

// TestWorstCaseKeySharesWCS: WorstCase builds of sets that differ only in
// ACEC and BCEC share one memo entry. A hit built for other ACEC comes back
// retargeted, byte-equal to a direct build of the caller's set and as good a
// warm start; a hit built for the caller's own content is the cached
// schedule itself; an infeasible set's cached error answers its variants
// with a direct build's text; and concurrent variants meet on one build.
func TestWorstCaseKeySharesWCS(t *testing.T) {
	encode := func(s *core.Schedule) []byte {
		t.Helper()
		b, err := core.EncodeSchedule(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	wcsCfg := core.Config{Objective: core.WorstCase}
	base := testSet(t)
	variant := withRatio(t, base, 0.9)
	memo := NewMemo()
	r := New(1, memo)
	first, err := r.BuildSchedule(base, wcsCfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.BuildSchedule(variant, wcsCfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := memo.Stats(); st.ScheduleMisses != 1 || st.ScheduleHits != 1 {
		t.Fatalf("two ACEC variants: %d misses, %d hits; want 1 and 1", st.ScheduleMisses, st.ScheduleHits)
	}
	want, err := core.Build(variant, wcsCfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Plan.Set != variant || !bytes.Equal(encode(got), encode(want)) {
		t.Error("the variant's hit is not its own direct build")
	}
	acsCfg := core.Config{Objective: core.AverageCase, WarmStart: got}
	fromGot, err := core.Build(variant, acsCfg)
	if err != nil {
		t.Fatal(err)
	}
	acsCfg.WarmStart = want
	fromWant, err := core.Build(variant, acsCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(fromGot), encode(fromWant)) {
		t.Error("ACS warm-started from the hit differs from one warm-started from a direct build")
	}

	same, err := task.NewSet(base.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := r.BuildSchedule(same, wcsCfg); err != nil || again != first {
		t.Errorf("a hit for the cached set's own content is not the cached schedule (err %v)", err)
	}

	bad, err := task.NewSet([]task.Task{
		{Name: "a", Period: 10, WCEC: 40, ACEC: 20, BCEC: 10, Ceff: 1},
		{Name: "b", Period: 20, WCEC: 8, ACEC: 4, BCEC: 2, Ceff: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	badVariant := withRatio(t, bad, 0.9)
	_, direct := core.Build(badVariant, wcsCfg)
	if direct == nil {
		t.Fatal("the over-utilised set built")
	}
	if _, err := r.BuildSchedule(bad, wcsCfg); err == nil {
		t.Fatal("the over-utilised set built through the memo")
	}
	before := memo.Stats()
	_, cached := r.BuildSchedule(badVariant, wcsCfg)
	if cached == nil || cached.Error() != direct.Error() {
		t.Errorf("cached error %v, want a direct build's %v", cached, direct)
	}
	if st := memo.Stats(); st.ScheduleHits != before.ScheduleHits+1 || st.ScheduleMisses != before.ScheduleMisses {
		t.Errorf("the infeasible variant was not a hit: %+v", st)
	}

	variants := make([]*task.Set, 8)
	wants := make([][]byte, len(variants))
	for i := range variants {
		variants[i] = withRatio(t, base, 0.1*float64(i+1))
		w, err := core.Build(variants[i], wcsCfg)
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = encode(w)
	}
	memo = NewMemo()
	r = New(1, memo)
	gots := make([]*core.Schedule, len(variants))
	var wg sync.WaitGroup
	for i := range variants {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gots[i], _ = r.BuildSchedule(variants[i], wcsCfg)
		}(i)
	}
	wg.Wait()
	for i, s := range gots {
		if s == nil || !bytes.Equal(encode(s), wants[i]) {
			t.Errorf("concurrent variant %d is not its direct build", i)
		}
	}
	if st := memo.Stats(); st.ScheduleMisses != 1 {
		t.Errorf("%d concurrent ACEC variants built %d times, want once", len(variants), st.ScheduleMisses)
	}
}
