package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/feedback"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/task"
	"repro/internal/workload"
)

// span is one timed call of the traced replay, as written to -spans.
// Times are nanoseconds since the replay started.
type span struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	Span     int    `json:"span"`
	Parent   int    `json:"parent"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	calls    int    // calls the span covers (a timed loop covers many)
}

// tracer keeps the replay's spans in memory. Every call span is the child
// of one root span per replayed op (layer "bench"); spans of one op share a
// trace id.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	values   map[string][]float64 // per-layer quantities that are not times
	trace    int
	root     int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), values: map[string][]float64{}, root: -1}
}

func (t *tracer) open(parent int, layer, name string) int {
	t.spans = append(t.spans, span{
		Workload: t.workload, Trace: t.trace, Span: len(t.spans), Parent: parent,
		Layer: layer, Name: name, StartNs: time.Since(t.t0).Nanoseconds(), calls: 1,
	})
	return len(t.spans) - 1
}

func (t *tracer) close(id int) { t.spans[id].EndNs = time.Since(t.t0).Nanoseconds() }

// begin opens the root span of a new replayed op; finish closes it.
func (t *tracer) begin(name string) {
	t.trace++
	t.root = t.open(-1, "bench", name)
}

func (t *tracer) finish() { t.close(t.root) }

// call times fn as a child of the current op; the metric name's prefix is
// the layer.
func (t *tracer) call(name string, fn func() error) error {
	id := t.open(t.root, name[:strings.IndexByte(name, '.')], name)
	err := fn()
	t.close(id)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

func (t *tracer) value(name string, v float64) { t.values[name] = append(t.values[name], v) }

// layerStat summarises one per-layer metric: how many calls or events it
// rests on, and their mean and 90th percentile in the metric's unit (p90
// is NaN for values read from the server's /metrics, which has no
// per-event samples).
type layerStat struct {
	n         int
	mean, p90 float64
}

type layerReport map[string]layerStat

// selfTimes folds the spans into per-metric stats: a span's self time is
// its duration minus its children's, divided by the calls it covers.
func (t *tracer) selfTimes(into layerReport) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	per := map[string][]float64{}
	calls := map[string]int{}
	for i, s := range t.spans {
		if s.Parent < 0 {
			continue
		}
		per[s.Name] = append(per[s.Name], float64(s.EndNs-s.StartNs-child[i])/float64(s.calls))
		calls[s.Name] += s.calls
	}
	for _, m := range layers {
		scale, ok := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}[m.Unit]
		xs := per[m.Name]
		if !ok || len(xs) == 0 {
			continue
		}
		for i := range xs {
			xs[i] /= scale
		}
		into[m.Name] = summarize(xs, calls[m.Name])
	}
	for name, xs := range t.values {
		into[name] = summarize(xs, len(xs))
	}
}

func summarize(xs []float64, n int) layerStat {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return layerStat{n: n, mean: stats.Mean(s), p90: nearestRank(s, 0.9)}
}

// replayInput is what a workload hands the traced replay: its sets (the
// first replaySets drive the heavy layers, every set the light ones), its
// request bodies, and the request type they decode into.
type replayInput struct {
	sets   []*task.Set
	bodies [][]byte
	newReq func() any
	cores  int
	stream func(i int, s *task.Set) (*workload.Scenario, error)
}

// sample is one single-core set the replay solved: its schedules, its
// average-workload trajectory, and the runner whose memo now holds them.
type sample struct {
	set      *task.Set
	runner   *grid.Runner
	wcs, acs *core.Schedule
	avg      []float64
}

var (
	wcsCfg = core.Config{Objective: core.WorstCase}
	acsCfg = core.Config{Objective: core.AverageCase}
)

func warm(wcs *core.Schedule) core.Config {
	c := acsCfg
	c.WarmStart = wcs
	return c
}

// replay calls every layer's public functions, one goroutine, on the
// workload's own inputs, recording a span per call, then derives the
// per-layer metrics and the two residuals. Failures of the replay are
// correctness failures of the run.
func (o *outcome) replay(b *bench, name string, in replayInput) {
	t := newTracer(name)
	err := runReplay(b, t, in)
	o.check("replay", err)
	o.spans = t.spans
	o.layers = layerReport{}
	t.selfTimes(o.layers)
	o.serverLayers(name)
}

func runReplay(b *bench, t *tracer, in replayInput) error {
	ctx := context.Background()
	k := b.sz.replaySets
	if k > len(in.sets) {
		k = len(in.sets)
	}
	pcfg := partition.Config{Cores: max(1, in.cores), Mode: partition.FirstFitDecreasing, Solver: acsCfg}

	// Heavy layers: a fresh partitioned solve of each sample set, then a
	// fresh WCS + warm ACS of every core's subset through a memoized runner.
	var samples []sample
	var resps []any
	for i := 0; i < k; i++ {
		t.begin("replay.solve")
		var res *partition.Result
		err := t.call("partition.solve_ms", func() (err error) {
			res, err = partition.Solve(ctx, grid.New(0, grid.NewMemo()), in.sets[i], pcfg)
			return err
		})
		t.finish()
		if err != nil {
			return err
		}
		for _, cs := range res.Cores {
			if cs.Set == nil {
				continue
			}
			s, err := solveSample(t, cs.Set)
			if err != nil {
				return err
			}
			samples = append(samples, s)
		}
		resps = append(resps, response(in.sets[i], res, samples[len(samples)-1], in.cores))
	}
	if len(samples) == 0 {
		return errors.New("no sets to replay")
	}

	// Light layers: the request path's calls, cycling over the inputs.
	fps := make([]server.SubmitRequest, len(in.sets))
	for i, s := range in.sets {
		fps[i] = server.SubmitRequest{Tasks: s.Tasks, Cores: in.cores}
	}
	for j := 0; j < b.sz.replayCalls; j++ {
		i, s := j%len(in.sets), &samples[j%len(samples)]
		t.begin("replay.request")
		err := errors.Join(
			t.call("server.decode_us", func() error {
				dec := json.NewDecoder(bytes.NewReader(in.bodies[i]))
				dec.DisallowUnknownFields()
				return dec.Decode(in.newReq())
			}),
			t.call("server.fingerprint_us", func() error {
				if _, ok := server.SubmitFingerprint(&fps[i], 0, 0); !ok {
					return errors.New("no fingerprint")
				}
				return nil
			}),
			t.call("partition.admit_us", func() error {
				_, err := partition.Admit(in.sets[i], pcfg)
				return err
			}),
			t.call("core.feasible_us", func() error { return core.Feasible(s.set, wcsCfg) }),
			t.call("grid.memo_hit_us", func() error {
				_, err := s.runner.BuildScheduleContext(ctx, s.set, warm(s.wcs))
				return err
			}),
			t.call("core.wcs_avg_eval_us", func() error {
				_, _, err := s.wcs.EnergyUnder(s.avg)
				return err
			}),
			t.call("server.encode_us", func() error {
				_, err := json.Marshal(resps[j%len(resps)])
				return err
			}),
		)
		var enc []byte
		err = errors.Join(err,
			t.call("core.codec_encode_us", func() (err error) {
				enc, err = core.EncodeSchedule(s.acs)
				return err
			}),
			t.call("core.codec_decode_us", func() error {
				_, err := core.DecodeSchedule(enc)
				return err
			}),
			t.call("sim.compile_us", func() error {
				_, err := sim.Compile(s.acs)
				return err
			}),
		)
		t.finish()
		if err != nil {
			return err
		}
	}

	// The simulated comparison /v1/compare runs, on every sample.
	for i := range samples {
		if err := compareSample(t, &samples[i], max(1, b.sz.replayCalls/20)); err != nil {
			return err
		}
	}

	// Feedback and store: each sample's controller folds its stream until
	// the first re-solve, checkpointing every batch to a disk store the
	// replay opens, reopens (the recovery scan) and reads back.
	dir, err := os.MkdirTemp("", "bench-replay-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var disk *store.Disk
	open := func() error {
		t.begin("replay.store")
		defer t.finish()
		return t.call("store.open_ms", func() (err error) {
			disk, err = store.Open(dir, store.Options{})
			return err
		})
	}
	if err := open(); err != nil {
		return err
	}
	keys := make([]grid.Key, len(samples))
	for i := range samples {
		s := &samples[i]
		key, ok := grid.ScheduleKey(s.set, warm(s.wcs))
		if !ok {
			disk.Close()
			return errors.New("sample schedule has no key")
		}
		keys[i] = key
		t.begin("replay.store")
		err := t.call("store.put_schedule_us", func() error { return disk.TryPutSchedule(key, s.acs, nil) })
		t.finish()
		if err == nil {
			err = feedbackSample(ctx, t, disk, s, i, in.stream)
		}
		if err != nil {
			disk.Close()
			return err
		}
	}
	if err := disk.Close(); err != nil {
		return err
	}
	if err := open(); err != nil {
		return err
	}
	defer disk.Close()
	for j := 0; j < b.sz.replayCalls; j++ {
		t.begin("replay.store")
		err := t.call("store.get_schedule_us", func() error {
			if _, err, ok := disk.GetSchedule(keys[j%len(keys)]); !ok || err != nil {
				return fmt.Errorf("schedule not read back (%v)", err)
			}
			return nil
		})
		t.finish()
		if err != nil {
			return err
		}
	}

	// The cost of the instrumentation itself: one histogram observation.
	const observes = 1_000_000
	h := obs.NewRegistry().Histogram("bench_observe_seconds", "Replay probe.", obs.LatencyBuckets())
	t.begin("replay.obs")
	id := t.open(t.root, "obs", "obs.observe_ns")
	for i := 0; i < observes; i++ {
		h.Observe(float64(i%1000) * 1e-6)
	}
	t.close(id)
	t.spans[id].calls = observes
	t.finish()
	return nil
}

// solveSample solves one single-core set from scratch through a memoized
// runner: the WCS and warm-started ACS builds are memo misses here, and
// the memo-hit probe later reads them back.
func solveSample(t *tracer, set *task.Set) (sample, error) {
	ctx := context.Background()
	s := sample{set: set, runner: grid.New(0, grid.NewMemo())}
	t.begin("replay.core")
	defer t.finish()
	err := t.call("core.wcs_ms", func() (err error) {
		s.wcs, err = s.runner.BuildScheduleContext(ctx, set, wcsCfg)
		return err
	})
	if err != nil {
		return s, err
	}
	if err := t.call("core.acs_ms", func() (err error) {
		s.acs, err = s.runner.BuildScheduleContext(ctx, set, warm(s.wcs))
		return err
	}); err != nil {
		return s, err
	}
	s.avg = make([]float64, len(s.wcs.Plan.Instances))
	for i, ins := range s.wcs.Plan.Instances {
		s.avg[i] = set.Tasks[ins.TaskIndex].ACEC
	}
	wcsAvg, _, err := s.wcs.EnergyUnder(s.avg)
	if err != nil {
		return s, err
	}
	t.value("core.sweeps_mean", float64(s.acs.Sweeps))
	t.value("core.pieces_mean", float64(len(s.acs.Plan.Subs)))
	t.value("core.energy_saving_pct", 100*(wcsAvg-s.acs.Energy)/wcsAvg)
	return s, nil
}

// response assembles the submit response a server would send for set —
// the value server.encode_us marshals.
func response(set *task.Set, res *partition.Result, last sample, cores int) any {
	if cores <= 1 {
		return &server.ScheduleResponse{
			Fingerprint: "replay", Objective: "acs", Tasks: set.N(),
			Pieces: len(last.acs.Plan.Subs), Sweeps: last.acs.Sweeps,
			PredictedEnergy: last.acs.Energy, EndMs: last.acs.End, WCWorkCycles: last.acs.WCWork,
		}
	}
	r := &server.ScheduleResponse{Fingerprint: "replay", Objective: "acs", Tasks: set.N(), Cores: cores, PredictedEnergy: res.Energy}
	for _, cs := range res.Cores {
		pc := server.CoreScheduleResponse{Core: cs.Core, TaskNames: []string{}}
		if sched := cs.Schedule(); sched != nil {
			for _, tk := range cs.Set.Tasks {
				pc.TaskNames = append(pc.TaskNames, tk.Name)
			}
			pc.Fingerprint, pc.Pieces, pc.Sweeps = cs.Key, len(sched.Plan.Subs), sched.Sweeps
			pc.PredictedEnergy, pc.EndMs, pc.WCWorkCycles = sched.Energy, sched.End, sched.WCWork
		}
		r.PerCore = append(r.PerCore, pc)
	}
	return r
}

// compareSample runs the server's comparison — both plans simulated over
// 200 hyper-periods of greedy reclamation — reps times.
func compareSample(t *tracer, s *sample, reps int) error {
	var pa, pb *sim.CompiledPlan
	t.begin("replay.compare")
	err := errors.Join(
		t.call("sim.compile_us", func() (err error) { pa, err = sim.Compile(s.acs); return err }),
		t.call("sim.compile_us", func() (err error) { pb, err = sim.Compile(s.wcs); return err }),
	)
	t.finish()
	if err != nil {
		return err
	}
	key, _ := grid.ScheduleKey(s.set, acsCfg)
	cfg := sim.Config{Policy: sim.Greedy, Hyperperiods: 200, Seed: stats.SeedFromString(key.String())}
	for r := 0; r < reps; r++ {
		var imp float64
		var ra, rb *sim.Result
		t.begin("replay.compare")
		err := t.call("sim.compare_us", func() (err error) {
			imp, ra, rb, err = sim.ComparePlans(pa, pb, cfg)
			return err
		})
		t.finish()
		if err != nil {
			return err
		}
		if ra.DeadlineMisses != 0 || rb.DeadlineMisses != 0 {
			return fmt.Errorf("simulated comparison missed %d+%d deadlines", ra.DeadlineMisses, rb.DeadlineMisses)
		}
		if r == 0 {
			t.value("sim.runtime_saving_pct", imp)
		}
	}
	return nil
}

// feedbackSample folds sample i's observation stream into a controller in
// observe-sized batches until the first adaptation re-solve, timing each
// fold (feedback.observe_us, or feedback.resolve_ms for the batch that
// re-solved), each checkpoint snapshot and each checkpoint write.
func feedbackSample(ctx context.Context, t *tracer, disk *store.Disk, s *sample, i int,
	streams func(int, *task.Set) (*workload.Scenario, error)) error {
	sc, err := streams(i, s.set)
	if err != nil {
		return err
	}
	ctrl, err := feedback.NewController(ctx, s.set, feedback.Options{Runner: s.runner})
	if err != nil {
		return err
	}
	taskOf := ctrl.TaskOf()
	const horizon = 2 * switchEvery // the first switch re-solves inside it
	for h := 0; h < horizon && ctrl.Resolves() == 0; h += observeBatch {
		rows := make([][]float64, observeBatch)
		for k := range rows {
			rows[k] = make([]float64, len(taskOf))
			if err := sc.FillActuals(h+k, taskOf, rows[k]); err != nil {
				return err
			}
		}
		var blob []byte
		t.begin("replay.observe")
		id := t.open(t.root, "feedback", "feedback.observe_us")
		d, err := ctrl.ObserveChunk(ctx, rows)
		t.close(id)
		if d.Resolved {
			t.spans[id].Name = "feedback.resolve_ms"
		}
		err = errors.Join(err,
			t.call("feedback.snapshot_us", func() (err error) {
				blob, err = json.Marshal(ctrl.Snapshot())
				return err
			}),
			t.call("store.put_blob_us", func() error { return disk.PutBlob(fmt.Sprintf("session-r%d", i), blob) }),
		)
		t.finish()
		if err != nil {
			return err
		}
		t.value("feedback.checkpoint_bytes", float64(len(blob)))
	}
	if ctrl.Resolves() == 0 {
		return fmt.Errorf("stream %d never re-solved in %d hyper-periods", i, horizon)
	}
	return nil
}

// pipelineStages are the top-level server stages each workload's requests
// pass through. Nested stages are left out: the per-core solves inside
// solve_partition, or the store spans inside a solve, would count twice.
var pipelineStages = map[string][]string{
	"hot_repeat":      {"admission_wait", "batch_assembly", "solve_wcs", "solve_acs", "sim"},
	"cold_solve":      {"admission_wait", "batch_assembly", "solve_wcs", "solve_acs"},
	"partitioned":     {"admission_wait", "batch_assembly", "solve_partition"},
	"session_durable": {"admission_wait", "feedback_resolve"},
}

// serverLayers adds the per-layer metrics read from the server's /metrics
// (deltas over the timed phase, means as _sum/_count) and from the client,
// then the two residuals.
func (o *outcome) serverLayers(name string) {
	d := func(metric string, labels ...obs.Label) float64 {
		return o.after.value(metric, labels...) - o.before.value(metric, labels...)
	}
	stage := func(st string) (sum, n float64) {
		l := obs.L("stage", st)
		return d("schedd_stage_seconds_sum", l), d("schedd_stage_seconds_count", l)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	set := func(name string, n, v float64) { o.layers[name] = layerStat{n: int(n), mean: v, p90: math.NaN()} }

	ops := 0.0
	for _, n := range o.opsBy {
		ops += n
	}
	var reqSum, reqN float64
	reqBy := [nEndpoints]float64{}
	for e, label := range endpointLabels {
		el := obs.L("endpoint", label)
		reqSum += d("schedd_request_seconds_sum", el)
		reqBy[e] = d("schedd_request_seconds_count", el)
		reqN += reqBy[e]
	}
	_, admN := stage("admission_wait")
	batSum, batN := stage("batch_assembly")
	batches := d("schedd_batches_total")
	set("server.admission_waits", admN, admN)
	set("server.batch_wait_share", batN, ratio(batSum, reqSum))
	set("server.batch_size_mean", batches, ratio(batN, batches))
	set("server.coalesced_ratio", batN, ratio(d("schedd_coalesced_total"), batN))
	hits, misses := d("schedd_memo_hits_total", obs.L("kind", "schedule")), d("schedd_memo_misses_total", obs.L("kind", "schedule"))
	set("grid.memo_hit_ratio", hits+misses, ratio(hits, hits+misses))
	set("grid.misses_per_request", ops, ratio(misses, ops))
	set("store.tier_hits_mem", 1, d("schedd_store_tier_hits_total", obs.L("tier", "mem")))
	set("store.tier_hits_disk", 1, d("schedd_store_tier_hits_total", obs.L("tier", "disk")))
	set("feedback.resolves", 1, d("schedd_feedback_resolves_total"))
	set("retry.retries", 1, float64(o.retries))
	set("retry.sheds", 1, float64(o.sheds))
	reqMs := 1e3 * ratio(reqSum, reqN)
	set("server.request_ms", reqN, reqMs)
	set("http.transport_ms", float64(len(o.lat)), stats.Mean(o.lat)-reqMs)

	// What the server's stage spans do not cover, per request, less the
	// replayed means of the calls each endpoint's pipeline makes outside
	// those stages (in ms).
	l := func(m string) float64 {
		v := o.layers[m].mean
		switch {
		case strings.HasSuffix(m, "_us"):
			return v / 1e3
		case strings.HasSuffix(m, "_ns"):
			return v / 1e6
		}
		return v
	}
	covered := 0.0
	for _, st := range pipelineStages[name] {
		s, _ := stage(st)
		covered += s
	}
	front := l("server.decode_us") + l("server.fingerprint_us")
	check := l("core.feasible_us") + l("core.wcs_avg_eval_us")
	var calls [nEndpoints]float64
	calls[epSubmit] = front + check + l("server.encode_us")
	if name == "partitioned" {
		calls[epSubmit] = front + l("server.encode_us") // admission runs inside solve_partition
	}
	calls[epGet] = check + l("server.encode_us")
	calls[epCompare] = front + l("core.feasible_us") + l("server.encode_us")
	calls[epObserve] = l("server.decode_us") + (1-o.resolveShare)*l("feedback.observe_us") +
		l("feedback.snapshot_us") + l("store.put_blob_us") + l("server.encode_us")
	outside := 1e3 * (reqSum - covered)
	for e := range calls {
		outside -= reqBy[e] * calls[e]
	}
	set("server.unattributed_ms", reqN, ratio(outside, reqN))
}
