package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/server"
)

// tinySizes shrinks every workload so all four, untraced and traced, run in
// a few seconds. Two-task sets solve in milliseconds; the tail percentile
// drops to the median so a few dozen ops leave ten samples beyond it.
var tinySizes = sizes{
	shapes: map[string]shape{
		"hot_repeat":      {pool: pool{seed: 1, size: 100, tasks: 2, ratio: 0.5}, sets: 3, opsPerSec: 60, tail: 0.5},
		"cold_solve":      {pool: pool{seed: 1, size: 100, tasks: 2, ratio: 0.5}, opsPerSec: 24, tail: 0.5},
		"partitioned":     {pool: pool{seed: 2, size: 100, tasks: 4, cores: 2, ratio: 0.5}, opsPerSec: 24, tail: 0.5},
		"session_durable": {pool: pool{seed: 3, size: 2, tasks: 2, ratio: 0.1}, sets: 2, opsPerSec: 40, tail: 0.5},
	},
	warmup:      1,
	setupReps:   2,
	replaySets:  1,
	replayCalls: 5,
}

// contract is BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	if len(got) != len(want) {
		t.Errorf("BENCHMARK.json keys %v, want exactly %v", got, want)
	}
	var c contract
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

// TestContractMatchesCode: BENCHMARK.json names exactly the workloads and
// metrics this command reports, with the same units, directions and bounds.
func TestContractMatchesCode(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, command %q: %q", i, c.Workloads[i], w.name, w.why)
		}
		if _, ok := defaultSizes.shapes[w.name]; !ok {
			t.Errorf("workload %s has no default shape", w.name)
		}
	}
	strip := func(ms []metric) []metric {
		out := make([]metric, len(ms))
		for i, m := range ms {
			out[i] = metric{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound}
		}
		return out
	}
	if !reflect.DeepEqual(c.EndToEnd, strip(endToEnd)) {
		t.Errorf("end_to_end:\n BENCHMARK.json %+v\n command        %+v", c.EndToEnd, strip(endToEnd))
	}
	if !reflect.DeepEqual(c.PerLayer, strip(layers)) {
		t.Errorf("per_layer:\n BENCHMARK.json %+v\n command        %+v", c.PerLayer, strip(layers))
	}
	if !reflect.DeepEqual(c.Paths, []string{"cmd/bench"}) {
		t.Errorf("paths %v", c.Paths)
	}

	// baseline.json maps every layer to the metric@workload it moves.
	b, err := os.ReadFile("baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base struct {
		Layers []struct{ Name, Unit, Moves string } `json:"layers"`
	}
	if err := json.Unmarshal(b, &base); err != nil {
		t.Fatal(err)
	}
	if len(base.Layers) != len(layers) {
		t.Fatalf("baseline.json maps %d layers, the command reports %d", len(base.Layers), len(layers))
	}
	for i, m := range layers {
		if l := base.Layers[i]; l.Name != m.Name || l.Unit != m.Unit || l.Moves != m.Moves {
			t.Errorf("baseline.json layer %d %+v, command %+v", i, l, m)
		}
	}
}

// TestTinyRun runs all four workloads at tiny sizes, untraced and traced:
// every check passes, the final line names exactly BENCHMARK.json's metrics
// with their units, the human report prints the report-only metrics, and
// the spans file holds the replay.
func TestTinyRun(t *testing.T) {
	leakcheck.Check(t)
	c := readContract(t)
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	t.Setenv("TMPDIR", t.TempDir())
	for _, tc := range []struct {
		trace string
		want  []metric
	}{{"0", c.EndToEnd}, {"1", c.PerLayer}} {
		var out strings.Builder
		if err := run([]string{"-seed", "7", "-seconds", "1", "-trace", tc.trace, "-spans", spans}, &out, tinySizes); err != nil {
			t.Fatalf("trace %s: %v\n%s", tc.trace, err, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if !strings.HasPrefix(lines[0], "env {") {
			t.Errorf("first line is not the env block: %q", lines[0])
		}
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not the result: %v", err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace %s: result %+v", tc.trace, res)
		}
		if len(res.Metrics) != len(workloads)*len(tc.want) {
			t.Errorf("trace %s: %d metrics, want %d", tc.trace, len(res.Metrics), len(workloads)*len(tc.want))
		}
		for _, w := range workloads {
			for _, m := range tc.want {
				got, ok := res.Metrics[w.name+"."+m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("trace %s: %s.%s = %+v, want unit %s", tc.trace, w.name, m.Name, got, m.Unit)
				}
			}
		}
		if tc.trace == "0" {
			for _, m := range reportOnly {
				if !strings.Contains(out.String(), "  "+m.Name+" ") {
					t.Errorf("human report lacks %s", m.Name)
				}
			}
		}
	}
	f, err := os.Open(spans)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %q: %v", sc.Text(), err)
		}
		if s.EndNs < s.StartNs {
			t.Errorf("span ends before it starts: %+v", s)
		}
		seen[s.Workload] = true
	}
	for _, w := range workloads {
		if !seen[w.name] {
			t.Errorf("no spans for %s", w.name)
		}
	}
}

// TestTailNeedsTenBeyond: the tail percentile is reported only when at least
// ten samples lie beyond it.
func TestTailNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, beyond, err := tailAt(xs, 0.9); err != nil || v != 90 || beyond != 10 {
		t.Errorf("p90 of 100: %g, %d beyond, %v; want 90, 10, nil", v, beyond, err)
	}
	if _, beyond, err := tailAt(xs, 0.95); err == nil || beyond != 5 {
		t.Errorf("p95 of 100: %d beyond, err %v; want 5 and an error", beyond, err)
	}
	if _, _, err := tailAt(nil, 0.5); err == nil {
		t.Error("tail of no samples did not fail")
	}
	// The default sizes leave at least ten samples beyond each workload's
	// tail percentile at the contract's run length.
	for name, sh := range defaultSizes.shapes {
		n := sh.ops(float64(readContract(t).RunSeconds))
		if beyond := n - rank(n, sh.tail); beyond < minBeyond {
			t.Errorf("%s: %d ops leave %d beyond p%g", name, n, beyond, 100*sh.tail)
		}
	}
}

// TestTailOverRounds: with ten samples beyond p90 in every fifth of the
// phase, the tail is the median of the fifths' p90s, so a slow fifth does
// not move it; with fewer it is the p90 of the whole phase.
func TestTailOverRounds(t *testing.T) {
	for _, tc := range []struct {
		ops      int
		perRound bool
		want     float64
	}{{500, true, 1}, {250, false, 100}} {
		tm := newTimedOps(tc.ops)
		for i := range tc.ops {
			ms := time.Millisecond
			if i*nRounds/tc.ops == 2 { // one slow fifth
				ms = 100 * time.Millisecond
			}
			tm.end[i] = ms
		}
		o := &outcome{tail: 0.9}
		tm.fold(o)
		v, _, perRound, err := o.tailLatency()
		if err != nil || perRound != tc.perRound || v != tc.want {
			t.Errorf("%d ops: p90 %g ms, per round %v, %v; want %g, %v", tc.ops, v, perRound, err, tc.want, tc.perRound)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4) and
// statistics.median.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, md, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		q1, md, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || md != tc.md || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", tc.xs, q1, md, q3, tc.q1, tc.md, tc.q3)
		}
	}
}

// TestPoolDraws: pools.json times every pool the workloads draw from, and
// draws are seeded, never touch the warm-up sets, take one set from each
// stratum of solve time, and fail cleanly when the pool runs out.
func TestPoolDraws(t *testing.T) {
	const skip, n = 4, 10
	for _, p := range []pool{singlePool, partPool} {
		cost, err := p.costs()
		if err != nil || cost == nil {
			t.Fatalf("pool seed %#x: no solve times in pools.json (%v)", p.seed, err)
		}
		a, err := p.draw(7, skip, n)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := p.draw(7, skip, n)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("same seed drew %v then %v", a, b)
		}
		cand := all(p.size)[skip:]
		sort.SliceStable(cand, func(i, j int) bool { return cost[cand[i]] < cost[cand[j]] })
		stratum := map[int]int{}
		for r, i := range cand {
			stratum[i] = r * n / len(cand)
		}
		seen := map[int]bool{}
		for _, i := range a {
			s, ok := stratum[i]
			if !ok || seen[s] {
				t.Errorf("draw %v holds a warm-up or out-of-range set, or two from one stratum", a)
			}
			seen[s] = true
		}
		// With as many strata as candidates, one pick per stratum is every
		// candidate once.
		whole, err := p.draw(9, skip, p.size-skip)
		if err != nil {
			t.Fatal(err)
		}
		sort.Ints(whole)
		if !reflect.DeepEqual(whole, all(p.size)[skip:]) {
			t.Error("drawing every candidate did not draw each once")
		}
		if _, err := p.draw(7, skip, p.size-skip+1); err == nil {
			t.Error("drawing more sets than the pool holds did not fail")
		}
	}
}

// TestPoolsSolve puts every set of the default pools, one at a time,
// through the server's own submit pipeline: all must solve. When they do,
// it rewrites pools.json with each drawn pool's solo solve times. It takes
// about ten minutes, so it runs only with BENCH_POOLS=1; run it after any
// change to the solver or the generator, which could make a benchmark input
// fail.
func TestPoolsSolve(t *testing.T) {
	if os.Getenv("BENCH_POOLS") == "" {
		t.Skip("set BENCH_POOLS=1 to re-validate the set pools and rewrite pools.json (takes minutes)")
	}
	var table struct {
		Note  string      `json:"note"`
		Pools []poolCosts `json:"pools"`
	}
	table.Note = "Solo solve time (ms) of every set of the pools cmd/bench draws from, measured on the reference host by BENCH_POOLS=1 go test -run TestPoolsSolve. They rank the sets for the stratified draws."
	for _, p := range []pool{singlePool, partPool, devicePool} {
		sets, err := p.sets(all(p.size))
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(server.Options{})
		ms := make([]float64, len(sets))
		for i, s := range sets {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/schedules", bytes.NewReader(submitBody(s, p.cores)))
			t0 := time.Now()
			srv.Handler().ServeHTTP(rec, req)
			ms[i] = math.Round(float64(time.Since(t0).Microseconds())/100) / 10
			if rec.Code != http.StatusOK {
				t.Errorf("pool seed %#x: set %d does not solve: %s", p.seed, i, rec.Body)
			}
		}
		srv.Close()
		if p != devicePool {
			table.Pools = append(table.Pools, poolCosts{p.seed, p.size, p.tasks, p.cores, p.ratio, ms})
		}
	}
	if t.Failed() {
		return
	}
	b, err := json.Marshal(table)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("pools.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-runs", "0"},
	} {
		if err := run(args, &strings.Builder{}, tinySizes); err == nil {
			t.Errorf("%v: no error", args)
		}
	}
}
