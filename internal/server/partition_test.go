package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/power"
	"repro/internal/task"
)

// partBody builds a submit body of n equal-period tasks, each at the given
// worst-case utilisation — so the required core count is predictable.
func partBody(n int, util float64, extra string) string {
	model := power.DefaultModel()
	tcMax := model.CycleTime(model.VMax())
	var tasks []string
	for i := 0; i < n; i++ {
		wcec := util * 100 / tcMax
		tasks = append(tasks, fmt.Sprintf(
			`{"name":"p%d","period_ms":100,"wcec":%g,"acec":%g,"bcec":%g,"ceff":1}`,
			i+1, wcec, 0.75*wcec, 0.5*wcec))
	}
	return `{"tasks":[` + strings.Join(tasks, ",") + `]` + extra + `}`
}

// TestPartitionSubmit pins the partitioned submit path end to end: a
// 2-core set answers 200 with the core count, a per-core section whose
// assignments partition the set, the global energy as the sum of per-core
// energies, and a GET by fingerprint that returns the identical bytes.
func TestPartitionSubmit(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Options{})

	body := partBody(4, 0.45, `,"cores":2`)
	code, resp := post(t, ts.URL+"/v1/schedules", body)
	if code != http.StatusOK {
		t.Fatalf("partitioned submit: %d %s", code, resp)
	}
	var sr ScheduleResponse
	if err := json.Unmarshal([]byte(resp), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Cores != 2 || len(sr.PerCore) != 2 {
		t.Fatalf("want 2 cores in the response, got cores=%d per_core=%d", sr.Cores, len(sr.PerCore))
	}
	if sr.Degraded {
		t.Fatal("unbudgeted partitioned submit must not degrade")
	}
	seen := map[string]bool{}
	sum := 0.0
	pieces := 0
	for _, pc := range sr.PerCore {
		for _, name := range pc.TaskNames {
			if seen[name] {
				t.Fatalf("task %s assigned to two cores", name)
			}
			seen[name] = true
		}
		if pc.Fingerprint == "" && len(pc.TaskNames) > 0 {
			t.Error("occupied core missing its sub-problem fingerprint")
		}
		if len(pc.EndMs) != len(pc.WCWorkCycles) || len(pc.EndMs) != pc.Pieces {
			t.Errorf("core %d: vectors inconsistent with pieces", pc.Core)
		}
		sum += pc.PredictedEnergy
		pieces += pc.Pieces
	}
	if len(seen) != 4 {
		t.Fatalf("per-core assignments cover %d of 4 tasks", len(seen))
	}
	if sr.PredictedEnergy != sum {
		t.Errorf("global energy %g != Σ per-core %g", sr.PredictedEnergy, sum)
	}
	if sr.Pieces != pieces {
		t.Errorf("global pieces %d != Σ per-core %d", sr.Pieces, pieces)
	}
	if len(sr.EndMs) != 0 || len(sr.WCWorkCycles) != 0 {
		t.Error("partitioned responses carry vectors per core, not top-level")
	}
	if sr.WCSAvgEnergy == nil || sr.ImprovementPct == nil {
		t.Error("non-degraded ACS response missing global baseline fields")
	}

	// Re-fetch by fingerprint: byte-identical (the stored request keeps
	// its core count).
	code, got := get(t, ts.URL+"/v1/schedules/"+sr.Fingerprint)
	if code != http.StatusOK {
		t.Fatalf("get: %d %s", code, got)
	}
	if got != resp {
		t.Errorf("GET bytes differ from submit bytes:\n get %s\npost %s", got, resp)
	}

	// Identical resubmission: byte-identical (determinism contract).
	code, again := post(t, ts.URL+"/v1/schedules", body)
	if code != http.StatusOK || again != resp {
		t.Errorf("resubmit not byte-identical: %d", code)
	}
}

// TestPartitionCoreFingerprintIsSingleCore pins what a per-core fingerprint
// means: for each occupied core, a single-core submit of exactly that core's
// tasks gets the same fingerprint and the same schedule, and GET answers the
// per-core fingerprint once that submit has run.
func TestPartitionCoreFingerprintIsSingleCore(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Options{})

	body := partBody(4, 0.45, `,"cores":2`)
	var req SubmitRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	byName := map[string]task.Task{}
	for _, tk := range req.Tasks {
		byName[tk.Name] = tk
	}
	code, resp := post(t, ts.URL+"/v1/schedules", body)
	if code != http.StatusOK {
		t.Fatalf("partitioned submit: %d %s", code, resp)
	}
	var sr ScheduleResponse
	if err := json.Unmarshal([]byte(resp), &sr); err != nil {
		t.Fatal(err)
	}
	occupied := 0
	for _, pc := range sr.PerCore {
		if len(pc.TaskNames) == 0 {
			continue
		}
		occupied++
		var one SubmitRequest
		for _, name := range pc.TaskNames {
			one.Tasks = append(one.Tasks, byName[name])
		}
		oneBody, err := json.Marshal(one)
		if err != nil {
			t.Fatal(err)
		}
		code, single := post(t, ts.URL+"/v1/schedules", string(oneBody))
		if code != http.StatusOK {
			t.Fatalf("core %d: single-core submit: %d %s", pc.Core, code, single)
		}
		var sc ScheduleResponse
		if err := json.Unmarshal([]byte(single), &sc); err != nil {
			t.Fatal(err)
		}
		if pc.Fingerprint != sc.Fingerprint {
			t.Errorf("core %d: fingerprint %s, single-core submit of %v got %s", pc.Core, pc.Fingerprint, pc.TaskNames, sc.Fingerprint)
		}
		if pc.PredictedEnergy != sc.PredictedEnergy || !reflect.DeepEqual(pc.EndMs, sc.EndMs) {
			t.Errorf("core %d: schedule differs from the single-core submit's", pc.Core)
		}
		if code, got := get(t, ts.URL+"/v1/schedules/"+pc.Fingerprint); code != http.StatusOK || got != single {
			t.Errorf("core %d: GET of its fingerprint: %d %s", pc.Core, code, got)
		}
	}
	if occupied != 2 {
		t.Fatalf("want both cores occupied, got %d", occupied)
	}
}

// TestPartitionSingleCoreAlias pins the M=1 property at the API boundary:
// an explicit "cores":1 is the single-core pipeline — same fingerprint,
// same response bytes as the same body without the field.
func TestPartitionSingleCoreAlias(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Options{})

	plain := partBody(2, 0.3, ``)
	alias := partBody(2, 0.3, `,"cores":1`)
	code, want := post(t, ts.URL+"/v1/schedules", plain)
	if code != http.StatusOK {
		t.Fatalf("plain submit: %d %s", code, want)
	}
	code, got := post(t, ts.URL+"/v1/schedules", alias)
	if code != http.StatusOK {
		t.Fatalf("cores=1 submit: %d %s", code, got)
	}
	if got != want {
		t.Errorf("cores=1 not byte-identical to single-core:\n got %s\nwant %s", got, want)
	}
}

// TestPartitionBounds pins the admission checks on the cores knob and the
// endpoints that stay single-core.
func TestPartitionBounds(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Options{})

	for _, body := range []string{
		partBody(2, 0.3, `,"cores":-1`),
		partBody(2, 0.3, fmt.Sprintf(`,"cores":%d`, maxCores+1)),
	} {
		if code, resp := post(t, ts.URL+"/v1/schedules", body); code != http.StatusUnprocessableEntity {
			t.Errorf("out-of-range cores: %d %s", code, resp)
		}
	}
	// A set whose total utilisation cannot fit the requested cores fails
	// admission deterministically.
	if code, resp := post(t, ts.URL+"/v1/schedules", partBody(4, 0.6, `,"cores":2`)); code != http.StatusUnprocessableEntity {
		t.Errorf("unpackable set: %d %s", code, resp)
	}
	if code, resp := post(t, ts.URL+"/v1/compare", partBody(4, 0.45, `,"cores":2`)); code != http.StatusUnprocessableEntity {
		t.Errorf("compare with cores: %d %s", code, resp)
	}
	if code, resp := post(t, ts.URL+"/v1/sessions", partBody(4, 0.45, `,"cores":2`)); code != http.StatusUnprocessableEntity {
		t.Errorf("session with cores: %d %s", code, resp)
	}
}

// TestPartitionSolveBudgetDegradesToWCS extends the PR-7 degraded-vs-WCS
// vector identity to M > 1: under an expired per-core ACS budget every
// affected core serves exactly its WCS schedule, the whole response is
// marked degraded with the baseline fields absent, and a direct WCS submit
// of the same partitioned request returns the identical per-core vectors.
func TestPartitionSolveBudgetDegradesToWCS(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Options{SolveBudget: time.Nanosecond})

	code, body := post(t, ts.URL+"/v1/schedules", partBody(4, 0.45, `,"cores":2`))
	if code != http.StatusOK {
		t.Fatalf("budgeted partitioned submit must degrade, not fail: %d %s", code, body)
	}
	var deg ScheduleResponse
	if err := json.Unmarshal([]byte(body), &deg); err != nil {
		t.Fatal(err)
	}
	if !deg.Degraded {
		t.Fatalf("1ns per-core budget did not degrade the response: %s", body)
	}
	if deg.WCSAvgEnergy != nil || deg.ImprovementPct != nil {
		t.Error("degraded partitioned response carries ACS-only baseline fields")
	}
	for _, pc := range deg.PerCore {
		if len(pc.TaskNames) > 0 && !pc.Degraded {
			t.Errorf("core %d served ACS under an expired budget", pc.Core)
		}
	}

	// Direct WCS form of the same partitioned request (unbudgeted by
	// design): identical assignments and per-core vectors.
	code, body = post(t, ts.URL+"/v1/schedules", partBody(4, 0.45, `,"cores":2,"objective":"wcs"`))
	if code != http.StatusOK {
		t.Fatalf("wcs partitioned submit: %d %s", code, body)
	}
	var wcs ScheduleResponse
	if err := json.Unmarshal([]byte(body), &wcs); err != nil {
		t.Fatal(err)
	}
	if wcs.Degraded {
		t.Fatal("WCS objective must never be budgeted (it is the fallback)")
	}
	if len(deg.PerCore) != len(wcs.PerCore) {
		t.Fatalf("core counts differ: %d vs %d", len(deg.PerCore), len(wcs.PerCore))
	}
	for i := range deg.PerCore {
		d, w := deg.PerCore[i], wcs.PerCore[i]
		if fmt.Sprint(d.TaskNames) != fmt.Sprint(w.TaskNames) {
			t.Errorf("core %d: assignments differ: %v vs %v", i, d.TaskNames, w.TaskNames)
		}
		if d.Pieces != w.Pieces || d.PredictedEnergy != w.PredictedEnergy ||
			fmt.Sprint(d.EndMs) != fmt.Sprint(w.EndMs) ||
			fmt.Sprint(d.WCWorkCycles) != fmt.Sprint(w.WCWorkCycles) {
			t.Errorf("core %d: degraded schedule is not the WCS schedule", i)
		}
	}
	if deg.PredictedEnergy != wcs.PredictedEnergy {
		t.Errorf("degraded global energy %g != WCS global energy %g",
			deg.PredictedEnergy, wcs.PredictedEnergy)
	}
}
