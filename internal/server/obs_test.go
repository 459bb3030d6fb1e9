package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
)

// scrape fetches /metrics and parses it strictly — any exposition-format
// violation fails the test here, so every test that scrapes is also a
// format test.
func scrape(t *testing.T, base string) []obs.Family {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("/metrics content type %q, want %q", ct, obs.ContentType)
	}
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("/metrics is not valid exposition format: %v", err)
	}
	return fams
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func sampleOr(t *testing.T, fams []obs.Family, name string, labels ...obs.Label) float64 {
	t.Helper()
	v, ok := obs.SampleValue(fams, name, labels...)
	if !ok {
		t.Fatalf("metric %s%v missing from /metrics", name, labels)
	}
	return v
}

// mixedWorkload drives every counted request kind through the server:
// submits (with a duplicate for the memo-hit path), a get, two identical
// compares (the second a compare-memo hit), and a drift-firing observation
// stream on one session.
func mixedWorkload(t *testing.T, ts string) {
	t.Helper()
	for _, i := range []int{0, 1, 0} { // i=0 twice: second is a memo hit
		if code, body := post(t, ts+"/v1/schedules", smallBody(i)); code != http.StatusOK {
			t.Fatalf("submit %d: %d %s", i, code, body)
		}
	}
	var sub ScheduleResponse
	_, body := post(t, ts+"/v1/schedules", smallBody(0))
	if err := json.Unmarshal([]byte(body), &sub); err != nil {
		t.Fatal(err)
	}
	if code, body := get(t, ts+"/v1/schedules/"+sub.Fingerprint); code != http.StatusOK {
		t.Fatalf("get: %d %s", code, body)
	}
	for i := 0; i < 2; i++ {
		if code, body := post(t, ts+"/v1/compare", smallBody(2)); code != http.StatusOK {
			t.Fatalf("compare %d: %d %s", i, code, body)
		}
	}

	sessBody, set := sessionBody(t, 1)
	code, resp := post(t, ts+"/v1/sessions", sessBody)
	if code != http.StatusOK {
		t.Fatalf("session create: %d %s", code, resp)
	}
	var created SessionResponse
	if err := json.Unmarshal([]byte(resp), &created); err != nil {
		t.Fatal(err)
	}
	sc, err := workload.NewScenario(set, workload.ScenarioConfig{Kind: workload.ModeSwitch, Seed: 5, SwitchEvery: 60})
	if err != nil {
		t.Fatal(err)
	}
	ins, err := set.Instances()
	if err != nil {
		t.Fatal(err)
	}
	taskOf := make([]int, len(ins))
	for i := range ins {
		taskOf[i] = ins[i].TaskIndex
	}
	rows, err := sc.Actuals(150, taskOf)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(rows); lo += 10 {
		if code, resp := post(t, ts+"/v1/sessions/"+created.SessionID+"/observe", observeBody(t, rows[lo:lo+10])); code != http.StatusOK {
			t.Fatalf("observe at %d: %d %s", lo, code, resp)
		}
	}
}

// TestStatsMatchesMetrics pins satellite #1: after a mixed workload, every
// counter /v1/stats reports equals the value /metrics exposes — the two
// surfaces read the same registry and can never disagree.
func TestStatsMatchesMetrics(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	mixedWorkload(t, ts.URL)

	code, body := get(t, ts.URL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, body)
	}
	var st StatsResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	fams := scrape(t, ts.URL)

	checks := []struct {
		name  string
		stats float64
		lab   []obs.Label
	}{
		{"schedd_requests_total", float64(st.Submits), []obs.Label{obs.L("endpoint", "submit")}},
		{"schedd_requests_total", float64(st.Gets), []obs.Label{obs.L("endpoint", "get")}},
		{"schedd_requests_total", float64(st.Compares), []obs.Label{obs.L("endpoint", "compare")}},
		{"schedd_requests_total", float64(st.SessionCreates), []obs.Label{obs.L("endpoint", "session_create")}},
		{"schedd_requests_total", float64(st.Observes), []obs.Label{obs.L("endpoint", "observe")}},
		{"schedd_sessions", float64(st.Sessions), nil},
		{"schedd_stored_requests", float64(st.Stored), nil},
		{"schedd_sessions_restored_total", float64(st.RestoredSessions), nil},
		{"schedd_checkpoint_errors_total", float64(st.CheckpointErrors), nil},
		{"schedd_inflight", float64(st.Inflight), nil},
		{"schedd_shed_total", float64(st.Shed), nil},
		{"schedd_degraded_total", float64(st.Degraded), nil},
		{"schedd_panics_total", float64(st.Panics), nil},
		{"schedd_memo_hits_total", float64(st.Memo.ScheduleHits), []obs.Label{obs.L("kind", "schedule")}},
		{"schedd_memo_misses_total", float64(st.Memo.ScheduleMisses), []obs.Label{obs.L("kind", "schedule")}},
		{"schedd_memo_hits_total", float64(st.Memo.PlanHits), []obs.Label{obs.L("kind", "plan")}},
		{"schedd_memo_misses_total", float64(st.Memo.PlanMisses), []obs.Label{obs.L("kind", "plan")}},
		{"schedd_memo_hits_total", float64(st.Memo.CompareHits), []obs.Label{obs.L("kind", "compare")}},
		{"schedd_memo_misses_total", float64(st.Memo.CompareMisses), []obs.Label{obs.L("kind", "compare")}},
		{"schedd_memo_evictions_total", float64(st.Memo.Evictions), nil},
		{"schedd_memo_bytes_used", float64(st.Memo.BytesUsed), nil},
		{"schedd_store_breaker_state", breakerStateNum(st.Memo.BreakerState), nil},
	}
	for _, c := range checks {
		if got := sampleOr(t, fams, c.name, c.lab...); got != c.stats {
			t.Errorf("%s%v: /metrics says %v, /v1/stats says %v", c.name, c.lab, got, c.stats)
		}
	}
	// Sanity: the workload actually exercised the interesting paths.
	if st.Submits < 4 || st.Memo.ScheduleHits == 0 || st.Memo.CompareHits == 0 || st.Observes == 0 {
		t.Fatalf("workload too thin to make the comparison meaningful: %+v", st)
	}
}

// TestMetricsCoverageAndHistograms asserts the scrape covers the
// instrumented subsystems and that the latency histograms actually
// accumulated observations from the workload.
func TestMetricsCoverageAndHistograms(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	mixedWorkload(t, ts.URL)
	fams := scrape(t, ts.URL)

	for _, name := range []string{
		"schedd_requests_total", "schedd_request_seconds", "schedd_stage_seconds",
		"schedd_memo_hits_total", "schedd_memo_misses_total", "schedd_memo_evictions_total",
		"schedd_memo_bytes_used", "schedd_memo_bytes_cap",
		"schedd_store_tier_hits_total", "schedd_store_breaker_state",
		"schedd_store_breaker_trips_total", "schedd_store_mem_degraded",
		"schedd_shed_total", "schedd_degraded_total", "schedd_panics_total",
		"schedd_feedback_drifts_total", "schedd_feedback_resolves_total",
		"schedd_sessions", "schedd_inflight",
	} {
		if obs.FindFamily(fams, name) == nil {
			t.Errorf("family %s missing from /metrics", name)
		}
	}

	// The two identical compares: one simulation, then a compare-memo hit.
	for _, c := range []struct {
		name string
		want float64
	}{{"schedd_memo_misses_total", 1}, {"schedd_memo_hits_total", 1}} {
		if got := sampleOr(t, fams, c.name, obs.L("kind", "compare")); got != c.want {
			t.Errorf(`%s{kind="compare"} = %v, want %v`, c.name, got, c.want)
		}
	}

	// Stage histograms: the solve and feedback paths all ran, so their
	// spans must have landed.
	for _, stage := range []string{"solve_wcs", "solve_acs", "sim", "feedback_resolve"} {
		if n := sampleOr(t, fams, "schedd_stage_seconds_count", obs.L("stage", stage)); n == 0 {
			t.Errorf("stage %s histogram empty after mixed workload", stage)
		}
	}
	for _, ep := range []string{"submit", "get", "compare", "session_create", "observe"} {
		if n := sampleOr(t, fams, "schedd_request_seconds_count", obs.L("endpoint", ep)); n == 0 {
			t.Errorf("endpoint %s request histogram empty", ep)
		}
	}
	// The drift-firing stream must surface as feedback counters.
	if sampleOr(t, fams, "schedd_feedback_drifts_total") == 0 {
		t.Error("mode-switch stream fired no drift in the metrics")
	}
	if sampleOr(t, fams, "schedd_feedback_resolves_total") == 0 {
		t.Error("mode-switch stream counted no adaptation re-solves")
	}

	// Counters stay monotone across scrapes under more traffic.
	post(t, ts.URL+"/v1/schedules", smallBody(7))
	fams2 := scrape(t, ts.URL)
	for _, f := range fams {
		if f.Type != "counter" {
			continue
		}
		for _, s := range f.Samples {
			v2, ok := obs.SampleValue(fams2, s.Name, s.Labels...)
			if !ok {
				t.Errorf("counter %s%v disappeared between scrapes", s.Name, s.Labels)
				continue
			}
			if v2 < s.Value {
				t.Errorf("counter %s%v went backwards: %v -> %v", s.Name, s.Labels, s.Value, v2)
			}
		}
	}
}

// TestTraceHeaderPropagation pins the tracing contract: a caller-supplied
// X-Trace-Id is echoed, an absent one is minted, and neither changes a
// single response byte.
func TestTraceHeaderPropagation(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	// Without a header: one is minted.
	resp, err := http.Post(ts.URL+"/v1/schedules", "application/json", strings.NewReader(smallBody(0)))
	if err != nil {
		t.Fatal(err)
	}
	minted := resp.Header.Get(obs.TraceHeader)
	body1 := readAll(t, resp)
	if minted == "" {
		t.Fatal("no X-Trace-Id minted for an untraced request")
	}

	// With a header: echoed verbatim, bytes identical.
	req, err := http.NewRequest("POST", ts.URL+"/v1/schedules", strings.NewReader(smallBody(0)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, "test-trace-42")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp2.Header.Get(obs.TraceHeader); got != "test-trace-42" {
		t.Fatalf("trace id not echoed: got %q", got)
	}
	if body2 := readAll(t, resp2); body2 != body1 {
		t.Fatalf("tracing changed response bytes:\n  untraced: %s\n  traced:   %s", body1, body2)
	}

	// A second minted id differs from the first (ids are unique).
	resp3, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if id := resp3.Header.Get(obs.TraceHeader); id == "" || id == minted {
		t.Fatalf("second minted trace id %q (first %q)", id, minted)
	}
}
