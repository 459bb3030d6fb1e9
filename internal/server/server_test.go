package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// smallBody returns a tiny feasible two-task submit body; i perturbs the
// WCEC so distinct i give distinct fingerprints.
func smallBody(i int) string {
	return fmt.Sprintf(`{"tasks":[`+
		`{"name":"a","period_ms":10,"wcec":%g,"acec":2,"bcec":1,"ceff":1},`+
		`{"name":"b","period_ms":20,"wcec":6,"acec":3,"bcec":2,"ceff":1}]}`,
		3+0.25*float64(i))
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// tryPost is the goroutine-safe POST helper (t.Fatal must stay on the test
// goroutine).
func tryPost(url, body string) (int, string, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", err
	}
	return resp.StatusCode, string(b), nil
}

// post returns (status, body) for a JSON POST.
func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	code, b, err := tryPost(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return code, b
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func TestSubmitAndGetRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code, body := post(t, ts.URL+"/v1/schedules", smallBody(0))
	if code != http.StatusOK {
		t.Fatalf("submit: status %d: %s", code, body)
	}
	var resp ScheduleResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Fingerprint == "" || resp.Objective != "ACS" || resp.Pieces == 0 {
		t.Fatalf("implausible response: %+v", resp)
	}
	if len(resp.EndMs) != resp.Pieces || len(resp.WCWorkCycles) != resp.Pieces {
		t.Fatalf("schedule vectors inconsistent with Pieces=%d", resp.Pieces)
	}
	if resp.WCSAvgEnergy == nil || resp.ImprovementPct == nil {
		t.Fatal("ACS response missing the WCS baseline fields")
	}
	if !(resp.PredictedEnergy > 0) || resp.PredictedEnergy > *resp.WCSAvgEnergy*(1+1e-9) {
		t.Errorf("ACS predicted energy %g vs WCS-at-average %g: ordering violated",
			resp.PredictedEnergy, *resp.WCSAvgEnergy)
	}

	// GET must return byte-identical content.
	code2, body2 := get(t, ts.URL+"/v1/schedules/"+resp.Fingerprint)
	if code2 != http.StatusOK {
		t.Fatalf("get: status %d: %s", code2, body2)
	}
	if body2 != body {
		t.Errorf("GET differs from submit response:\n%s\nvs\n%s", body2, body)
	}

	if code, _ := get(t, ts.URL+"/v1/schedules/deadbeef"); code != http.StatusNotFound {
		t.Errorf("unknown fingerprint: want 404, got %d", code)
	}
}

func TestSubmitWCSObjective(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := `{"tasks":[{"name":"a","period_ms":10,"wcec":4,"acec":2,"bcec":1,"ceff":1}],"objective":"wcs"}`
	code, got := post(t, ts.URL+"/v1/schedules", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, got)
	}
	var resp ScheduleResponse
	if err := json.Unmarshal([]byte(got), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Objective != "WCS" {
		t.Errorf("objective %q", resp.Objective)
	}
	if resp.WCSAvgEnergy != nil || resp.ImprovementPct != nil {
		t.Error("WCS response carries ACS-only fields")
	}
}

func TestSubmitRejections(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxTasks: 2})
	cases := []struct {
		name, body string
		status     int
	}{
		{"bad json", `{`, http.StatusBadRequest},
		{"unknown field", `{"tasks":[],"nope":1}`, http.StatusBadRequest},
		{"empty set", `{"tasks":[]}`, http.StatusUnprocessableEntity},
		{"bad objective", `{"tasks":[{"name":"a","period_ms":10,"wcec":4,"acec":2,"bcec":1,"ceff":1}],"objective":"xxx"}`, http.StatusUnprocessableEntity},
		{"invalid task", `{"tasks":[{"name":"a","period_ms":10,"wcec":-4,"acec":2,"bcec":1,"ceff":1}]}`, http.StatusUnprocessableEntity},
		{"too many tasks", `{"tasks":[` +
			`{"name":"a","period_ms":10,"wcec":1,"acec":1,"bcec":1,"ceff":1},` +
			`{"name":"b","period_ms":10,"wcec":1,"acec":1,"bcec":1,"ceff":1},` +
			`{"name":"c","period_ms":10,"wcec":1,"acec":1,"bcec":1,"ceff":1}]}`, http.StatusUnprocessableEntity},
		// 10 cycles/ms on a unit-K model needs v=10 > Vmax=4: unschedulable.
		{"infeasible", `{"tasks":[{"name":"a","period_ms":10,"wcec":100,"acec":60,"bcec":50,"ceff":1}]}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		code, body := post(t, ts.URL+"/v1/schedules", tc.body)
		if code != tc.status {
			t.Errorf("%s: want %d, got %d (%s)", tc.name, tc.status, code, body)
		}
		if !strings.Contains(body, `"error"`) {
			t.Errorf("%s: error body missing error field: %s", tc.name, body)
		}
	}
}

// TestSubmitDeterministicAcrossCacheStates: identical request bodies produce
// identical response bytes on a cold cache, a warm cache, and a cache under
// eviction pressure.
func TestSubmitDeterministicAcrossCacheStates(t *testing.T) {
	_, warm := newTestServer(t, Options{})
	evicting, evictTS := newTestServer(t, Options{MemoBytes: 1})

	var bodies []string
	for round := 0; round < 2; round++ {
		for i := 0; i < 3; i++ {
			_, a := post(t, warm.URL+"/v1/schedules", smallBody(i))
			_, b := post(t, evictTS.URL+"/v1/schedules", smallBody(i))
			if a != b {
				t.Fatalf("round %d set %d: warm and evicting servers disagree:\n%s\nvs\n%s", round, i, a, b)
			}
			if round == 0 {
				bodies = append(bodies, a)
			} else if bodies[i] != a {
				t.Fatalf("set %d: repeat submit changed bytes", i)
			}
		}
	}
	if st := evicting.memo.Stats(); st.Evictions == 0 {
		t.Error("eviction-pressure server never evicted")
	}
}

func TestCompareEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{SimHyperperiods: 20})
	body := `{"tasks":[` +
		`{"name":"a","period_ms":10,"wcec":4,"acec":2,"bcec":1,"ceff":1},` +
		`{"name":"b","period_ms":20,"wcec":6,"acec":3,"bcec":2,"ceff":1}]}`
	code, got := post(t, ts.URL+"/v1/compare", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, got)
	}
	var resp CompareResponse
	if err := json.Unmarshal([]byte(got), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Hyperperiods != 20 || resp.Seed == 0 {
		t.Errorf("defaults not applied: %+v", resp)
	}
	if resp.ACS.DeadlineMisses != 0 || resp.WCS.DeadlineMisses != 0 {
		t.Errorf("simulated deadline misses on valid schedules: %+v", resp)
	}
	if !(resp.ACS.Energy > 0) || !(resp.WCS.Energy > 0) {
		t.Errorf("non-positive simulated energies: %+v", resp)
	}

	// Same body → same bytes (including the derived seed); a fresh server
	// must agree byte for byte.
	_, ts2 := newTestServer(t, Options{SimHyperperiods: 20})
	if _, got2 := post(t, ts2.URL+"/v1/compare", body); got2 != got {
		t.Errorf("compare not deterministic across servers:\n%s\nvs\n%s", got, got2)
	}

	// An explicit non-ACS objective is rejected rather than silently
	// overridden (compare always solves both sides).
	codeW, bodyW := post(t, ts.URL+"/v1/compare", strings.TrimSuffix(body, "}")+`,"objective":"wcs"}`)
	if codeW != http.StatusUnprocessableEntity || !strings.Contains(bodyW, "both objectives") {
		t.Errorf("compare with objective=wcs: want 422 rejection, got %d %s", codeW, bodyW)
	}

	// An explicit seed is honoured and echoed.
	code, got3 := post(t, ts.URL+"/v1/compare", strings.TrimSuffix(body, "}")+`,"seed":7,"hyperperiods":10}`)
	if code != http.StatusOK {
		t.Fatalf("seeded compare: %d %s", code, got3)
	}
	var resp3 CompareResponse
	if err := json.Unmarshal([]byte(got3), &resp3); err != nil {
		t.Fatal(err)
	}
	if resp3.Seed != 7 || resp3.Hyperperiods != 10 {
		t.Errorf("explicit sim params not honoured: %+v", resp3)
	}
}

func TestStatsAndHealth(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	code, body := get(t, ts.URL+"/v1/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %s", code, body)
	}
	post(t, ts.URL+"/v1/schedules", smallBody(0))
	post(t, ts.URL+"/v1/schedules", smallBody(0))
	code, body = get(t, ts.URL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, body)
	}
	var st StatsResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Submits != 2 || st.Stored != 1 {
		t.Errorf("want 2 submits of 1 stored set, got %+v", st)
	}
	if st.Memo.ScheduleMisses == 0 {
		t.Error("no schedule solves recorded in memo stats")
	}
	if st.Memo.BytesCap != 256<<20 {
		t.Errorf("default memo cap not applied: %d", st.Memo.BytesCap)
	}

	s.Close()
	// The handler is still mounted; health must now refuse.
	code, _ = get(t, ts.URL+"/v1/healthz")
	if code != http.StatusServiceUnavailable {
		t.Errorf("healthz after Close: want 503, got %d", code)
	}
}

// TestStatsExposesEvictionCounters is the regression for the bounded-memo
// visibility contract: /v1/stats must surface the store's eviction and
// byte-accounting counters (not just hit/miss rates), both as typed fields
// and under their wire names, and they must move when eviction pressure is
// real.
func TestStatsExposesEvictionCounters(t *testing.T) {
	// A cap of a few KiB fits roughly one schedule+plan pair, so distinct
	// submits evict each other.
	s, ts := newTestServer(t, Options{MemoBytes: 4 << 10})
	for i := 0; i < 4; i++ {
		if code, body := post(t, ts.URL+"/v1/schedules", smallBody(i)); code != http.StatusOK {
			t.Fatalf("submit %d: %d %s", i, code, body)
		}
	}
	code, body := get(t, ts.URL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, body)
	}
	for _, field := range []string{`"evictions"`, `"bytes_used"`, `"bytes_cap"`, `"schedule_hits"`, `"schedule_misses"`} {
		if !strings.Contains(body, field) {
			t.Errorf("stats body missing %s:\n%s", field, body)
		}
	}
	var st StatsResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Memo.BytesCap != 4<<10 {
		t.Errorf("bytes cap %d, want %d", st.Memo.BytesCap, 4<<10)
	}
	if st.Memo.Evictions == 0 {
		t.Error("no evictions under a few-KiB cap and 4 distinct submits")
	}
	if st.Memo.BytesUsed <= 0 || st.Memo.BytesUsed > st.Memo.BytesCap {
		t.Errorf("bytes used %d outside (0, cap]", st.Memo.BytesUsed)
	}
	if want := s.memo.Stats(); want != st.Memo {
		t.Errorf("stats body %+v diverges from memo accounting %+v", st.Memo, want)
	}
}

// TestStoreLimitEviction: the request store forgets the oldest fingerprints,
// which then 404 on GET until resubmitted.
func TestStoreLimitEviction(t *testing.T) {
	_, ts := newTestServer(t, Options{StoreLimit: 2})
	var fps []string
	for i := 0; i < 3; i++ {
		_, body := post(t, ts.URL+"/v1/schedules", smallBody(i))
		var resp ScheduleResponse
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatal(err)
		}
		fps = append(fps, resp.Fingerprint)
	}
	if code, _ := get(t, ts.URL+"/v1/schedules/"+fps[0]); code != http.StatusNotFound {
		t.Errorf("oldest fingerprint should have been evicted, got %d", code)
	}
	for _, fp := range fps[1:] {
		if code, _ := get(t, ts.URL+"/v1/schedules/"+fp); code != http.StatusOK {
			t.Errorf("recent fingerprint %s evicted too early (%d)", fp, code)
		}
	}
}

// TestConcurrentIdenticalSubmitsSolveOnce: concurrent requests with the same
// fingerprint receive identical bytes and pay for one solve per objective —
// the memo's per-key singleflight turns the rest into hits.
func TestConcurrentIdenticalSubmitsSolveOnce(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	done := make(chan string, 4)
	for i := 0; i < 4; i++ {
		go func() {
			_, body := post(t, ts.URL+"/v1/schedules", smallBody(0))
			done <- body
		}()
	}
	first := <-done
	for i := 0; i < 3; i++ {
		if b := <-done; b != first {
			t.Fatal("concurrent identical submits got different responses")
		}
	}
	// Exactly one WCS + one ACS solve for the unique fingerprint.
	if st := s.memo.Stats(); st.ScheduleMisses != 2 {
		t.Errorf("want exactly 2 solves (WCS+ACS), got %d misses / %d hits",
			st.ScheduleMisses, st.ScheduleHits)
	}
}
