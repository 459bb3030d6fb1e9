package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/task"
)

// smallBody returns a tiny feasible two-task submit body; i perturbs the
// WCEC so distinct i give distinct fingerprints.
func smallBody(i int) string {
	return fmt.Sprintf(`{"tasks":[`+
		`{"name":"a","period_ms":10,"wcec":%g,"acec":2,"bcec":1,"ceff":1},`+
		`{"name":"b","period_ms":20,"wcec":6,"acec":3,"bcec":2,"ceff":1}]}`,
		3+0.25*float64(i))
}

func newTestServer(t *testing.T, opts Options, lower ...func(*Server)) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	for _, f := range lower {
		f(s) // lowers an unexported bound before the server takes a request
	}
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
	srv, ts := newTestServer(t, Options{})
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

	// GET and a resubmit must return byte-identical content. The GET, the
	// fingerprint's second sight, runs the pipeline on resident artefacts:
	// exactly two schedule-memo hits (WCS, then ACS) and no miss, since the
	// admission check rides inside the WCS build. It stores its bytes, so
	// the resubmit after it is answered with them and looks nothing up.
	for _, tc := range []struct {
		name string
		send func() (int, string)
		hits int64
	}{
		{"get", func() (int, string) { return get(t, ts.URL+"/v1/schedules/"+resp.Fingerprint) }, 2},
		{"resubmit", func() (int, string) { return post(t, ts.URL+"/v1/schedules", smallBody(0)) }, 0},
	} {
		before := srv.memo.Stats()
		code2, body2 := tc.send()
		after := srv.memo.Stats()
		if code2 != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, code2, body2)
		}
		if body2 != body {
			t.Errorf("%s differs from submit response:\n%s\nvs\n%s", tc.name, body2, body)
		}
		if hits, misses := after.ScheduleHits-before.ScheduleHits, after.ScheduleMisses-before.ScheduleMisses; hits != tc.hits || misses != 0 {
			t.Errorf("resident %s: %d schedule hits and %d misses, want %d and 0", tc.name, hits, misses, tc.hits)
		}
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
	// 10 cycles/ms on a unit-K model needs v=10 > Vmax=4: unschedulable.
	const infeasible = `{"tasks":[{"name":"a","period_ms":10,"wcec":100,"acec":60,"bcec":50,"ceff":1}]}`
	// The full admission body: the all-Vmax check's own text, byte for byte.
	const infeasibleBody = `{"error":"admission: core: a#0 unschedulable at Vmax: 60 cycles never scheduled"}` + "\n"
	cases := []struct {
		name, path, body string
		status           int
		want             string // the full response body, when pinned
	}{
		{"bad json", "/v1/schedules", `{`, http.StatusBadRequest, ""},
		{"unknown field", "/v1/schedules", `{"tasks":[],"nope":1}`, http.StatusBadRequest, ""},
		{"empty set", "/v1/schedules", `{"tasks":[]}`, http.StatusUnprocessableEntity, ""},
		{"bad objective", "/v1/schedules", `{"tasks":[{"name":"a","period_ms":10,"wcec":4,"acec":2,"bcec":1,"ceff":1}],"objective":"xxx"}`, http.StatusUnprocessableEntity, ""},
		{"invalid task", "/v1/schedules", `{"tasks":[{"name":"a","period_ms":10,"wcec":-4,"acec":2,"bcec":1,"ceff":1}]}`, http.StatusUnprocessableEntity, ""},
		{"too many tasks", "/v1/schedules", `{"tasks":[` +
			`{"name":"a","period_ms":10,"wcec":1,"acec":1,"bcec":1,"ceff":1},` +
			`{"name":"b","period_ms":10,"wcec":1,"acec":1,"bcec":1,"ceff":1},` +
			`{"name":"c","period_ms":10,"wcec":1,"acec":1,"bcec":1,"ceff":1}]}`, http.StatusUnprocessableEntity, ""},
		{"infeasible", "/v1/schedules", infeasible, http.StatusUnprocessableEntity, infeasibleBody},
		{"infeasible compare", "/v1/compare", infeasible, http.StatusUnprocessableEntity, infeasibleBody},
	}
	// The second round repeats every request: an infeasible set is then a
	// cached build failure, which must answer the same bytes.
	for round := 0; round < 2; round++ {
		for _, tc := range cases {
			code, body := post(t, ts.URL+tc.path, tc.body)
			if code != tc.status {
				t.Errorf("%s (round %d): want %d, got %d (%s)", tc.name, round, tc.status, code, body)
			}
			if !strings.Contains(body, `"error"`) {
				t.Errorf("%s (round %d): error body missing error field: %s", tc.name, round, body)
			}
			if tc.want != "" && body != tc.want {
				t.Errorf("%s (round %d): body %q, want %q", tc.name, round, body, tc.want)
			}
		}
	}
}

// TestPlanSizeBound: a set whose hyper-period holds more instances than
// core.CheckInstances allows is refused wherever it enters the server — a
// submit, compare or session body answers 422 and a stored request reads as
// absent — before anything expands it: no schedule build is attempted.
// Periods 2971 and 2999 are prime, so one hyper-period holds 5,970
// instances.
func TestPlanSizeBound(t *testing.T) {
	blobs := store.NewMemBlobs()
	s, ts := newTestServer(t, Options{Checkpoints: blobs})
	const oversized = `{"tasks":[` +
		`{"name":"a","period_ms":2971,"wcec":1,"acec":1,"bcec":1,"ceff":1},` +
		`{"name":"b","period_ms":2999,"wcec":1,"acec":1,"bcec":1,"ceff":1}]}`
	const want = `{"error":"admission: hyper-period expands to more than 4096 instances"}` + "\n"
	for _, path := range []string{"/v1/schedules", "/v1/compare", "/v1/sessions"} {
		if code, body := post(t, ts.URL+path, oversized); code != http.StatusUnprocessableEntity || body != want {
			t.Errorf("%s: %d %q, want 422 %q", path, code, body, want)
		}
	}

	// A request blob for the same set under its own fingerprint, as a
	// peer could replicate it.
	var req SubmitRequest
	if err := json.Unmarshal([]byte(oversized), &req); err != nil {
		t.Fatal(err)
	}
	set, err := task.NewSet(req.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	cr := &canonicalRequest{set: set, objective: core.AverageCase, starts: 1}
	fp, e := cr.fingerprint()
	if e != nil {
		t.Fatal(e)
	}
	blob, err := json.Marshal(&SubmitRequest{Tasks: set.Tasks, Objective: "acs", Starts: 1})
	if err != nil {
		t.Fatal(err)
	}
	blobs.PutBlob("request-"+fp, blob)
	if code, body := get(t, ts.URL+"/v1/schedules/"+fp); code != http.StatusNotFound {
		t.Errorf("GET of an oversized stored request: %d %s, want 404", code, body)
	}
	if st := s.memo.Stats(); st.ScheduleMisses != 0 {
		t.Errorf("%d schedule builds for refused sets, want 0", st.ScheduleMisses)
	}
}

// TestStartsBound: a resolved start count above MaxStarts is refused
// wherever a request enters the server, before the solver sets up a single
// start. A submit, compare or session body answers 422, a request blob
// carrying it under its own fingerprint reads as absent, and a session
// checkpoint carrying it restores nothing and counts one checkpoint error.
// MaxStarts itself still solves.
func TestStartsBound(t *testing.T) {
	// A donor server writes the checkpoint to damage.
	donorBlobs := store.NewMemBlobs()
	_, donor := newTestServer(t, Options{Checkpoints: donorBlobs})
	sessBody, _ := sessionRows(t, 4, "many", 0)
	if code, resp := post(t, donor.URL+"/v1/sessions", sessBody); code != http.StatusOK {
		t.Fatalf("donor create: %d %s", code, resp)
	}

	blobs := store.NewMemBlobs()
	s, ts := newTestServer(t, Options{Checkpoints: blobs})
	const want = `{"error":"admission: starts must lie in [0, 16], got 17"}` + "\n"
	withStarts := func(body string, n int) string {
		return strings.TrimSuffix(body, "}") + fmt.Sprintf(`,"starts":%d}`, n)
	}
	for _, path := range []string{"/v1/schedules", "/v1/compare", "/v1/sessions"} {
		if code, body := post(t, ts.URL+path, withStarts(smallBody(0), 17)); code != http.StatusUnprocessableEntity || body != want {
			t.Errorf("%s: %d %q, want 422 %q", path, code, body, want)
		}
	}

	set, err := task.NewSet(mustSubmit(t, smallBody(0)).Tasks)
	if err != nil {
		t.Fatal(err)
	}
	fp, e := (&canonicalRequest{set: set, objective: core.AverageCase, starts: 17}).fingerprint()
	if e != nil {
		t.Fatal(e)
	}
	blob, err := json.Marshal(&SubmitRequest{Tasks: set.Tasks, Objective: "acs", Starts: 17})
	if err != nil {
		t.Fatal(err)
	}
	blobs.PutBlob("request-"+fp, blob)
	if code, body := get(t, ts.URL+"/v1/schedules/"+fp); code != http.StatusNotFound {
		t.Errorf("GET of a stored request with 17 starts: %d %s, want 404", code, body)
	}

	ckpt, _, _ := donorBlobs.GetBlob("session-many")
	var cp sessionCheckpoint
	if err := json.Unmarshal(ckpt, &cp); err != nil {
		t.Fatal(err)
	}
	cp.Starts = 17
	if ckpt, err = json.Marshal(&cp); err != nil {
		t.Fatal(err)
	}
	blobs.PutBlob("session-many", ckpt)
	if n, err := s.RestoreSessions(context.Background()); n != 0 || err != nil {
		t.Errorf("restored %d sessions (%v) from a checkpoint with 17 starts, want 0", n, err)
	}
	if n := metric(t, ts.URL, "schedd_checkpoint_errors_total"); n != 1 {
		t.Errorf("%g checkpoint errors, want 1", n)
	}
	if st := s.memo.Stats(); st.ScheduleMisses != 0 {
		t.Errorf("%d schedule builds for refused start counts, want 0", st.ScheduleMisses)
	}

	if code, body := post(t, ts.URL+"/v1/schedules", withStarts(smallBody(0), MaxStarts)); code != http.StatusOK {
		t.Errorf("submit with %d starts: %d %s, want 200", MaxStarts, code, body)
	}
}

// TestCompareHyperperiodsBound: a comparison asking for more than
// MaxSimHyperperiods hyper-periods answers 422 before any solve or
// simulation.
func TestCompareHyperperiodsBound(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	body := strings.TrimSuffix(smallBody(0), "}") + `,"hyperperiods":10001}`
	const want = `{"error":"admission: hyperperiods must lie in [0, 10000], got 10001"}` + "\n"
	if code, got := post(t, ts.URL+"/v1/compare", body); code != http.StatusUnprocessableEntity || got != want {
		t.Errorf("compare: %d %q, want 422 %q", code, got, want)
	}
	if st := s.memo.Stats(); st.ScheduleMisses != 0 || st.CompareMisses != 0 {
		t.Errorf("%d schedule and %d compare misses for a refused horizon, want 0 and 0", st.ScheduleMisses, st.CompareMisses)
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
	s, ts := newTestServer(t, Options{SimHyperperiods: 20})
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

	// Each simulation dimension keys its own compare-memo entry: a new
	// variant is one miss, its repeat a hit with the same bytes. The bytes
	// also match an evicting server (every entry dropped as it lands).
	_, evicting := newTestServer(t, Options{SimHyperperiods: 20, MemoBytes: 1})
	for i, v := range []string{
		body, // already simulated above
		strings.TrimSuffix(body, "}") + `,"seed":7}`,
		strings.TrimSuffix(body, "}") + `,"hyperperiods":10}`,
		strings.TrimSuffix(body, "}") + `,"seed":7,"hyperperiods":10}`, // already simulated above
		strings.TrimSuffix(body, "}") + `,"seed":8,"hyperperiods":10}`,
	} {
		before := s.memo.Stats()
		_, first := post(t, ts.URL+"/v1/compare", v)
		_, again := post(t, ts.URL+"/v1/compare", v)
		after := s.memo.Stats()
		wantMisses := int64(1)
		if i == 0 || i == 3 {
			wantMisses = 0
		}
		if misses, hits := after.CompareMisses-before.CompareMisses, after.CompareHits-before.CompareHits; misses != wantMisses || hits != 2-wantMisses {
			t.Errorf("variant %d: %d compare misses and %d hits, want %d and %d", i, misses, hits, wantMisses, 2-wantMisses)
		}
		if again != first {
			t.Errorf("variant %d: memo hit changed bytes:\n%s\nvs\n%s", i, again, first)
		}
		if _, other := post(t, evicting.URL+"/v1/compare", v); other != first {
			t.Errorf("variant %d: evicting server disagrees:\n%s\nvs\n%s", i, other, first)
		}
	}

	// A compare whose context is already canceled answers 503 and leaves no
	// entry behind — a cached 503 would poison the key — so the next
	// identical compare simulates afresh and answers 200.
	fresh, freshTS := newTestServer(t, Options{SimHyperperiods: 20})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	fresh.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/compare", strings.NewReader(body)).WithContext(ctx))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("compare under a canceled context: %d %s, want 503", rec.Code, rec.Body)
	}
	if code, after := post(t, freshTS.URL+"/v1/compare", body); code != http.StatusOK || after != got {
		t.Errorf("compare after a canceled one: %d %s, want 200 and the reference bytes", code, after)
	}
	if st := fresh.memo.Stats(); st.CompareMisses != 2 || st.CompareHits != 0 {
		t.Errorf("canceled then live compare: %d compare misses and %d hits, want 2 and 0", st.CompareMisses, st.CompareHits)
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
	fams := scrape(t, ts.URL)
	submits := sampleOr(t, fams, "schedd_requests_total", obs.L("endpoint", "submit"))
	if stored := sampleOr(t, fams, "schedd_stored_requests"); submits != 2 || stored != 1 {
		t.Errorf("want 2 submits of 1 stored set, got %g submits, %g stored", submits, stored)
	}
	if sampleOr(t, fams, "schedd_memo_misses_total", obs.L("kind", "schedule")) == 0 {
		t.Error("no schedule solves recorded in memo stats")
	}
	if c := sampleOr(t, fams, "schedd_memo_bytes_cap"); c != 256<<20 {
		t.Errorf("default memo cap not applied: %g", c)
	}

	s.Close()
	// The handler is still mounted; health must now refuse.
	code, _ = get(t, ts.URL+"/v1/healthz")
	if code != http.StatusServiceUnavailable {
		t.Errorf("healthz after Close: want 503, got %d", code)
	}
}

// TestStatsExposesEvictionCounters is the regression for the bounded-memo
// visibility contract: /metrics must surface the store's eviction and
// byte-accounting counters (not just hit/miss rates) under their series
// names, equal to the memo's own accounting, and they must move when
// eviction pressure is real.
func TestStatsExposesEvictionCounters(t *testing.T) {
	// A cap of a few KiB holds only a few schedules, so distinct submits
	// evict each other.
	s, ts := newTestServer(t, Options{MemoBytes: 4 << 10})
	for i := 0; i < 4; i++ {
		if code, body := post(t, ts.URL+"/v1/schedules", smallBody(i)); code != http.StatusOK {
			t.Fatalf("submit %d: %d %s", i, code, body)
		}
	}
	fams := scrape(t, ts.URL)
	st := s.memo.Stats()
	for _, c := range []struct {
		name string
		lab  []obs.Label
		want int64
	}{
		{"schedd_memo_evictions_total", nil, st.Evictions},
		{"schedd_memo_bytes_used", nil, st.BytesUsed},
		{"schedd_memo_bytes_cap", nil, st.BytesCap},
		{"schedd_memo_hits_total", []obs.Label{obs.L("kind", "schedule")}, st.ScheduleHits},
		{"schedd_memo_misses_total", []obs.Label{obs.L("kind", "schedule")}, st.ScheduleMisses},
		{"schedd_memo_hits_total", []obs.Label{obs.L("kind", "compare")}, st.CompareHits},
		{"schedd_memo_misses_total", []obs.Label{obs.L("kind", "compare")}, st.CompareMisses},
	} {
		if got := sampleOr(t, fams, c.name, c.lab...); got != float64(c.want) {
			t.Errorf("%s%v = %g, diverges from memo accounting %d", c.name, c.lab, got, c.want)
		}
	}
	if st.BytesCap != 4<<10 {
		t.Errorf("bytes cap %d, want %d", st.BytesCap, 4<<10)
	}
	if st.Evictions == 0 {
		t.Error("no evictions under a few-KiB cap and 4 distinct submits")
	}
	if st.BytesUsed <= 0 || st.BytesUsed > st.BytesCap {
		t.Errorf("bytes used %d outside (0, cap]", st.BytesUsed)
	}
}

// TestStoreLimitEviction: the request store forgets the oldest fingerprints,
// which then 404 on GET until resubmitted.
func TestStoreLimitEviction(t *testing.T) {
	_, ts := newTestServer(t, Options{}, func(s *Server) { s.storeCap = 2 })
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

// TestSubmitUncappedSubcapAliases pins that every non-positive subcap is the
// uncapped request: the expansion caps pieces only for a positive value, so
// "subcap":0 and "subcap":-1 answer the uncapped body's bytes, fingerprint
// included, from the memo entries that body already built.
func TestSubmitUncappedSubcapAliases(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	plain := smallBody(3)
	code, want := post(t, ts.URL+"/v1/schedules", plain)
	if code != http.StatusOK {
		t.Fatalf("plain submit: %d %s", code, want)
	}
	for _, subcap := range []string{`,"subcap":0`, `,"subcap":-1`} {
		before := s.memo.Stats().ScheduleMisses
		code, got := post(t, ts.URL+"/v1/schedules", strings.TrimSuffix(plain, "}")+subcap+"}")
		if code != http.StatusOK || got != want {
			t.Errorf("%s: %d %s\nwant the uncapped bytes %s", subcap, code, got, want)
		}
		if misses := s.memo.Stats().ScheduleMisses - before; misses != 0 {
			t.Errorf("%s: %d new schedule misses, want 0", subcap, misses)
		}
	}
}

// TestSubmitPermutationInvariance is the metamorphic pin on SubmitRequest's
// ordering contract. For named and for unnamed tasks with distinct periods,
// every permutation of a body answers byte-identical submit and compare
// responses, fingerprint included. Swapping two equal-period tasks changes
// the fingerprint, because submission order is their priority tie-break.
func TestSubmitPermutationInvariance(t *testing.T) {
	_, ts := newTestServer(t, Options{SimHyperperiods: 10})
	// body renders tasks in the given order; named tasks keep the name of
	// their index in tasks, whatever their position.
	body := func(tasks []string, named bool, order []int) string {
		parts := make([]string, len(order))
		for i, j := range order {
			name := ""
			if named {
				name = fmt.Sprintf(`"name":"t%d",`, j)
			}
			parts[i] = "{" + name + tasks[j] + "}"
		}
		return `{"tasks":[` + strings.Join(parts, ",") + `]}`
	}
	distinct := []string{
		`"period_ms":10,"wcec":3,"acec":2,"bcec":1,"ceff":1`,
		`"period_ms":20,"wcec":6,"acec":3,"bcec":2,"ceff":1`,
		`"period_ms":40,"wcec":4,"acec":2,"bcec":1,"ceff":1`,
	}
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, named := range []bool{true, false} {
		var wantSubmit, wantCompare string
		for _, order := range perms {
			b := body(distinct, named, order)
			code, sub := post(t, ts.URL+"/v1/schedules", b)
			if code != http.StatusOK {
				t.Fatalf("named=%v order %v: submit %d %s", named, order, code, sub)
			}
			code, cmp := post(t, ts.URL+"/v1/compare", b)
			if code != http.StatusOK {
				t.Fatalf("named=%v order %v: compare %d %s", named, order, code, cmp)
			}
			if wantSubmit == "" {
				wantSubmit, wantCompare = sub, cmp
				continue
			}
			if sub != wantSubmit {
				t.Errorf("named=%v order %v: submit bytes differ from order %v:\n got %s\nwant %s", named, order, perms[0], sub, wantSubmit)
			}
			if cmp != wantCompare {
				t.Errorf("named=%v order %v: compare bytes differ from order %v:\n got %s\nwant %s", named, order, perms[0], cmp, wantCompare)
			}
		}
	}

	equal := []string{
		`"period_ms":10,"wcec":2,"acec":1,"bcec":1,"ceff":1`,
		`"period_ms":10,"wcec":3,"acec":2,"bcec":1,"ceff":1`,
		`"period_ms":20,"wcec":4,"acec":2,"bcec":1,"ceff":1`,
	}
	for _, named := range []bool{true, false} {
		fps := make(map[string]bool)
		for _, order := range [][]int{{0, 1, 2}, {1, 0, 2}} {
			var req SubmitRequest
			if err := json.Unmarshal([]byte(body(equal, named, order)), &req); err != nil {
				t.Fatal(err)
			}
			fp, ok := SubmitFingerprint(&req, 0, 0)
			if !ok {
				t.Fatalf("named=%v order %v: no fingerprint", named, order)
			}
			fps[fp] = true
		}
		if len(fps) != 2 {
			t.Errorf("named=%v: swapping two equal-period tasks kept the fingerprint", named)
		}
	}
}
