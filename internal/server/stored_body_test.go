package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/store"
	"repro/internal/task"
)

// tryGet is the goroutine-safe GET helper.
func tryGet(url string) (int, string, error) {
	resp, err := http.Get(url)
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

// submitFP submits body, requires a 200 and returns the answer and its
// fingerprint.
func submitFP(t *testing.T, base, body string) (resp, fp string) {
	t.Helper()
	code, resp := post(t, base+"/v1/schedules", body)
	if code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, resp)
	}
	var sr ScheduleResponse
	if err := json.Unmarshal([]byte(resp), &sr); err != nil {
		t.Fatal(err)
	}
	return resp, sr.Fingerprint
}

// TestStoredBodyIdentity pins the stored-body answer (DESIGN.md §7, "Memo
// hits recompute nothing"): a fingerprint's third and later submits and
// GETs are answered with the bytes its first repeat stored, and those are
// the pipeline's bytes, across repeats, a restart, the solve budget,
// eviction and the byte cap.
func TestStoredBodyIdentity(t *testing.T) {
	bodies := []struct{ name, body string }{
		{"set 0", smallBody(0)},
		{"set 1", smallBody(1)},
		{"set 2", smallBody(2)},
		{"wcs", strings.TrimSuffix(smallBody(0), "}") + `,"objective":"wcs"}`},
		{"cores 2", strings.TrimSuffix(smallBody(1), "}") + `,"cores":2}`},
	}

	t.Run("repeats", func(t *testing.T) {
		_, ts := newTestServer(t, Options{})
		total := 0
		for _, b := range bodies {
			hits := metric(t, ts.URL, "schedd_stored_body_hits_total")
			first, fp := submitFP(t, ts.URL, b.body)
			_, second := post(t, ts.URL+"/v1/schedules", b.body)
			_, fetched := get(t, ts.URL+"/v1/schedules/"+fp)
			_, third := post(t, ts.URL+"/v1/schedules", b.body)
			for i, got := range []string{second, fetched, third} {
				if got != first {
					t.Errorf("%s: answer %d differs from the first submit's:\n%s\nvs\n%s", b.name, i+2, got, first)
				}
			}
			// The second submit stores; the GET and the third submit answer
			// with what it stored.
			if d := metric(t, ts.URL, "schedd_stored_body_hits_total") - hits; d != 2 {
				t.Errorf("%s: %g stored-body answers, want 2 (the GET and the third submit)", b.name, d)
			}
			total += len(first)
		}
		if got := metric(t, ts.URL, "schedd_stored_body_bytes"); got != float64(total) {
			t.Errorf("stored body bytes %g, want %d: one body per fingerprint", got, total)
		}
	})

	t.Run("restart", func(t *testing.T) {
		dir := t.TempDir()
		// boot starts a daemon on the store at dir; stop closes it and the
		// store, once.
		boot := func() (url string, stop func()) {
			d, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			s := New(Options{Store: store.NewTiered(grid.NewMemStore(0), d), Checkpoints: d})
			ts := httptest.NewServer(s.Handler())
			var once sync.Once
			stop = func() {
				once.Do(func() {
					ts.Close()
					s.Close()
					d.Close()
				})
			}
			t.Cleanup(stop)
			return ts.URL, stop
		}
		url, stop := boot()
		first, fp := submitFP(t, url, smallBody(0))
		post(t, url+"/v1/schedules", smallBody(0))
		if n := metric(t, url, "schedd_stored_body_bytes"); n != float64(len(first)) {
			t.Fatalf("stored body bytes %g before the restart, want %d", n, len(first))
		}
		stop()
		url, _ = boot()
		code, rebuilt := get(t, url+"/v1/schedules/"+fp)
		if code != http.StatusOK || rebuilt != first {
			t.Fatalf("GET after a restart: %d %s, want the submit's bytes %s", code, rebuilt, first)
		}
		if n := metric(t, url, "schedd_stored_body_hits_total"); n != 0 {
			t.Errorf("GET after a restart answered from a stored body (%g); stored bodies live in memory only", n)
		}
		if _, again := post(t, url+"/v1/schedules", smallBody(0)); again != first {
			t.Errorf("resubmit after a restart: %s, want %s", again, first)
		}
		if n := metric(t, url, "schedd_stored_body_hits_total"); n != 1 {
			t.Errorf("%g stored-body answers after the restart, want 1 (the resubmit)", n)
		}
	})

	t.Run("budget", func(t *testing.T) {
		_, ts := newTestServer(t, Options{SolveBudget: time.Nanosecond})
		var fp string
		for i := 0; i < 3; i++ {
			resp, got := submitFP(t, ts.URL, smallBody(0))
			if !strings.Contains(resp, `"degraded":true`) {
				t.Fatalf("submit %d under a 1ns budget is not degraded: %s", i, resp)
			}
			fp = got
		}
		if code, resp := get(t, ts.URL+"/v1/schedules/"+fp); code != http.StatusOK || !strings.Contains(resp, `"degraded":true`) {
			t.Errorf("GET under a 1ns budget: %d %s, want a degraded 200", code, resp)
		}
		if n := metric(t, ts.URL, "schedd_stored_body_bytes"); n != 0 {
			t.Errorf("%g bytes of degraded bodies stored, want 0", n)
		}
		if n := metric(t, ts.URL, "schedd_stored_body_hits_total"); n != 0 {
			t.Errorf("%g stored-body answers under the budget, want 0", n)
		}
	})

	t.Run("eviction", func(t *testing.T) {
		s, ts := newTestServer(t, Options{}, func(s *Server) { s.storeCap = 1 })
		first, fp := submitFP(t, ts.URL, smallBody(0))
		post(t, ts.URL+"/v1/schedules", smallBody(0))
		if n := metric(t, ts.URL, "schedd_stored_body_bytes"); n != float64(len(first)) {
			t.Fatalf("stored body bytes %g, want %d", n, len(first))
		}
		submitFP(t, ts.URL, smallBody(1)) // evicts set 0's request and body
		if n := metric(t, ts.URL, "schedd_stored_body_bytes"); n != 0 {
			t.Errorf("stored body bytes %g after evicting the only stored body, want 0", n)
		}
		s.mu.Lock()
		_, held := s.requests[fp]
		s.mu.Unlock()
		if held {
			t.Fatal("a store cap of 1 kept the evicted request")
		}
		hits := metric(t, ts.URL, "schedd_stored_body_hits_total")
		if _, again := post(t, ts.URL+"/v1/schedules", smallBody(0)); again != first {
			t.Errorf("resubmit after eviction: %s, want %s", again, first)
		}
		if n := metric(t, ts.URL, "schedd_stored_body_hits_total"); n != hits {
			t.Errorf("an evicted fingerprint was answered from a stored body")
		}
	})

	t.Run("cap", func(t *testing.T) {
		s, ts := newTestServer(t, Options{})
		first, _ := submitFP(t, ts.URL, smallBody(0))
		s.mu.Lock()
		s.bodyCap = int64(len(first)) // room for set 0's body and nothing more
		s.mu.Unlock()
		for _, body := range []string{smallBody(0), smallBody(1), smallBody(2)} {
			want, _ := submitFP(t, ts.URL, body)
			for i := 0; i < 3; i++ {
				if _, got := post(t, ts.URL+"/v1/schedules", body); got != want {
					t.Errorf("repeat %d past the cap: %s, want %s", i, got, want)
				}
			}
		}
		if n := metric(t, ts.URL, "schedd_stored_body_bytes"); n != float64(len(first)) {
			t.Errorf("stored body bytes %g under a cap of %d, want exactly set 0's body", n, len(first))
		}
		// Set 0's second submit stored its body, which answered the three
		// repeats after it; sets 1 and 2 did not fit.
		if n := metric(t, ts.URL, "schedd_stored_body_hits_total"); n != 3 {
			t.Errorf("%g stored-body answers, want 3", n)
		}
	})
}

// TestConcurrentRepeatsShareStoredBody: eight clients repeating one submit
// and its GET race to store one body. They all read the same bytes, the set
// is solved once (a WCS and an ACS miss), and exactly one body is kept.
func TestConcurrentRepeatsShareStoredBody(t *testing.T) {
	const clients, rounds = 8, 5
	s, ts := newTestServer(t, Options{})
	answers := make([][]string, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				code, body, err := tryPost(ts.URL+"/v1/schedules", smallBody(0))
				if err != nil || code != http.StatusOK {
					errs[c] = fmt.Errorf("submit: %d %s %v", code, body, err)
					return
				}
				var sr ScheduleResponse
				if err := json.Unmarshal([]byte(body), &sr); err != nil {
					errs[c] = err
					return
				}
				code, fetched, err := tryGet(ts.URL + "/v1/schedules/" + sr.Fingerprint)
				if err != nil || code != http.StatusOK {
					errs[c] = fmt.Errorf("get: %d %s %v", code, fetched, err)
					return
				}
				answers[c] = append(answers[c], body, fetched)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	want := answers[0][0]
	for c := range answers {
		for i, got := range answers[c] {
			if got != want {
				t.Fatalf("client %d answer %d differs:\n%s\nvs\n%s", c, i, got, want)
			}
		}
	}
	if st := s.memo.Stats(); st.ScheduleMisses != 2 {
		t.Errorf("%d schedule misses, want 2 (one WCS and one ACS solve)", st.ScheduleMisses)
	}
	if n := metric(t, ts.URL, "schedd_stored_body_bytes"); n != float64(len(want)) {
		t.Errorf("stored body bytes %g, want one body's %d", n, len(want))
	}
}

// raceEnabled is set in race builds (race_test.go).
var raceEnabled bool

// TestStoredBodyAllocs pins the allocations of the three serving fast
// paths, through the handler with a fresh request and recorder each time: a
// stored-body GET and resubmit, and a memo-hit compare. A GET that runs the
// pipeline instead allocates 36 more (69), so losing the fast path fails
// here. The counts are go1.24's, pinned exactly. A race build only bounds
// them: the race detector drops sync.Pool items at random, so a path that
// encodes JSON allocates a varying amount (71 to 73 for the compare). A
// change that moves a count re-pins it and says why.
func TestStoredBodyAllocs(t *testing.T) {
	s := New(Options{SimHyperperiods: 20})
	defer s.Close()
	h := s.Handler()
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	first := serve("POST", "/v1/schedules", smallBody(0))
	serve("POST", "/v1/schedules", smallBody(0)) // the repeat stores the body
	var sr ScheduleResponse
	if err := json.Unmarshal(first.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	compared := serve("POST", "/v1/compare", smallBody(0))
	if first.Code != http.StatusOK || compared.Code != http.StatusOK {
		t.Fatalf("set-up: submit %d, compare %d", first.Code, compared.Code)
	}

	const runs = 100
	for _, c := range []struct {
		name, method, path string
		want               *httptest.ResponseRecorder
		stored             bool
		allocs, raceMax    float64
	}{
		{"stored GET", "GET", "/v1/schedules/" + sr.Fingerprint, first, true, 33, 34},
		{"stored resubmit", "POST", "/v1/schedules", first, true, 59, 60},
		{"memo-hit compare", "POST", "/v1/compare", compared, false, 68, 76},
	} {
		body := ""
		if c.method == "POST" {
			body = smallBody(0)
		}
		hits, compareHits := s.m.storedHits.Value(), s.memo.Stats().CompareHits
		var last *httptest.ResponseRecorder
		var reads [3]float64
		for i := range reads {
			reads[i] = testing.AllocsPerRun(runs, func() {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(body)))
				last = rec
			})
		}
		// The median of three readings: about one request in 400 through
		// the middleware counts one allocation fewer, which once in some
		// hundreds of readings takes one to the count below.
		slices.Sort(reads[:])
		got := reads[1]
		if !bytes.Equal(last.Body.Bytes(), c.want.Body.Bytes()) {
			t.Errorf("%s: answered %s, want %s", c.name, last.Body, c.want.Body)
		}
		// AllocsPerRun makes one warm-up call before the measured ones.
		calls := int64(len(reads) * (runs + 1))
		wantHits, wantCompareHits := int64(0), calls
		if c.stored {
			wantHits, wantCompareHits = calls, 0
		}
		if d := s.m.storedHits.Value() - hits; d != wantHits {
			t.Errorf("%s: %d stored-body answers in %d calls, want %d", c.name, d, calls, wantHits)
		}
		if d := s.memo.Stats().CompareHits - compareHits; d != wantCompareHits {
			t.Errorf("%s: %d compare-memo hits in %d calls, want %d", c.name, d, calls, wantCompareHits)
		}
		switch {
		case raceEnabled && got > c.raceMax:
			t.Errorf("%s: %g allocations per request in a race build, want at most %g", c.name, got, c.raceMax)
		case !raceEnabled && got != c.allocs:
			t.Errorf("%s: %g allocations per request, want %g", c.name, got, c.allocs)
		}
	}
}

// TestObserveAllocs pins the allocations of a cheap observe through the
// handler, with a fresh request and recorder each time: one hyper-period at
// the model's ACEC, so nothing drifts, folded and checkpointed into an
// in-memory blob store. The session has folded 100 hyper-periods first, so
// every measured response counts three digits. The count is go1.24's, pinned
// exactly; a race build only bounds it, as in TestStoredBodyAllocs. A
// change that moves it re-pins it and says why.
func TestObserveAllocs(t *testing.T) {
	s := New(Options{Checkpoints: store.NewMemBlobs()})
	defer s.Close()
	h := s.Handler()
	serve := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
		return rec
	}
	body, set := sessionBody(t, 4)
	if rec := serve("/v1/sessions", body); rec.Code != http.StatusOK {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	ins, err := set.Instances()
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, len(ins))
	for i := range ins {
		row[i] = set.Tasks[ins[i].TaskIndex].ACEC
	}
	obs := "/v1/sessions/s1/observe"
	if rec := serve(obs, observeBody(t, slices.Repeat([][]float64{row}, 100))); rec.Code != http.StatusOK {
		t.Fatalf("pre-fold: %d %s", rec.Code, rec.Body)
	}
	one := observeBody(t, [][]float64{row})

	const runs, allocs, raceMax = 100, 50, 61
	var last *httptest.ResponseRecorder
	var reads [3]float64
	for i := range reads {
		reads[i] = testing.AllocsPerRun(runs, func() { last = serve(obs, one) })
	}
	slices.Sort(reads[:])
	got := reads[1]
	if last.Code != http.StatusOK || !strings.Contains(last.Body.String(), `"drift":false,"resolved":false`) {
		t.Fatalf("last observe: %d %s, want a 200 without drift", last.Code, last.Body)
	}
	if n := s.session("s1").ctrl.Observed(); n != 100+int64(len(reads)*(runs+1)) {
		t.Fatalf("session folded %d hyper-periods, want %d", n, 100+len(reads)*(runs+1))
	}
	switch {
	case raceEnabled && got > raceMax:
		t.Errorf("%g allocations per observe in a race build, want at most %d", got, raceMax)
	case !raceEnabled && got != allocs:
		t.Errorf("%g allocations per observe, want %d", got, allocs)
	}
}

// fuzzCostly reports whether a submit body asks for a solve too slow for a
// fuzz smoke run (costlySolve). Such bodies take the same handler path with
// a longer solve, so skipping them only keeps the smoke fast.
func fuzzCostly(body []byte) bool {
	var req SubmitRequest
	if json.NewDecoder(bytes.NewReader(body)).Decode(&req) != nil {
		return false
	}
	return costlySolve(req.Starts, req.Tasks)
}

// costlySolve reports whether solving tasks at starts is too slow for a
// fuzz smoke run: more than 2 starts, or a set of more than 64 instances per
// hyper-period.
func costlySolve(starts int, tasks []task.Task) bool {
	if starts > 2 {
		return true
	}
	set, err := task.NewSet(tasks)
	if err != nil {
		return false
	}
	h, err := set.Hyperperiod()
	if err != nil {
		return false
	}
	var n int64
	for i := range set.Tasks {
		if n += h / set.Tasks[i].Period; n > 64 {
			return true
		}
	}
	return false
}

// FuzzSubmitBody drives raw submit bodies through the handler of one server.
// The answer is 200, 400 or 422, never a 500 (a panic answers 500 through
// the middleware); a 4xx repeats byte for byte; and a 200 is also the answer
// to a second and a third submit of the same bytes and to a GET of its
// fingerprint, the third submit answered with the body the second stored.
// Every body the door accepts, whatever its solve answers, round-trips
// through its request blob (checkBlobRoundTrip).
func FuzzSubmitBody(f *testing.F) {
	for i := 0; i < 4; i++ {
		f.Add([]byte(smallBody(i)))
	}
	f.Add([]byte(strings.TrimSuffix(smallBody(0), "}") + `,"objective":"acs","starts":2,"subcap":3,"cores":1}`))
	f.Add([]byte(strings.TrimSuffix(smallBody(0), "}") + `,"cores":2}`))
	f.Add([]byte(strings.TrimSuffix(smallBody(1), "}") + `,"objective":"wcs"}`))
	f.Add([]byte(strings.TrimSuffix(smallBody(2), "}") + `,"nope":1}`))
	f.Add([]byte(smallBody(3)[:50]))
	f.Add([]byte(`{"tasks":[{"name":"a","period_ms":-10,"wcec":3,"acec":2,"bcec":1,"ceff":1}]}`))
	f.Add([]byte(`{"tasks":[]}`))
	f.Add([]byte(`{"tasks":[{"name":"a","period_ms":10,"wcec":3,"acec":5,"bcec":1,"ceff":1}]}`))

	s := New(Options{MaxTasks: 3})
	f.Cleanup(s.Close)
	h := s.Handler()
	serve := func(method, path string, body []byte) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec.Code, rec.Body.String()
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkBlobRoundTrip(t, body, s.opts.Starts, s.opts.MaxTasks)
		if fuzzCostly(body) {
			t.Skip("solve too slow for the smoke run")
		}
		code, first := serve("POST", "/v1/schedules", body)
		switch code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusUnprocessableEntity:
			if code2, again := serve("POST", "/v1/schedules", body); code2 != code || again != first {
				t.Fatalf("repeated %d answered %d %q, want %q", code, code2, again, first)
			}
			return
		default:
			t.Fatalf("status %d: %s", code, first)
		}
		var sr ScheduleResponse
		if err := json.Unmarshal([]byte(first), &sr); err != nil {
			t.Fatalf("200 body does not parse: %v: %s", err, first)
		}
		if code, second := serve("POST", "/v1/schedules", body); code != http.StatusOK || second != first {
			t.Fatalf("second submit: %d %s, want %s", code, second, first)
		}
		s.mu.Lock()
		held := s.requests[sr.Fingerprint]
		stored := held != nil && held.body != nil
		full := s.bodyBytes+int64(len(first)) > s.bodyCap
		s.mu.Unlock()
		if !stored && !full {
			t.Fatal("a repeated 200 left no stored body under the cap")
		}
		hits := s.m.storedHits.Value()
		if code, third := serve("POST", "/v1/schedules", body); code != http.StatusOK || third != first {
			t.Fatalf("third submit: %d %s, want %s", code, third, first)
		}
		if stored && s.m.storedHits.Value() != hits+1 {
			t.Fatal("the third submit was not answered with the stored body")
		}
		if code, fetched := serve("GET", "/v1/schedules/"+sr.Fingerprint, nil); code != http.StatusOK || fetched != first {
			t.Fatalf("GET: %d %s, want %s", code, fetched, first)
		}
	})
}

// checkBlobRoundTrip: when the body door (decodeJSON, then
// canonicalizeSubmit under the given defaults) accepts body, its request
// blob decodes through decodeJSON and canonicalizes again, with no default
// starts, to the same fingerprint and the same canonical fields. lookup
// relies on this to answer a GET after an eviction or a restart.
func checkBlobRoundTrip(t *testing.T, body []byte, defaultStarts, maxTasks int) {
	t.Helper()
	var req SubmitRequest
	if decodeJSON(bytes.NewReader(body), &req) != nil {
		return
	}
	cr, e := canonicalizeSubmit(&req, defaultStarts, maxTasks)
	if e != nil {
		return
	}
	fp, e := cr.fingerprint()
	if e != nil {
		t.Fatalf("an accepted body has no fingerprint: %v", e)
	}
	blob, err := cr.blob()
	if err != nil {
		t.Fatalf("blob: %v", err)
	}
	var again SubmitRequest
	if e := decodeJSON(bytes.NewReader(blob), &again); e != nil {
		t.Fatalf("blob %s does not decode: %v", blob, e)
	}
	cr2, e := canonicalizeSubmit(&again, 0, maxTasks)
	if e != nil {
		t.Fatalf("blob %s is refused: %v", blob, e)
	}
	if fp2, e := cr2.fingerprint(); e != nil || fp2 != fp {
		t.Fatalf("blob %s fingerprints %s, want %s", blob, fp2, fp)
	}
	if !slices.Equal(cr2.set.Tasks, cr.set.Tasks) || cr2.objective != cr.objective ||
		cr2.starts != cr.starts || cr2.subCap != cr.subCap || cr2.cores != cr.cores {
		t.Fatalf("blob %s canonicalizes to %+v, want %+v", blob, *cr2, *cr)
	}
}

// FuzzCompareBody drives raw compare bodies through the handler of one
// server. The answer is 200, 400 or 422, never a 500 (a panic answers 500
// through the middleware); every answer repeats byte for byte; a 200 shows
// zero deadline misses for both schedules, and its fingerprint is the one a
// submit of the same task fields answers with. Bodies with a costly solve
// (costlySolve) or a simulation of more than 50 hyper-periods are skipped.
func FuzzCompareBody(f *testing.F) {
	for i := 0; i < 3; i++ {
		f.Add([]byte(smallBody(i)))
	}
	f.Add([]byte(strings.TrimSuffix(smallBody(0), "}") + `,"hyperperiods":7,"seed":3}`))
	f.Add([]byte(strings.TrimSuffix(smallBody(1), "}") + `,"cores":2}`))
	f.Add([]byte(strings.TrimSuffix(smallBody(2), "}") + `,"objective":"wcs"}`))
	f.Add([]byte(strings.TrimSuffix(smallBody(3), "}") + `,"hyperperiods":-1,"starts":2,"subcap":3}`))
	f.Add([]byte(strings.TrimSuffix(smallBody(0), "}") + `,"hyperperiods":10001}`))
	f.Add([]byte(smallBody(3)[:50]))
	f.Add([]byte(`{"tasks":[{"name":"a","period_ms":10,"wcec":30,"acec":2,"bcec":1,"ceff":1}]}`))
	f.Add([]byte(`{"tasks":[]}`))

	s := New(Options{MaxTasks: 3, SimHyperperiods: 20})
	f.Cleanup(s.Close)
	h := s.Handler()
	serve := func(path string, body []byte) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
		return rec.Code, rec.Body.String()
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req CompareRequest
		decoded := json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil
		simulated := req.Hyperperiods > 50 && req.Hyperperiods <= MaxSimHyperperiods
		if decoded && (costlySolve(req.Starts, req.Tasks) || simulated) {
			t.Skip("simulation too slow for the smoke run")
		}
		code, first := serve("/v1/compare", body)
		switch code {
		case http.StatusOK, http.StatusBadRequest, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("status %d: %s", code, first)
		}
		if code2, again := serve("/v1/compare", body); code2 != code || again != first {
			t.Fatalf("repeated %d answered %d %q, want %q", code, code2, again, first)
		}
		if code != http.StatusOK {
			return
		}
		var cr CompareResponse
		if err := json.Unmarshal([]byte(first), &cr); err != nil || !decoded {
			t.Fatalf("200 body does not parse (%v) or its request did not decode: %s", err, first)
		}
		if cr.ACS.DeadlineMisses != 0 || cr.WCS.DeadlineMisses != 0 {
			t.Fatalf("deadline misses under greedy reclamation: %s", first)
		}
		sub, err := json.Marshal(&req.SubmitRequest)
		if err != nil {
			t.Fatal(err)
		}
		var sr ScheduleResponse
		code, submitted := serve("/v1/schedules", sub)
		if code != http.StatusOK || json.Unmarshal([]byte(submitted), &sr) != nil || sr.Fingerprint != cr.Fingerprint {
			t.Fatalf("submit of the same fields: %d %s, want fingerprint %s", code, submitted, cr.Fingerprint)
		}
	})
}
