package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
)

// TestServerConcurrentDeterminism is the serving-path determinism pin (the
// DESIGN.md §7 contract): N parallel clients submitting overlapping task
// sets — through real HTTP and a shared bounded memo — receive responses
// byte-identical to a serial replay on a fresh server, and the whole storm
// costs exactly one WCS + one ACS solve per unique fingerprint (the memo's
// per-key singleflight). Run under -race in CI, it doubles as the data-race
// check for the request contexts and the memo's LRU bookkeeping.
func TestServerConcurrentDeterminism(t *testing.T) {
	const (
		uniqueSets = 5
		clients    = 8
		perClient  = 5
	)
	// Deterministic assignment of bodies to requests: client c's k-th
	// request uses set (c*perClient + k) mod uniqueSets, so every set is
	// hit by several clients concurrently.
	bodyFor := func(c, k int) string { return smallBody((c*perClient + k) % uniqueSets) }

	// Serial replay first, on its own server: the reference bytes.
	_, serialTS := newTestServer(t, Options{})
	reference := make(map[string]string)
	for i := 0; i < uniqueSets; i++ {
		code, body := post(t, serialTS.URL+"/v1/schedules", smallBody(i))
		if code != 200 {
			t.Fatalf("serial submit %d: %d %s", i, code, body)
		}
		reference[smallBody(i)] = body
	}

	// Concurrent storm against a fresh server.
	s, ts := newTestServer(t, Options{})
	var wg sync.WaitGroup
	results := make([][]string, clients)
	transport := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = make([]string, perClient)
			for k := 0; k < perClient; k++ {
				_, body, err := tryPost(ts.URL+"/v1/schedules", bodyFor(c, k))
				if err != nil {
					transport <- err
					return
				}
				results[c][k] = body
			}
		}(c)
	}
	wg.Wait()
	close(transport)
	for err := range transport {
		t.Fatal(err)
	}

	for c := 0; c < clients; c++ {
		for k := 0; k < perClient; k++ {
			want := reference[bodyFor(c, k)]
			if got := results[c][k]; got != want {
				t.Fatalf("client %d request %d: concurrent response differs from serial replay:\n%s\nvs\n%s",
					c, k, got, want)
			}
		}
	}

	// Exactly one solve per unique fingerprint per objective: the WCS build
	// and the warm-started ACS build. 40 requests, 10 solves.
	st := s.memo.Stats()
	if st.ScheduleMisses != 2*uniqueSets {
		t.Errorf("want %d schedule solves for %d unique sets, got %d (singleflight broken?)",
			2*uniqueSets, uniqueSets, st.ScheduleMisses)
	}
	if st.Evictions != 0 {
		t.Errorf("unexpected evictions under the default cap: %d", st.Evictions)
	}
}

// TestServerConcurrentMixedEndpoints storms submit and compare at once;
// every response class must match its own serial reference: a compare and a
// submit of the same set share memoized solves but never a response. The
// concurrent identical compares cost one simulation between them: the
// compare memo's singleflight turns the rest into hits.
func TestServerConcurrentMixedEndpoints(t *testing.T) {
	const clients = 6
	body := smallBody(1)

	_, serialTS := newTestServer(t, Options{SimHyperperiods: 10})
	_, wantSubmit := post(t, serialTS.URL+"/v1/schedules", body)
	_, wantCompare := post(t, serialTS.URL+"/v1/compare", body)

	s, ts := newTestServer(t, Options{SimHyperperiods: 10})
	var wg sync.WaitGroup
	errs := make(chan string, clients*2)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, got, err := tryPost(ts.URL+"/v1/schedules", body); err != nil {
				errs <- "submit transport: " + err.Error()
			} else if got != wantSubmit {
				errs <- "submit mismatch: " + got
			}
			if _, got, err := tryPost(ts.URL+"/v1/compare", body); err != nil {
				errs <- "compare transport: " + err.Error()
			} else if got != wantCompare {
				errs <- "compare mismatch: " + got
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if st := s.memo.Stats(); st.CompareMisses != 1 || st.CompareHits != clients-1 {
		t.Errorf("%d identical compares: %d compare misses and %d hits, want 1 and %d",
			clients, st.CompareMisses, st.CompareHits, clients-1)
	}
}

// TestConcurrentSessionsShareOneSolvePerKey: two sessions created from one
// body share the base set's WCS, so their re-solves can meet on one memo
// flight. Driven concurrently through the same mode-switch stream, they
// answer identical payload trajectories, and the memo builds each distinct
// schedule key once: the base WCS, plus one warm-started ACS per distinct
// model the sessions solved.
func TestConcurrentSessionsShareOneSolvePerKey(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	body, rows := sessionRows(t, 2, "", 130)
	ids := []string{"left", "right"}
	trajectories := make([][]string, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			trajectories[i], errs[i] = driveSession(ts.URL, id, `{"session_id":"`+id+`",`+body[1:], rows, 13)
		}(i, id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if fmt.Sprint(trajectories[0]) != fmt.Sprint(trajectories[1]) {
		t.Fatalf("session trajectories differ:\n%v\nvs\n%v", trajectories[0], trajectories[1])
	}
	fingerprints := map[string]bool{}
	resolves := 0
	for _, payload := range trajectories[0] {
		var ob ObserveResponse
		if err := json.Unmarshal([]byte(payload), &ob); err != nil {
			t.Fatal(err)
		}
		if ob.Schedule != nil {
			fingerprints[ob.Schedule.Fingerprint] = true
		}
		if ob.Resolved {
			resolves++
		}
	}
	if resolves == 0 {
		t.Fatal("the stream triggered no re-solves; the sessions never met on a key")
	}
	// Every create and every re-solve looks up two schedules: the base WCS
	// and the ACS of the session's model.
	st := s.memo.Stats()
	if want := int64(1 + len(fingerprints)); st.ScheduleMisses != want {
		t.Errorf("%d schedule misses, want %d: the base WCS and one ACS per distinct model", st.ScheduleMisses, want)
	}
	if want := int64(2 * len(ids) * (1 + resolves)); st.ScheduleHits+st.ScheduleMisses != want {
		t.Errorf("%d schedule lookups, want %d", st.ScheduleHits+st.ScheduleMisses, want)
	}
}

// driveSession creates session id from body and observes rows in chunks of
// chunk hyper-periods. It returns every answer with the session id blanked:
// the create answer's schedule, then each observe answer.
func driveSession(base, id, body string, rows [][]float64, chunk int) ([]string, error) {
	code, resp, err := tryPost(base+"/v1/sessions", body)
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("create %s: %d %s %v", id, code, resp, err)
	}
	var created SessionResponse
	if err := json.Unmarshal([]byte(resp), &created); err != nil {
		return nil, err
	}
	first, err := json.Marshal(ObserveResponse{State: created.State, Schedule: &created.Schedule})
	if err != nil {
		return nil, err
	}
	out := []string{string(first)}
	for lo := 0; lo < len(rows); lo += chunk {
		batch, err := json.Marshal(ObserveRequest{Hyperperiods: rows[lo:min(lo+chunk, len(rows))]})
		if err != nil {
			return nil, err
		}
		code, resp, err := tryPost(base+"/v1/sessions/"+id+"/observe", string(batch))
		if err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("observe %s at %d: %d %s %v", id, lo, code, resp, err)
		}
		var ob ObserveResponse
		if err := json.Unmarshal([]byte(resp), &ob); err != nil {
			return nil, err
		}
		ob.SessionID = ""
		b, err := json.Marshal(ob)
		if err != nil {
			return nil, err
		}
		out = append(out, string(b))
	}
	return out, nil
}
