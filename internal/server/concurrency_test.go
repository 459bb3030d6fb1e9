package server

import (
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
