package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/task"
	"repro/internal/workload"
)

// sessionBody builds a session-create body over a seeded feasible set.
func sessionBody(t testing.TB, seed uint64) (string, *task.Set) {
	t.Helper()
	rng := stats.NewRNG(seed)
	set, err := workload.RandomFeasible(rng, workload.RandomConfig{N: 3, Ratio: 0.1, Utilization: 0.7}, 50,
		func(s *task.Set) bool { return core.Feasible(s, core.Config{}) == nil })
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(struct {
		Tasks []task.Task `json:"tasks"`
	}{set.Tasks})
	if err != nil {
		t.Fatal(err)
	}
	return string(b), set
}

// observeBody renders hyper-period rows as an observe request.
func observeBody(t *testing.T, rows [][]float64) string {
	t.Helper()
	b, err := json.Marshal(ObserveRequest{Hyperperiods: rows})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSessionLifecycle drives the full closed loop over HTTP: create a
// session, stream a mode-switching workload through observe in chunks, see
// the re-solved schedule arrive with a changed fingerprint, and read the
// estimator state back.
func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body, set := sessionBody(t, 1)

	code, resp := post(t, ts.URL+"/v1/sessions", body)
	if code != http.StatusOK {
		t.Fatalf("create: %d %s", code, resp)
	}
	var created SessionResponse
	if err := json.Unmarshal([]byte(resp), &created); err != nil {
		t.Fatal(err)
	}
	if created.SessionID == "" || created.Instances == 0 || created.Schedule.Fingerprint == "" {
		t.Fatalf("incomplete create response: %+v", created)
	}
	if created.State != "tracking" {
		t.Errorf("fresh session state %q", created.State)
	}
	if len(created.Schedule.EndMs) == 0 || len(created.Schedule.EndMs) != len(created.Schedule.WCWorkCycles) {
		t.Fatalf("create response missing schedule vectors")
	}

	// Mode-switching stream: the session must adapt within the horizon.
	sc, err := workload.NewScenario(set, workload.ScenarioConfig{Kind: workload.ModeSwitch, Seed: 5, SwitchEvery: 60})
	if err != nil {
		t.Fatal(err)
	}
	taskOf := make([]int, created.Instances)
	ins, err := set.Instances()
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != created.Instances {
		t.Fatalf("server reports %d instances, set expands to %d", created.Instances, len(ins))
	}
	for i := range ins {
		taskOf[i] = ins[i].TaskIndex
	}
	rows, err := sc.Actuals(150, taskOf)
	if err != nil {
		t.Fatal(err)
	}

	resolved := 0
	var lastSchedule *SessionSchedule
	base := ts.URL + "/v1/sessions/" + created.SessionID
	for lo := 0; lo < len(rows); lo += 10 {
		code, resp := post(t, base+"/observe", observeBody(t, rows[lo:lo+10]))
		if code != http.StatusOK {
			t.Fatalf("observe at %d: %d %s", lo, code, resp)
		}
		var ob ObserveResponse
		if err := json.Unmarshal([]byte(resp), &ob); err != nil {
			t.Fatal(err)
		}
		if ob.Resolved {
			resolved++
			if ob.Schedule == nil || ob.ResolvedHyperperiod == nil {
				t.Fatalf("resolved answer missing schedule or resolve point: %s", resp)
			}
			lastSchedule = ob.Schedule
		} else if ob.Schedule != nil {
			t.Fatalf("no-change answer carried a schedule: %s", resp)
		}
	}
	if resolved == 0 {
		t.Fatal("mode-switch stream never re-solved")
	}
	if lastSchedule.Fingerprint == created.Schedule.Fingerprint {
		t.Error("re-solved schedule kept the initial fingerprint")
	}

	code, resp = get(t, base)
	if code != http.StatusOK {
		t.Fatalf("status: %d %s", code, resp)
	}
	var st SessionStatusResponse
	if err := json.Unmarshal([]byte(resp), &st); err != nil {
		t.Fatal(err)
	}
	if st.Observed != 150 || st.Resolves != int64(resolved) {
		t.Errorf("status observed=%d resolves=%d, want 150/%d", st.Observed, st.Resolves, resolved)
	}
	if len(st.Estimates) != set.N() {
		t.Fatalf("%d estimates for %d tasks", len(st.Estimates), set.N())
	}
	for _, e := range st.Estimates {
		if e.Count == 0 || e.Mean <= 0 {
			t.Errorf("task %s estimator empty: %+v", e.Task, e)
		}
	}
	if st.Schedule.Fingerprint != lastSchedule.Fingerprint {
		t.Error("status schedule is not the last re-solved one")
	}
}

// TestSessionHistoryDeterminism: two sessions created from the same body and
// fed the same observation stream answer identical schedule payloads at
// every step — the session determinism contract (pure function of creation
// body + observation history).
func TestSessionHistoryDeterminism(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body, set := sessionBody(t, 2)
	sc, err := workload.NewScenario(set, workload.ScenarioConfig{Kind: workload.ModeSwitch, Seed: 9, SwitchEvery: 50})
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
	rows, err := sc.Actuals(130, taskOf)
	if err != nil {
		t.Fatal(err)
	}

	run := func() []string {
		code, resp := post(t, ts.URL+"/v1/sessions", body)
		if code != http.StatusOK {
			t.Fatalf("create: %d %s", code, resp)
		}
		var created SessionResponse
		if err := json.Unmarshal([]byte(resp), &created); err != nil {
			t.Fatal(err)
		}
		out := []string{created.Schedule.Fingerprint}
		for lo := 0; lo < len(rows); lo += 13 {
			hi := lo + 13
			if hi > len(rows) {
				hi = len(rows)
			}
			code, resp := post(t, ts.URL+"/v1/sessions/"+created.SessionID+"/observe", observeBody(t, rows[lo:hi]))
			if code != http.StatusOK {
				t.Fatalf("observe: %d %s", code, resp)
			}
			var ob ObserveResponse
			if err := json.Unmarshal([]byte(resp), &ob); err != nil {
				t.Fatal(err)
			}
			if ob.Resolved {
				b, err := json.Marshal(ob.Schedule)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, string(b))
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) < 2 {
		t.Fatal("stream triggered no re-solves — determinism check vacuous")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("session schedule trajectories differ:\n%v\nvs\n%v", a, b)
	}
}

// TestSessionFingerprintMatchesSubmit: a session's initial schedule carries
// the same content address a plain submit of the same body produces — one
// fingerprint address space across both APIs (the session strips the
// controller-managed warm start before keying).
func TestSessionFingerprintMatchesSubmit(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body, _ := sessionBody(t, 4)

	code, resp := post(t, ts.URL+"/v1/schedules", body)
	if code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, resp)
	}
	var sub ScheduleResponse
	if err := json.Unmarshal([]byte(resp), &sub); err != nil {
		t.Fatal(err)
	}
	code, resp = post(t, ts.URL+"/v1/sessions", body)
	if code != http.StatusOK {
		t.Fatalf("create: %d %s", code, resp)
	}
	var created SessionResponse
	if err := json.Unmarshal([]byte(resp), &created); err != nil {
		t.Fatal(err)
	}
	if created.Schedule.Fingerprint != sub.Fingerprint {
		t.Errorf("session fingerprint %s differs from submit fingerprint %s for the same body",
			created.Schedule.Fingerprint, sub.Fingerprint)
	}
	// And the submit handle works: the session's fingerprint resolves on
	// GET /v1/schedules.
	if code, _ := get(t, ts.URL+"/v1/schedules/"+created.Schedule.Fingerprint); code != http.StatusOK {
		t.Errorf("session fingerprint not fetchable via /v1/schedules: %d", code)
	}
}

func TestSessionRejections(t *testing.T) {
	srv, ts := newTestServer(t, Options{Checkpoints: store.NewMemBlobs()}, func(s *Server) { s.sessionCap, s.batchCap = 1, 4 })
	body, set := sessionBody(t, 3)

	if code, resp := post(t, ts.URL+"/v1/sessions", `{"tasks":[]}`); code != http.StatusUnprocessableEntity {
		t.Errorf("empty set: %d %s", code, resp)
	}
	// "bins" sized an estimator histogram that no longer exists; like any
	// unknown field it is refused.
	if code, resp := post(t, ts.URL+"/v1/sessions", `{"bins":32,`+body[1:]); code != http.StatusBadRequest {
		t.Errorf("bins field: %d %s", code, resp)
	}
	if code, resp := post(t, ts.URL+"/v1/sessions",
		strings.Replace(body, `{"tasks":`, `{"objective":"wcs","tasks":`, 1)); code != http.StatusUnprocessableEntity {
		t.Errorf("wcs objective: %d %s", code, resp)
	}
	// The controller's first WCS build is the admission check: the same
	// full body a submit of the set answers, again once the failure is cached.
	const infeasible = `{"tasks":[{"name":"a","period_ms":10,"wcec":100,"acec":60,"bcec":50,"ceff":1}]}`
	const infeasibleBody = `{"error":"admission: core: a#0 unschedulable at Vmax: 60 cycles never scheduled"}` + "\n"
	for round := 0; round < 2; round++ {
		if code, resp := post(t, ts.URL+"/v1/sessions", infeasible); code != http.StatusUnprocessableEntity || resp != infeasibleBody {
			t.Errorf("infeasible set (round %d): %d %q, want 422 %q", round, code, resp, infeasibleBody)
		}
	}

	code, resp := post(t, ts.URL+"/v1/sessions", body)
	if code != http.StatusOK {
		t.Fatalf("create: %d %s", code, resp)
	}
	var created SessionResponse
	if err := json.Unmarshal([]byte(resp), &created); err != nil {
		t.Fatal(err)
	}

	// Session limit binds.
	if code, resp := post(t, ts.URL+"/v1/sessions", body); code != http.StatusServiceUnavailable {
		t.Errorf("over session limit: %d %s", code, resp)
	}

	obs := ts.URL + "/v1/sessions/" + created.SessionID + "/observe"
	if code, resp := post(t, ts.URL+"/v1/sessions/nope/observe", `{"hyperperiods":[[1]]}`); code != http.StatusNotFound {
		t.Errorf("unknown session observe: %d %s", code, resp)
	}
	if code, resp := get(t, ts.URL+"/v1/sessions/nope"); code != http.StatusNotFound {
		t.Errorf("unknown session get: %d %s", code, resp)
	}
	if code, resp := post(t, obs, `{"hyperperiods":[]}`); code != http.StatusUnprocessableEntity {
		t.Errorf("empty observe: %d %s", code, resp)
	}
	if code, resp := post(t, obs, observeBody(t, make([][]float64, 5))); code != http.StatusUnprocessableEntity {
		t.Errorf("oversize observe batch: %d %s", code, resp)
	}
	// Wrong observation width is a 422 from the controller.
	if code, resp := post(t, obs, `{"hyperperiods":[[1,2]]}`); code != http.StatusUnprocessableEntity {
		t.Errorf("wrong-width observe: %d %s", code, resp)
	}

	// Bodies the observe decode fast path declines, each with the full
	// answer encoding/json gives it, in order (each 200 folds one row).
	ins, err := set.Instances()
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, len(ins))
	for j, in := range ins {
		row[j] = set.Tasks[in.TaskIndex].ACEC
	}
	rb, err := json.Marshal(row)
	if err != nil {
		t.Fatal(err)
	}
	edges := append(observeEdges(string(rb)), observeEdge{"over 4 MiB",
		`{"hyperperiods":[[` + strings.Repeat("1,", 2<<20) + `1]]}`, http.StatusBadRequest,
		`{"error":"parsing request: http: request body too large"}`})
	for _, e := range edges {
		if code, resp := post(t, obs, e.body); code != e.code || resp != e.resp+"\n" {
			t.Errorf("%s: %d %q, want %d %q", e.name, code, resp, e.code, e.resp+"\n")
		}
	}

	// One instance observed outside [0, WCEC] refuses its batch before the
	// batch's first row is folded: 1e200 cycles would fold to an infinite
	// m2, which neither a checkpoint nor a status GET can encode.
	for _, x := range []float64{1e200, -1} {
		bad := append([]float64(nil), row...)
		bad[0] = x
		if code, resp := post(t, obs, observeBody(t, [][]float64{row, bad})); code != http.StatusUnprocessableEntity ||
			!strings.Contains(resp, "outside [0, WCEC") {
			t.Errorf("an observation of %g cycles: %d %s", x, code, resp)
		}
	}
	code, resp = get(t, ts.URL+"/v1/sessions/"+created.SessionID)
	var status SessionStatusResponse
	if code != http.StatusOK || json.Unmarshal([]byte(resp), &status) != nil || status.Observed != 6 {
		t.Errorf("status after the refused observes: %d %s, want 200 at 6 hyper-periods", code, resp)
	}
	if n := srv.m.checkpointErrs.Value(); n != 0 {
		t.Errorf("%d checkpoint errors, want 0", n)
	}
}

// observeEdge is an observe body whose shape the decode fast path declines,
// with the status and response body (less its newline) a session answers
// it with in TestSessionRejections's sequence.
type observeEdge struct {
	name, body string
	code       int
	resp       string
}

// observeEdges lists the declined shapes around row, one hyper-period of
// valid observations, rendered as json.Marshal renders it. encoding/json
// accepts some of them: a key in another case, swapped or repeated keys,
// whitespace, bytes after the object and a null "at" each fold the row.
func observeEdges(row string) []observeEdge {
	folded := func(n int) string {
		return fmt.Sprintf(`{"session_id":"s1","observed_hyperperiods":%d,"drift":false,"resolved":false,"state":"tracking"}`, n)
	}
	rejected := func(msg string) string { return `{"error":"parsing request: ` + msg + `"}` }
	const bad = http.StatusBadRequest
	return []observeEdge{
		{"unknown key", `{"hyperperiods":[` + row + `],"extra":1}`, bad, rejected(`json: unknown field \"extra\"`)},
		{"upper-case key", `{"Hyperperiods":[` + row + `]}`, http.StatusOK, folded(1)},
		{"swapped keys", `{"at":1,"hyperperiods":[` + row + `]}`, http.StatusOK, folded(2)},
		{"duplicate key", `{"hyperperiods":[[1]],"hyperperiods":[` + row + `]}`, http.StatusOK, folded(3)},
		{"whitespace", `{"hyperperiods": [` + row + `]}`, http.StatusOK, folded(4)},
		{"trailing bytes", `{"hyperperiods":[` + row + `]}]`, http.StatusOK, folded(5)},
		{"plus sign", `{"hyperperiods":[[+1]]}`, bad, rejected("invalid character '+' looking for beginning of value")},
		{"bare fraction", `{"hyperperiods":[[.5]]}`, bad, rejected("invalid character '.' looking for beginning of value")},
		{"leading zero", `{"hyperperiods":[[01]]}`, bad, rejected("invalid character '1' after array element")},
		{"out of range", `{"hyperperiods":[[1e400]]}`, bad,
			rejected("json: cannot unmarshal number 1e400 into Go struct field ObserveRequest.hyperperiods of type float64")},
		{"NaN", `{"hyperperiods":[[NaN]]}`, bad, rejected("invalid character 'N' looking for beginning of value")},
		{"fractional at", `{"hyperperiods":[[1]],"at":1.5}`, bad,
			rejected("json: cannot unmarshal number 1.5 into Go struct field ObserveRequest.at of type int64")},
		{"null at", `{"hyperperiods":[` + row + `],"at":null}`, http.StatusOK, folded(6)},
	}
}

// FuzzObserveBody sends a raw observe body twice to session fz of a fresh
// server over an in-memory checkpoint store. Every answer is 200, 400, 409
// or 422, never a 500 or a panic; after each, the session's status answers
// 200 and no checkpoint error has been counted; and a second fresh server
// answers the same requests with the same bytes. Every solve goes through
// one shared memo, and the batch limit is lowered to 16 hyper-periods so a
// long body costs a 422, not a run of re-solves.
func FuzzObserveBody(f *testing.F) {
	set, err := task.NewSet(mustSubmit(f, smallBody(0)).Tasks)
	if err != nil {
		f.Fatal(err)
	}
	ins, err := set.Instances()
	if err != nil {
		f.Fatal(err)
	}
	// batch renders n hyper-periods at the stated ACEC, edit applied to
	// the last, with the given suffix after the list.
	batch := func(n int, edit func(row []float64), suffix string) []byte {
		rows := make([][]float64, n)
		for i := range rows {
			for _, in := range ins {
				rows[i] = append(rows[i], set.Tasks[in.TaskIndex].ACEC)
			}
		}
		edit(rows[n-1])
		b, err := json.Marshal(ObserveRequest{Hyperperiods: rows})
		if err != nil {
			f.Fatal(err)
		}
		return append(b[:len(b)-1], suffix+"}"...)
	}
	same := func([]float64) {}
	f.Add(batch(3, same, ""))
	f.Add(batch(6, func(row []float64) { row[0] = set.Tasks[ins[0].TaskIndex].WCEC }, `,"at":0`))
	f.Add(batch(1, same, `,"at":5`))
	f.Add([]byte(`{"hyperperiods":[[1,2]]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"hyperperiods":[]}`))
	f.Add(batch(2, func(row []float64) { row[0] = 1e200 }, ""))
	f.Add(batch(2, func(row []float64) { row[1] = -1 }, ""))

	create := []byte(`{"session_id":"fz","min_samples":4,"relearn":4,` + smallBody(0)[1:])
	memo := grid.NewMemStore(0)
	run := func(t *testing.T, body []byte) []string {
		s := New(Options{MaxTasks: 3, Store: memo, Checkpoints: store.NewMemBlobs()})
		defer s.Close()
		s.batchCap = 16
		h := s.Handler()
		if code, resp := serveOn(h, "POST", "/v1/sessions", create); code != http.StatusOK {
			t.Fatalf("create: %d %s", code, resp)
		}
		var answers []string
		for range 2 {
			code, resp := serveOn(h, "POST", "/v1/sessions/fz/observe", body)
			switch code {
			case http.StatusOK, http.StatusBadRequest, http.StatusConflict, http.StatusUnprocessableEntity:
			default:
				t.Fatalf("observe: %d %s", code, resp)
			}
			statusCode, status := serveOn(h, "GET", "/v1/sessions/fz", nil)
			if n := s.m.checkpointErrs.Value(); statusCode != http.StatusOK || n != 0 {
				t.Fatalf("after observe answered %d %s: status %d %s, %d checkpoint errors", code, resp, statusCode, status, n)
			}
			answers = append(answers, fmt.Sprint(code, " ", resp), status)
		}
		return answers
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		first := run(t, body)
		if again := run(t, body); !slices.Equal(again, first) {
			t.Fatalf("a fresh server answered %q, want %q", again, first)
		}
	})
}
