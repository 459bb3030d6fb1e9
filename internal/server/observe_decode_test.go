package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"testing"

	"repro/internal/workload"
)

// observeBodies renders observe bodies shaped like a session's traffic:
// batches of full-precision observed cycles from a mode-switching stream,
// each asserting its stream position, over sets of 3 tasks and three
// positions per set.
func observeBodies(tb testing.TB, sets, batch int) [][]byte {
	tb.Helper()
	var out [][]byte
	for seed := uint64(1); seed <= uint64(sets); seed++ {
		_, set := sessionBody(tb, seed)
		ins, err := set.Instances()
		if err != nil {
			tb.Fatal(err)
		}
		taskOf := make([]int, len(ins))
		for j := range ins {
			taskOf[j] = ins[j].TaskIndex
		}
		sc, err := workload.NewScenario(set, workload.ScenarioConfig{Kind: workload.ModeSwitch, Seed: seed, SwitchEvery: 480})
		if err != nil {
			tb.Fatal(err)
		}
		for _, at := range []int64{0, 440, 960} {
			rows := make([][]float64, batch)
			for k := range rows {
				rows[k] = make([]float64, len(taskOf))
				if err := sc.FillActuals(int(at)+k, taskOf, rows[k]); err != nil {
					tb.Fatal(err)
				}
			}
			b, err := json.Marshal(ObserveRequest{Hyperperiods: rows, At: &at})
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, b)
		}
	}
	return out
}

// observeDiff describes how a differs from b, or is empty when they match
// bit for bit: row count, nil against empty rows, every float's bits, At.
func observeDiff(a, b ObserveRequest) string {
	if (a.Hyperperiods == nil) != (b.Hyperperiods == nil) || len(a.Hyperperiods) != len(b.Hyperperiods) {
		return fmt.Sprintf("rows %#v, want %#v", a.Hyperperiods, b.Hyperperiods)
	}
	for k, row := range a.Hyperperiods {
		want := b.Hyperperiods[k]
		if (row == nil) != (want == nil) || len(row) != len(want) {
			return fmt.Sprintf("row %d is %#v, want %#v", k, row, want)
		}
		for j := range row {
			if math.Float64bits(row[j]) != math.Float64bits(want[j]) {
				return fmt.Sprintf("row %d value %d is %v, want %v", k, j, row[j], want[j])
			}
		}
	}
	if (a.At == nil) != (b.At == nil) || a.At != nil && *a.At != *b.At {
		return fmt.Sprintf("at %v, want %v", a.At, b.At)
	}
	return ""
}

// bodyRequest is the part of an observe request the decoders read.
func bodyRequest(body []byte) *http.Request {
	return &http.Request{Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body))}
}

// FuzzObserveDecode pins the observe decode fast path to encoding/json: on
// any bytes, parseObserve either declines or returns exactly what decode
// returns; decodeObserve answers exactly as decode does, errors included;
// and a body json.Marshal emits (with no null in it) is never declined.
func FuzzObserveDecode(f *testing.F) {
	// Short batches: the fuzzer minimises every input that finds new
	// coverage, which takes long on a 40-row body.
	for _, b := range observeBodies(f, 1, 4) {
		f.Add(b)
	}
	for _, e := range observeEdges("[1,2.5,-0,1e-7,1.5e+300]") {
		if _, ok := parseObserve([]byte(e.body)); ok {
			f.Errorf("fast path accepted the %s body %s", e.name, e.body)
		}
		f.Add([]byte(e.body))
	}
	for _, s := range []string{
		`{"hyperperiods":[]}`, `{"hyperperiods":[[]]}`, `{"hyperperiods":[[],[0]],"at":-0}`,
		`{"hyperperiods":null}`, `{"hyperperiods":[null]}`, `{"hyperperiods":[[null]]}`,
		`{"hyperperiods":[[1]],"at":9223372036854775808}`, `{"hyperperiods":[[0x1p3]]}`,
		`{"hyperperiods":[[1_0]]}`, `{"hyperperiods":[[Inf]]}`, `{"hyperperiods":[[1.]]}`,
		`{"hyperperiods":[[1e]]}`, `{"hyperperiods":[[-]]}`, `{"hyperperiods":[[1]],"at":01}`,
		`{"hyperperiods":[[1]],"at":+1}`, `{"hyperperiods":[[1]],"at":1e2}`, `{"hyperperiods":[[1]]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want ObserveRequest
		wantErr := decode(bodyRequest(data), &want)
		var got ObserveRequest
		gotErr := decodeObserve(bodyRequest(data), &got)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("%q: decodeObserve error %v, decode error %v", data, gotErr, wantErr)
		case gotErr != nil && (gotErr.status != wantErr.status || gotErr.msg != wantErr.msg):
			t.Fatalf("%q: decodeObserve answers %d %q, decode %d %q", data, gotErr.status, gotErr.msg, wantErr.status, wantErr.msg)
		case gotErr == nil:
			if d := observeDiff(got, want); d != "" {
				t.Fatalf("%q: decodeObserve %s", data, d)
			}
		}
		fast, ok := parseObserve(data)
		if ok {
			if wantErr != nil {
				t.Fatalf("%q: fast path accepted a body decode rejects: %s", data, wantErr.msg)
			}
			if d := observeDiff(fast, want); d != "" {
				t.Fatalf("%q: fast path %s", data, d)
			}
		} else if wantErr == nil && !bytes.Contains(data, []byte("null")) {
			if canon, err := json.Marshal(want); err == nil && bytes.Equal(canon, data) {
				t.Fatalf("fast path declined %q, which json.Marshal emits", data)
			}
		}
	})
}

// BenchmarkObserveDecode times one observe body's decode, encoding/json
// against the fast path, over session-shaped bodies.
func BenchmarkObserveDecode(b *testing.B) {
	bodies := observeBodies(b, 8, 40) // a session client's batch
	var total int
	for _, body := range bodies {
		total += len(body)
	}
	for _, c := range []struct {
		name string
		dec  func(*http.Request, *ObserveRequest) *apiError
	}{
		{"json", func(r *http.Request, req *ObserveRequest) *apiError { return decode(r, req) }},
		{"fast", decodeObserve},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(total / len(bodies)))
			i := 0
			for b.Loop() {
				var req ObserveRequest
				if e := c.dec(bodyRequest(bodies[i%len(bodies)]), &req); e != nil {
					b.Fatal(e.msg)
				}
				i++
			}
		})
	}
}
