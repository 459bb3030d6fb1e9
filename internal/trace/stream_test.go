package trace

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/task"
)

func streamSet() *task.Set {
	return &task.Set{Tasks: []task.Task{
		{Name: "a", Period: 10, WCEC: 100, ACEC: 60, BCEC: 20, Ceff: 1},
		{Name: "b", Period: 20, WCEC: 200, ACEC: 120, BCEC: 40, Ceff: 1},
	}}
}

func TestStreamRoundTrip(t *testing.T) {
	in := &Stream{
		Tasks:     streamSet().Tasks,
		Instances: 3,
		Rows: [][]float64{
			{50, 60, 110},
			{55, 58, 130},
		},
	}
	var buf bytes.Buffer
	if err := WriteStream(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tasks) != 2 || out.Instances != 3 || len(out.Rows) != 2 {
		t.Fatalf("round trip lost shape: %+v", out)
	}
	for i := range in.Rows {
		for j := range in.Rows[i] {
			if out.Rows[i][j] != in.Rows[i][j] {
				t.Fatalf("row %d[%d] = %v, want %v", i, j, out.Rows[i][j], in.Rows[i][j])
			}
		}
	}
	if out.Set().N() != 2 {
		t.Fatalf("Set() has %d tasks", out.Set().N())
	}
}

func TestStreamIncrementalWriter(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, streamSet(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Append([][]float64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Append([][]float64{{3, 4}, {5, 6}}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	s, err := ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 3 || s.Rows[2][1] != 6 {
		t.Fatalf("incremental rows = %v", s.Rows)
	}
	// A writer flushed before any Append still identifies itself.
	var empty bytes.Buffer
	sw2, _ := NewStreamWriter(&empty, streamSet(), 2)
	if err := sw2.Flush(); err != nil {
		t.Fatal(err)
	}
	es, err := ReadStream(&empty)
	if err != nil {
		t.Fatal(err)
	}
	if len(es.Rows) != 0 || es.Instances != 2 {
		t.Fatalf("empty stream = %+v", es)
	}
	// Width mismatches are refused at append time.
	if err := sw.Append([][]float64{{1}}); err == nil {
		t.Fatal("width mismatch accepted")
	}
}

// TestStreamTruncatedTail pins the append-friendly property: a recording
// cut mid-run still yields its complete prefix.
func TestStreamTruncatedTail(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteStream(&buf, &Stream{Tasks: streamSet().Tasks, Instances: 1, Rows: [][]float64{{1}, {2}, {3}}}); err != nil {
		t.Fatal(err)
	}
	whole := buf.String()
	cut := whole[:strings.LastIndex(strings.TrimRight(whole, "\n"), "\n")+1]
	s, err := ReadStream(strings.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 2 {
		t.Fatalf("prefix rows = %d, want 2", len(s.Rows))
	}
}

// TestStreamTornTail cuts a recording at every byte: a cut inside a row,
// the tail a crash inside Append leaves, yields the rows before it.
func TestStreamTornTail(t *testing.T) {
	data := tornStream(t)
	full, err := ReadStream(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for cut := range len(data) + 1 {
		checkCut(t, data, full, cut)
	}
	s, err := ReadStream(bytes.NewReader(data[:len(data)-6]))
	if err != nil {
		t.Fatalf("cut inside the last row: %v", err)
	}
	if len(s.Rows) != 2 {
		t.Fatalf("cut inside the last row: %d rows, want 2", len(s.Rows))
	}
}

// tornStream is a three-row recording whose last line is "[3.75,1e-7]\n":
// cutting its last six bytes leaves the torn row "[3.75,".
func tornStream(t testing.TB) []byte {
	var buf bytes.Buffer
	rows := [][]float64{{1, 2.5}, {3, 4}, {3.75, 1e-7}}
	if err := WriteStream(&buf, &Stream{Tasks: streamSet().Tasks, Instances: 2, Rows: rows}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkCut reads data[:cut], where data is a newline-terminated stream that
// ReadStream reads as full. The read may fail only when the cut leaves the
// header line incomplete; otherwise its rows must be a prefix of full's
// that holds every row whose newline the cut keeps.
func checkCut(t *testing.T, data []byte, full *Stream, cut int) {
	t.Helper()
	header := bytes.IndexByte(data, '\n')
	got, err := ReadStream(bytes.NewReader(data[:cut]))
	if err != nil {
		if cut > header {
			t.Fatalf("cut at %d of %d, past the header line: %v", cut, len(data), err)
		}
		return
	}
	kept, end := 0, header+1 // complete row lines before the cut
	for _, line := range bytes.SplitAfter(data[end:], []byte("\n")) {
		if end += len(line); end > cut {
			break
		}
		if len(bytes.TrimRight(line, "\r\n")) > 0 {
			kept++
		}
	}
	if len(got.Rows) < kept || len(got.Rows) > len(full.Rows) ||
		!slices.EqualFunc(got.Rows, full.Rows[:len(got.Rows)], slices.Equal) {
		t.Fatalf("cut at %d of %d: rows %v, want a prefix of %v with at least %d rows",
			cut, len(data), got.Rows, full.Rows, kept)
	}
}

// FuzzReadStream feeds ReadStream arbitrary bytes, which must never panic,
// and cuts every stream it reads whole (a newline-terminated one) at a
// fuzzed offset, which checkCut judges. The first seed is the torn tail:
// tornStream cut inside its last row.
func FuzzReadStream(f *testing.F) {
	data := tornStream(f)
	f.Add(data, len(data)-6)
	f.Add(data, len(data))
	f.Add(data, bytes.IndexByte(data, '\n')-1) // a torn header
	for _, in := range malformedStreams {
		f.Add([]byte(in), len(in)/2)
	}
	f.Fuzz(func(t *testing.T, data []byte, cut int) {
		full, err := ReadStream(bytes.NewReader(data))
		if err != nil || len(data) == 0 || data[len(data)-1] != '\n' {
			return
		}
		if cut < 0 || cut > len(data) {
			cut = len(data) / 2
		}
		checkCut(t, data, full, cut)
	})
}

// malformedStreams are streams ReadStream must refuse.
var malformedStreams = map[string]string{
	"empty":          "",
	"bad header":     "nope\n",
	"wrong version":  `{"v":2,"instances":1,"tasks":[{"name":"a","period_ms":10,"wcec":1,"acec":1,"bcec":1,"ceff":1}]}` + "\n",
	"no tasks":       `{"v":1,"instances":1,"tasks":[]}` + "\n",
	"zero width":     `{"v":1,"instances":0,"tasks":[{"name":"a","period_ms":10,"wcec":1,"acec":1,"bcec":1,"ceff":1}]}` + "\n",
	"width mismatch": `{"v":1,"instances":2,"tasks":[{"name":"a","period_ms":10,"wcec":1,"acec":1,"bcec":1,"ceff":1}]}` + "\n[1]\n",
	"negative cycle": `{"v":1,"instances":1,"tasks":[{"name":"a","period_ms":10,"wcec":1,"acec":1,"bcec":1,"ceff":1}]}` + "\n[-1]\n",
	// A row that does not parse is a torn tail only when it is the last
	// line and has no newline.
	"unparsable row":      `{"v":1,"instances":1,"tasks":[{"name":"a","period_ms":10,"wcec":1,"acec":1,"bcec":1,"ceff":1}]}` + "\n[1\n",
	"unparsable mid row":  `{"v":1,"instances":1,"tasks":[{"name":"a","period_ms":10,"wcec":1,"acec":1,"bcec":1,"ceff":1}]}` + "\n[1\n[2]",
	"torn width mismatch": `{"v":1,"instances":2,"tasks":[{"name":"a","period_ms":10,"wcec":1,"acec":1,"bcec":1,"ceff":1}]}` + "\n[1]",
}

func TestStreamRejectsMalformed(t *testing.T) {
	for name, in := range malformedStreams {
		if _, err := ReadStream(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted malformed stream", name)
		}
	}
}
