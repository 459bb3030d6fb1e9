package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/task"
)

// Observed-execution stream capture: the persistent sibling of the
// RuntimeRow export. Where RuntimeRows explains what one hyper-period
// did, a Stream records what a whole run *observed* — the per-instance
// actual execution cycles of every hyper-period, in plan order — so the
// feedback loop can be replayed offline against exactly the workload a
// live session (or an adaptsim run) saw. The format is line-oriented
// JSON so a recorder can append hyper-periods as they arrive and a
// truncated file, even one cut inside its last row, still yields its
// complete prefix:
//
//	{"v":1,"instances":W,"tasks":[...]}   header: version, row width, task set
//	[c0,c1,...,cW-1]                      one row per hyper-period, in order
//
// The task list is the model the recording session started from; a
// replayer re-solves it to recover the plan order the rows index.
const streamVersion = 1

// Stream is one recorded observation stream.
type Stream struct {
	// Tasks is the stated task set of the recording run.
	Tasks []task.Task
	// Instances is the per-hyper-period row width (instances in plan
	// order).
	Instances int
	// Rows holds one per-instance actual-cycles row per hyper-period.
	Rows [][]float64
}

// Set returns the stream's task set.
func (s *Stream) Set() *task.Set { return &task.Set{Tasks: s.Tasks} }

type streamHeader struct {
	V         int         `json:"v"`
	Instances int         `json:"instances"`
	Tasks     []task.Task `json:"tasks"`
}

// StreamWriter appends hyper-period rows to w incrementally, writing the
// header before the first row. It buffers; call Flush (or write through
// an os.File and Close it) when done. Not safe for concurrent use.
type StreamWriter struct {
	bw        *bufio.Writer
	hdr       streamHeader
	started   bool
	instances int
}

// NewStreamWriter returns a writer recording the given task set with the
// given row width.
func NewStreamWriter(w io.Writer, set *task.Set, instances int) (*StreamWriter, error) {
	if set == nil || len(set.Tasks) == 0 {
		return nil, fmt.Errorf("trace: stream needs a non-empty task set")
	}
	if instances <= 0 {
		return nil, fmt.Errorf("trace: stream needs a positive instance width, got %d", instances)
	}
	return &StreamWriter{
		bw:        bufio.NewWriter(w),
		hdr:       streamHeader{V: streamVersion, Instances: instances, Tasks: append([]task.Task(nil), set.Tasks...)},
		instances: instances,
	}, nil
}

// Append writes the given hyper-period rows, in order.
func (sw *StreamWriter) Append(rows [][]float64) error {
	if !sw.started {
		hdr, err := json.Marshal(sw.hdr)
		if err != nil {
			return fmt.Errorf("trace: stream header: %w", err)
		}
		sw.bw.Write(hdr)
		sw.bw.WriteByte('\n')
		sw.started = true
	}
	for _, row := range rows {
		if len(row) != sw.instances {
			return fmt.Errorf("trace: stream row has %d instances, want %d", len(row), sw.instances)
		}
		b, err := json.Marshal(row)
		if err != nil {
			return err
		}
		sw.bw.Write(b)
		if err := sw.bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return nil
}

// Flush drains the buffer to the underlying writer.
func (sw *StreamWriter) Flush() error {
	if !sw.started {
		// A stream with zero rows is still a valid (empty) recording;
		// force the header out so the file identifies itself.
		if err := sw.Append(nil); err != nil {
			return err
		}
	}
	return sw.bw.Flush()
}

// WriteStream writes a whole stream at once.
func WriteStream(w io.Writer, s *Stream) error {
	sw, err := NewStreamWriter(w, s.Set(), s.Instances)
	if err != nil {
		return err
	}
	if err := sw.Append(s.Rows); err != nil {
		return err
	}
	return sw.Flush()
}

// ReadStream parses a recorded stream, validating the version, the row
// widths, and that every observed cycle count is finite and
// non-negative. A last line with no newline that does not parse is the
// torn tail a crash inside Append leaves: ReadStream returns the rows
// before it. A torn header and every other malformed line are errors.
func ReadStream(r io.Reader) (*Stream, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	// unterminated reports that the token just scanned ended at EOF, not
	// at a newline.
	unterminated := false
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		unterminated = tok != nil && data[adv-1] != '\n'
		return adv, tok, err
	})
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("trace: reading stream: %w", err)
		}
		return nil, fmt.Errorf("trace: empty stream file")
	}
	var hdr streamHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("trace: stream header: %w", err)
	}
	if hdr.V != streamVersion {
		return nil, fmt.Errorf("trace: unsupported stream version %d", hdr.V)
	}
	if hdr.Instances <= 0 || len(hdr.Tasks) == 0 {
		return nil, fmt.Errorf("trace: stream header missing tasks or instance width")
	}
	s := &Stream{Tasks: hdr.Tasks, Instances: hdr.Instances}
	line := 1
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var row []float64
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			if unterminated {
				break // the torn tail
			}
			return nil, fmt.Errorf("trace: stream line %d: %w", line, err)
		}
		if len(row) != hdr.Instances {
			return nil, fmt.Errorf("trace: stream line %d has %d instances, want %d", line, len(row), hdr.Instances)
		}
		for i, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return nil, fmt.Errorf("trace: stream line %d instance %d has invalid cycles %v", line, i, v)
			}
		}
		s.Rows = append(s.Rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: reading stream: %w", err)
	}
	return s, nil
}
