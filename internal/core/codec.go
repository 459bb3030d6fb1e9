package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/power"
	"repro/internal/preempt"
	"repro/internal/task"
)

// Deterministic binary codec for solved schedules — the wire format of the
// persistent content-addressed store (internal/store, DESIGN.md §9).
//
// Only the inputs of the preemptive expansion plus the solved vectors are
// serialised: the task set, the processor model, the expansion options, and
// End/WCWork/AvgWork. The plan itself (sub-instances, total order, instance
// lists) is NOT stored — preempt.BuildWith is a deterministic pure function
// of (set, options), so DecodeSchedule re-derives it bit-identically and for
// free gets every structural invariant re-established instead of trusting
// bytes from disk. EncodeSchedule verifies that reproducibility before
// emitting anything, so a schedule whose plan was hand-built (not by
// preempt.BuildWith) is refused rather than silently re-shaped on load.
//
// The encoding is canonical: for every byte string b that DecodeSchedule
// accepts, EncodeSchedule(DecodeSchedule(b)) == b (pinned by the decoder
// fuzz target). All integers are fixed-width little-endian; floats are their
// IEEE-754 bit patterns, so values round-trip exactly.

// codecMagic opens every encoded schedule: "schedv1\x00".
var codecMagic = [8]byte{'s', 'c', 'h', 'e', 'd', 'v', '1', 0}

// Model tags of the codec. Unknown power.Model implementations are not
// encodable (the same closed world the grid cache key hashes).
const (
	codecModelSimpleInverse = 1
	codecModelAlpha         = 2
	codecModelDiscrete      = 3
)

// Decoder resource bounds: a blob is rejected before any expensive work if
// it implies more than this. The instance bound (CheckInstances) caps
// preempt.BuildWith's quadratic preemption-point scan on adversarial inputs;
// real paper-scale sets stay orders of magnitude below it.
const (
	codecMaxTasks     = 1024
	codecMaxNameLen   = 256
	codecMaxInstances = 4096
	codecMaxLevels    = 4096
)

// CheckInstances fails when set's hyper-period holds more than 4096 task
// instances, counting Σ H/Pᵢ without expanding anything. Expanding a set
// (set.Instances, the preemptive plan) costs memory and time in that count,
// which a few incommensurate periods drive past 10⁸, so every set that
// arrives from outside the process passes this check first: a decoded
// schedule here, and the server's submit bodies, stored requests and
// session checkpoints.
func CheckInstances(set *task.Set) error {
	h, err := set.Hyperperiod()
	if err != nil {
		return err
	}
	var instances int64
	for i := range set.Tasks {
		n := h / set.Tasks[i].Period
		if n > codecMaxInstances-instances {
			return fmt.Errorf("hyper-period expands to more than %d instances", codecMaxInstances)
		}
		instances += n
	}
	return nil
}

// encoder accumulates the canonical byte encoding.
type encoder struct{ buf []byte }

func (e *encoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) i64(v int64)  { e.u64(uint64(v)) }
func (e *encoder) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *encoder) str(s string) {
	e.u64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *encoder) f64s(xs []float64) {
	e.u64(uint64(len(xs)))
	for _, x := range xs {
		e.f64(x)
	}
}

// decoder consumes an encoded schedule; the first violation latches err and
// turns every later read into a no-op zero.
type decoder struct {
	data []byte
	off  int
	err  error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("core: decode: "+format, args...)
	}
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.data) {
		d.fail("truncated at offset %d", d.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
	return v
}

func (d *decoder) i64() int64   { return int64(d.u64()) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

// flag reads a canonical boolean: exactly 0 or 1.
func (d *decoder) str(maxLen int) string {
	n := d.u64()
	if d.err != nil {
		return ""
	}
	if n > uint64(maxLen) {
		d.fail("string length %d exceeds %d", n, maxLen)
		return ""
	}
	if d.off+int(n) > len(d.data) {
		d.fail("truncated string at offset %d", d.off)
		return ""
	}
	s := string(d.data[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *decoder) f64s(maxLen int) []float64 {
	n := d.u64()
	if d.err != nil {
		return nil
	}
	if n > uint64(maxLen) || d.off+int(n)*8 > len(d.data) {
		d.fail("float slice length %d implausible at offset %d", n, d.off)
		return nil
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.f64()
	}
	return xs
}

// EncodeSchedule renders s as the canonical binary blob DecodeSchedule
// accepts. It fails for schedules the codec's closed world cannot represent:
// an unknown power.Model implementation, inconsistent array lengths, an
// expansion larger than the decoder would accept, or a plan that
// preempt.BuildWith(set, opts) does not reproduce exactly.
func EncodeSchedule(s *Schedule) ([]byte, error) {
	if s == nil || s.Plan == nil || s.Plan.Set == nil {
		return nil, fmt.Errorf("core: encode: nil schedule or plan")
	}
	n := len(s.Plan.Subs)
	if len(s.End) != n || len(s.WCWork) != n || len(s.AvgWork) != n {
		return nil, fmt.Errorf("core: encode: schedule arrays inconsistent with plan (%d subs, %d ends, %d budgets, %d averages)",
			n, len(s.End), len(s.WCWork), len(s.AvgWork))
	}
	if s.Objective != AverageCase && s.Objective != WorstCase {
		return nil, fmt.Errorf("core: encode: unknown objective %d", int(s.Objective))
	}
	set := s.Plan.Set
	if set.N() > codecMaxTasks {
		return nil, fmt.Errorf("core: encode: %d tasks exceeds the codec bound of %d", set.N(), codecMaxTasks)
	}
	if len(s.Plan.Instances) > codecMaxInstances {
		return nil, fmt.Errorf("core: encode: %d instances exceeds the codec bound of %d",
			len(s.Plan.Instances), codecMaxInstances)
	}
	for i := range set.Tasks {
		if len(set.Tasks[i].Name) > codecMaxNameLen {
			return nil, fmt.Errorf("core: encode: task name longer than %d bytes", codecMaxNameLen)
		}
	}
	// The decoder re-derives the plan; refuse any schedule whose plan the
	// expansion does not reproduce exactly (a hand-built plan), so decode can
	// never silently return a different schedule than was stored.
	rebuilt, err := preempt.BuildWith(set, s.Plan.Opts)
	if err != nil {
		return nil, fmt.Errorf("core: encode: plan not reproducible: %w", err)
	}
	if len(rebuilt.Subs) != n || len(rebuilt.Instances) != len(s.Plan.Instances) {
		return nil, fmt.Errorf("core: encode: plan not reproducible from its task set and options")
	}
	for i := range rebuilt.Subs {
		if rebuilt.Subs[i] != s.Plan.Subs[i] {
			return nil, fmt.Errorf("core: encode: plan sub-instance %d not reproducible from its task set and options", i)
		}
	}

	e := &encoder{}
	e.buf = append(e.buf, codecMagic[:]...)
	e.u64(uint64(set.N()))
	for i := range set.Tasks {
		t := &set.Tasks[i]
		e.str(t.Name)
		e.i64(t.Period)
		e.f64(t.WCEC)
		e.f64(t.ACEC)
		e.f64(t.BCEC)
		e.f64(t.Ceff)
	}
	if err := encodeModel(e, s.Model); err != nil {
		return nil, err
	}
	e.i64(int64(s.Plan.Opts.MaxSubsPerInstance))
	e.u64(0) // the plan-order flag: 0 is rate-monotonic, the only order
	e.u64(uint64(s.Objective))
	e.f64(s.Energy)
	e.i64(int64(s.Sweeps))
	e.f64s(s.End)
	e.f64s(s.WCWork)
	e.f64s(s.AvgWork)
	return e.buf, nil
}

func encodeModel(e *encoder, m power.Model) error {
	if m == nil {
		m = power.DefaultModel()
	}
	switch mm := m.(type) {
	case *power.SimpleInverse:
		e.u64(codecModelSimpleInverse)
		e.f64(mm.K)
		e.f64(mm.Vmin)
		e.f64(mm.Vmax)
	case *power.Alpha:
		e.u64(codecModelAlpha)
		e.f64(mm.K)
		e.f64(mm.Vt)
		e.f64(mm.Aexp)
		e.f64(mm.Vmin)
		e.f64(mm.Vmax)
	case *power.Discrete:
		e.u64(codecModelDiscrete)
		if err := encodeModel(e, mm.Base()); err != nil {
			return err
		}
		e.f64s(mm.Levels())
	default:
		return fmt.Errorf("core: encode: model implementation %T is not encodable", m)
	}
	return nil
}

func decodeModel(d *decoder) power.Model {
	switch tag := d.u64(); tag {
	case codecModelSimpleInverse:
		k, vmin, vmax := d.f64(), d.f64(), d.f64()
		if d.err != nil {
			return nil
		}
		m, err := power.NewSimpleInverse(k, vmin, vmax)
		if err != nil {
			d.fail("%v", err)
			return nil
		}
		return m
	case codecModelAlpha:
		k, vt, a, vmin, vmax := d.f64(), d.f64(), d.f64(), d.f64(), d.f64()
		if d.err != nil {
			return nil
		}
		m, err := power.NewAlpha(k, vt, a, vmin, vmax)
		if err != nil {
			d.fail("%v", err)
			return nil
		}
		return m
	case codecModelDiscrete:
		base := decodeModel(d)
		levels := d.f64s(codecMaxLevels)
		if d.err != nil {
			return nil
		}
		// NewDiscrete sorts and deduplicates; the canonical form is already
		// strictly ascending, so anything else is a non-canonical encoding.
		for i := 1; i < len(levels); i++ {
			if !(levels[i] > levels[i-1]) {
				d.fail("discrete levels not strictly ascending")
				return nil
			}
		}
		m, err := power.NewDiscrete(base, levels)
		if err != nil {
			d.fail("%v", err)
			return nil
		}
		return m
	default:
		d.fail("unknown model tag %d", tag)
		return nil
	}
}

// DecodeSchedule parses an EncodeSchedule blob back into a schedule whose
// compiled sim plan is bit-identical to the original's: the preemptive plan
// is re-derived through preempt.BuildWith and the SimpleInverse fast path is
// re-initialised. Corrupted or truncated input returns an error — never a
// panic and never a structurally inconsistent schedule.
func DecodeSchedule(data []byte) (*Schedule, error) {
	d := &decoder{data: data}
	if len(data) < len(codecMagic) || [8]byte(data[:8]) != codecMagic {
		return nil, fmt.Errorf("core: decode: bad magic")
	}
	d.off = len(codecMagic)

	n := d.u64()
	if d.err == nil && (n < 1 || n > codecMaxTasks) {
		d.fail("task count %d outside [1, %d]", n, codecMaxTasks)
	}
	if d.err != nil {
		return nil, d.err
	}
	tasks := make([]task.Task, n)
	for i := range tasks {
		tasks[i] = task.Task{
			Name:   d.str(codecMaxNameLen),
			Period: d.i64(),
			WCEC:   d.f64(),
			ACEC:   d.f64(),
			BCEC:   d.f64(),
			Ceff:   d.f64(),
		}
		if d.err != nil {
			return nil, d.err
		}
		// Canonical form: NewSet assigns default names to empty ones and
		// stable-sorts by period, so the encoding must carry non-empty names
		// in non-decreasing period order or re-encoding would not round-trip.
		if tasks[i].Name == "" {
			d.fail("task %d has an empty name", i)
		}
		if i > 0 && tasks[i].Period < tasks[i-1].Period {
			d.fail("tasks not in rate-monotonic order")
		}
	}
	model := decodeModel(d)
	maxSubs := d.i64()
	if d.err == nil && (maxSubs < 0 || maxSubs > math.MaxInt32) {
		d.fail("sub-instance cap %d implausible", maxSubs)
	}
	if order := d.u64(); d.err == nil && order != 0 {
		d.fail("plan-order flag %d: only the rate-monotonic order (0) is decoded", order)
	}
	obj := d.u64()
	if d.err == nil && obj > uint64(WorstCase) {
		d.fail("unknown objective %d", obj)
	}
	energy := d.f64()
	sweeps := d.i64()
	if d.err == nil && (sweeps < 0 || sweeps > math.MaxInt32) {
		d.fail("sweep count %d implausible", sweeps)
	}
	if d.err != nil {
		return nil, d.err
	}

	set, err := task.NewSet(tasks)
	if err != nil {
		return nil, fmt.Errorf("core: decode: %w", err)
	}
	// Bound the expansion before running it: the preemption-point scan is
	// quadratic in the instance count, and untrusted bytes choose that count.
	if err := CheckInstances(set); err != nil {
		return nil, fmt.Errorf("core: decode: %w", err)
	}
	plan, err := preempt.BuildWith(set, preempt.Options{MaxSubsPerInstance: int(maxSubs)})
	if err != nil {
		return nil, fmt.Errorf("core: decode: %w", err)
	}

	end := d.f64s(len(plan.Subs))
	wcWork := d.f64s(len(plan.Subs))
	avgWork := d.f64s(len(plan.Subs))
	if d.err != nil {
		return nil, d.err
	}
	if len(end) != len(plan.Subs) || len(wcWork) != len(plan.Subs) || len(avgWork) != len(plan.Subs) {
		return nil, fmt.Errorf("core: decode: solved vectors (%d/%d/%d) inconsistent with the %d-sub plan",
			len(end), len(wcWork), len(avgWork), len(plan.Subs))
	}
	if d.off != len(d.data) {
		return nil, fmt.Errorf("core: decode: %d trailing bytes", len(d.data)-d.off)
	}

	s := &Schedule{
		Plan:      plan,
		Model:     model,
		End:       end,
		WCWork:    wcWork,
		AvgWork:   avgWork,
		Objective: Objective(obj),
		Energy:    energy,
		Sweeps:    int(sweeps),
	}
	s.initFastModel()
	return s, nil
}
