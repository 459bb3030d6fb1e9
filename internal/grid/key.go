package grid

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/task"
)

// Key is the 256-bit content address of a cacheable artefact: the SHA-256 of
// a canonical byte encoding of everything the artefact is a pure function
// of. Equal keys mean equal inputs (collisions are cryptographically
// negligible), so a memo hit may return the cached artefact verbatim.
type Key [sha256.Size]byte

// String renders the key as lowercase hex — the wire form internal/server
// uses as a schedule fingerprint.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// hasher accumulates the canonical encoding. Every primitive is written as
// fixed-width little-endian bytes (floats by their IEEE-754 bit pattern, so
// the encoding is exact, not a decimal rendering); strings and slices are
// length-prefixed so adjacent fields cannot alias. Writes fill block, and
// the digest takes it whole, four SHA-256 blocks at a time, instead of one
// Write per field; sum hands it the rest.
type hasher struct {
	h     hash.Hash
	n     int // bytes of block in use
	block [256]byte
}

func newHasher() *hasher { return &hasher{h: sha256.New()} }

// fill copies p into block, handing the digest each block it fills.
func fill[S []byte | string](h *hasher, p S) {
	for len(p) > 0 {
		c := copy(h.block[h.n:], p)
		h.n += c
		p = p[c:]
		if h.n == len(h.block) {
			h.h.Write(h.block[:])
			h.n = 0
		}
	}
}

func (h *hasher) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	fill(h, b[:])
}

func (h *hasher) i64(v int64)   { h.u64(uint64(v)) }
func (h *hasher) f64(v float64) { h.u64(math.Float64bits(v)) }

func (h *hasher) flag(v bool) {
	var b uint64
	if v {
		b = 1
	}
	h.u64(b)
}

func (h *hasher) str(s string) {
	h.u64(uint64(len(s)))
	fill(h, s)
}

func (h *hasher) f64s(xs []float64) {
	h.u64(uint64(len(xs)))
	for _, x := range xs {
		h.f64(x)
	}
}

func (h *hasher) sum() Key {
	h.h.Write(h.block[:h.n])
	var k Key
	h.h.Sum(k[:0])
	return k
}

// taskSet writes the full task-set fingerprint: every field that influences
// the preemptive expansion, the solver, or the workload distributions.
func (h *hasher) taskSet(set *task.Set) {
	h.str("set")
	h.u64(uint64(len(set.Tasks)))
	for i := range set.Tasks {
		t := &set.Tasks[i]
		h.str(t.Name)
		h.i64(t.Period)
		h.f64(t.WCEC)
		h.f64(t.ACEC)
		h.f64(t.BCEC)
		h.f64(t.Ceff)
	}
}

// model writes the processor-model identity: the concrete type plus every
// parameter. It reports false for model implementations it does not know,
// which makes the enclosing key non-cacheable (the caller then solves
// directly — correct, just unmemoized). nil hashes as the default model,
// matching core.Config's defaulting.
func (h *hasher) model(m power.Model) bool {
	if m == nil {
		m = power.DefaultModel()
	}
	switch mm := m.(type) {
	case *power.SimpleInverse:
		h.str("model:simpleinverse")
		h.f64(mm.K)
		h.f64(mm.Vmin)
		h.f64(mm.Vmax)
		return true
	case *power.Alpha:
		h.str("model:alpha")
		h.f64(mm.K)
		h.f64(mm.Vt)
		h.f64(mm.Aexp)
		h.f64(mm.Vmin)
		h.f64(mm.Vmax)
		return true
	case *power.Discrete:
		h.str("model:discrete")
		if !h.model(mm.Base()) {
			return false
		}
		h.f64s(mm.Levels())
		return true
	default:
		return false
	}
}

// schedule writes the full content of a solved schedule: everything a
// WarmStart consumer reads — the task set, the model, the plan's
// sub-instance structure, and the solved End/WCWork vectors.
func (h *hasher) schedule(s *core.Schedule) bool {
	h.str("sched")
	h.taskSet(s.Plan.Set)
	if !h.model(s.Model) {
		return false
	}
	h.u64(uint64(s.Objective))
	h.u64(uint64(len(s.Plan.Subs)))
	for i := range s.Plan.Subs {
		su := &s.Plan.Subs[i]
		h.i64(int64(su.TaskIndex))
		h.i64(int64(su.InstanceIndex))
		h.f64(su.Release)
		h.f64(su.Deadline)
	}
	h.f64s(s.End)
	h.f64s(s.WCWork)
	return true
}

// ScheduleKey returns the content address of core.Build(set, cfg) — the
// cache-key contract DESIGN.md §6 documents. The key covers the task-set
// fingerprint, the model identity, and exactly the core.Config fields a
// solve is a function of: Objective, MaxSweeps, Tol, Preempt
// (MaxSubsPerInstance), Scenarios, ScenarioSeed, Starts, StartSeed
// (dormant values — a non-positive MaxSubsPerInstance, scenario fields
// without Scenarios or on a WorstCase build, StartSeed without multi-start —
// are zeroed so they cannot split keys),
// and the WarmStart schedule's full content. Excluded by
// design: StartWorkers (wall-clock only, never the result — pinned by the
// solver's determinism contract). Defaulted fields are resolved through
// core.Config.Canonical first, so a zero config and an explicitly-defaulted
// one share a key. ok is false when the config cannot be canonically encoded
// (an unknown model implementation); callers then bypass the memo.
//
// Every public fingerprint is built on it (partition.Fingerprint). The memo
// keys a WorstCase build without a warm start under wcsKey instead.
func ScheduleKey(set *task.Set, cfg core.Config) (Key, bool) {
	c := cfg.Canonical()
	h := newHasher()
	// The domain's version names the solver's output: v2 since WorstCase
	// builds start at their YDS seed, so a store or peer holding older
	// output never answers under these keys.
	h.str("schedule/v2")
	h.taskSet(set)
	if !h.config(c) {
		return Key{}, false
	}
	if c.WarmStart != nil {
		h.str("warm")
		if !h.schedule(c.WarmStart) {
			return Key{}, false
		}
	}
	return h.sum(), true
}

// wcsKey is the memo key of a WorstCase build without a warm start. Such a
// build reads a task's ACEC and BCEC only to derive AvgWork, which
// core.Schedule.Retarget re-derives for another set, so the key hashes each
// task's Name, Period, WCEC and Ceff and ScheduleKey's config fields: every
// set with the same worst-case fields shares one entry. Its domain version
// moves with ScheduleKey's.
func wcsKey(set *task.Set, cfg core.Config) (Key, bool) {
	h := newHasher()
	h.str("wcs/v1")
	h.u64(uint64(len(set.Tasks)))
	for i := range set.Tasks {
		t := &set.Tasks[i]
		h.str(t.Name)
		h.i64(t.Period)
		h.f64(t.WCEC)
		h.f64(t.Ceff)
	}
	if !h.config(cfg.Canonical()) {
		return Key{}, false
	}
	return h.sum(), true
}

// config writes the model identity and every canonical core.Config field a
// solve is a function of, WarmStart aside; see ScheduleKey. It reports false
// for a model it cannot encode.
func (h *hasher) config(c core.Config) bool {
	if !h.model(c.Model) {
		return false
	}
	h.u64(uint64(c.Objective))
	h.i64(int64(c.MaxSweeps))
	h.f64(c.Tol)
	// Three retired fields (a split-optimisation switch, the initial blend
	// and the line-search tolerance) keep their old default bytes, so that
	// no key moves.
	h.flag(false)
	h.f64(0.7)
	h.f64(1e-4)
	// The expansion caps pieces only for a positive cap; every other value
	// is uncapped and hashes as 0, so a negative cap cannot split keys.
	h.i64(int64(max(c.Preempt.MaxSubsPerInstance, 0)))
	// The retired EDF plan order keeps its false byte too: every plan is
	// rate-monotonic.
	h.flag(false)
	// Scenario draws only exist when Scenarios > 0, and a WCS never reads
	// them; dormant scenario fields must not split keys.
	scenarios, scenarioSeed := c.Scenarios, c.ScenarioSeed
	if scenarios <= 0 || c.Objective == core.WorstCase {
		scenarios, scenarioSeed = 0, 0
	}
	h.i64(int64(scenarios))
	h.u64(scenarioSeed)
	// Starts 0 and 1 are both the single-start solver, which never reads
	// StartSeed — zero it while dormant so it cannot split keys.
	starts, startSeed := c.Starts, c.StartSeed
	if starts <= 1 {
		starts, startSeed = 1, 0
	}
	h.i64(int64(starts))
	h.u64(startSeed)
	return true
}

// CompareKey returns the content address of a simulated comparison of the
// plan pair a request fingerprint determines (for the server, the ACS and
// WCS schedules of one canonical request): the fingerprint plus exactly the
// sim.Config fields a run is a function of — Policy, Hyperperiods (as given:
// 0 runs like the engine's default of 100 but keys apart, a lost hit and
// never a wrong one), Seed, and the three Overhead fields. Excluded by
// design: Workers (results are bit-identical for any worker count) and Ctx
// (it scopes the work, never the result). ok is false when cfg sets Dist: a
// function value has no canonical encoding, so such runs bypass the memo.
func CompareKey(fingerprint string, cfg sim.Config) (Key, bool) {
	if cfg.Dist != nil {
		return Key{}, false
	}
	h := newHasher()
	h.str("compare/v1")
	h.str(fingerprint)
	h.u64(uint64(cfg.Policy))
	h.i64(int64(cfg.Hyperperiods))
	h.u64(cfg.Seed)
	h.f64(cfg.Overhead.TimeMs)
	h.f64(cfg.Overhead.EnergyPerSwitch)
	h.f64(cfg.Overhead.Epsilon)
	return h.sum(), true
}
