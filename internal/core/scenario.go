package core

import (
	"fmt"

	"repro/internal/preempt"
	"repro/internal/stats"
)

// Scenario support: the paper's §3.2 notes that "the probability weighted
// workload can be used in the objective function if the probability density
// function is known", and evaluates with the plain average workload because
// reference [7] shows it approximates the expected energy well. This file
// implements the probability-weighted variant so the approximation itself
// can be measured (experiment E10): Config.Scenarios = K draws K determinate
// workload vectors from the task distribution (common random numbers across
// solver iterations), and the solver minimises the mean greedy-reclamation
// energy across them instead of the single ACEC trajectory.

// scenarioSet holds the per-scenario workload decomposition.
type scenarioSet struct {
	// cycles[k][idx] is instance idx's actual cycle count in scenario k.
	cycles [][]float64
	// loads[k][pos] is the per-piece execution of scenario k under the
	// current worst-case splits (min(remaining, R̂) in order).
	loads [][]float64
}

// buildScenarios draws K instance-workload vectors from the paper's
// truncated-Normal distribution using stratified quantile seeds so the set
// is spread across the distribution rather than clustered.
func (s *Schedule) buildScenarios(k int, seed uint64) *scenarioSet {
	plan := s.Plan
	sc := &scenarioSet{
		cycles: make([][]float64, k),
		loads:  make([][]float64, k),
	}
	for i := 0; i < k; i++ {
		rng := stats.NewRNG(seed + uint64(i)*0x9e3779b97f4a7c15)
		cyc := make([]float64, len(plan.Instances))
		for idx := range plan.Instances {
			t := &plan.Set.Tasks[plan.Instances[idx].TaskIndex]
			cyc[idx] = rng.TruncNormal(t.ACEC, (t.WCEC-t.BCEC)/6, t.BCEC, t.WCEC)
		}
		sc.cycles[i] = cyc
		sc.loads[i] = make([]float64, len(plan.Subs))
	}
	sc.rederiveAll(s)
	return sc
}

// rederiveAll recomputes every scenario's per-piece loads from the current
// worst-case splits.
func (sc *scenarioSet) rederiveAll(s *Schedule) {
	for k := range sc.loads {
		for idx := range s.Plan.ByInstance {
			sc.rederiveInstance(s, k, idx)
		}
	}
}

// rederiveInstance recomputes one instance's pieces in one scenario.
func (sc *scenarioSet) rederiveInstance(s *Schedule, k, idx int) {
	deriveLoads(s.Plan.ByInstance[idx], sc.cycles[k][idx], s.WCWork, sc.loads[k])
}

// objEval evaluates the solver objective over one or more load vectors with
// per-vector prefix caches, so coordinate sweeps re-run only order suffixes.
// A nil scenario set degenerates to the single point-load objective (ACEC
// for ACS, WCEC for WCS) the paper's experiments use.
//
// On top of the prefix caches it keeps a *suffix memo*: a snapshot of the
// committed solution recording, for every position, the entry time of the
// greedy-reclamation recursion and the total energy of the order suffix from
// that position. The recursion from a position q is a pure function of the
// entry time and of (End, loads) over [q, n); and whenever the entry time is
// at or before q's release, the piece starts at its release and the suffix
// becomes independent of the entry time entirely. A trial evaluation can
// therefore stop at the first release-bound piece past the trial's dirty
// region and add the memoised suffix energy, instead of re-running the whole
// order tail. This is the dirty-region invalidation that makes golden-section
// line searches cheap: moving end-time e_u re-evaluates pieces from u forward
// only until the perturbation is absorbed by a release-bound start.
//
// A perturbation is usually absorbed sooner: a piece that runs its whole
// budget at an unclamped voltage finishes at its end-time whatever its start,
// up to rounding, so a trial walk often reaches a position with the
// snapshot's entry time bit for bit. From there
// on it is the snapshot's own walk, so it *re-joins* the snapshot: it adds the
// snapshot's recorded per-piece increments up to the snapshot's next
// release-bound position and exits there. The same values are added in the
// same order as the walk would compute them, so the result is bit-identical
// to walking on (DESIGN.md §3).
//
// A split trial changes only a few positions of its dirty region, so its
// walk re-joins the snapshot inside the region too: at an untouched position
// entered with the snapshot's entry time it replays the recorded increments
// up to the next changed position, and resumes there with the time the
// snapshot recorded after the position before it.
//
// The evaluator is embedded in the solver workspace and reset per sweep, so
// the golden-section inner loop runs without heap allocations.
type objEval struct {
	s        *Schedule
	loadSets [][]float64
	prefixes [][]evalState // one per load set, each length n+1
	// snapT[i][q] is the recursion's entry time at position q in the last
	// snapshot pass over load set i; snapSuf[i][q] is the energy of the order
	// suffix [q, n) in that pass (snapSuf[i][n] == 0). Entries are absolute
	// per-position values, so entries written by different passes compose.
	// snapInc[i][q] is the energy that pass added at q and snapOut[i][q]
	// the recursion's time after q; snapExit[i][q] is the first
	// work-bearing position at or after q whose entry is release-bound (n
	// when none is): the re-join replays snapInc up to it. A pass boundary
	// only ever falls on such a position, which starts at its release in
	// both passes, so a replay across one adds the values a walk would.
	snapT    [][]float64
	snapSuf  [][]float64
	snapInc  [][]float64
	snapOut  [][]float64
	snapExit [][]int
	// snapFrom is the lowest position whose snapshot entries are consistent
	// with the current committed solution: no commit at a position >= q has
	// happened since entry q was last written, for every q >= snapFrom.
	snapFrom int

	// Flat per-position inputs of the recursion (see fillEvalArrays) plus
	// the SimpleInverse fast-path constants mirrored from the schedule. The
	// specialised walk in energyFrom/step reads only flat float64 arrays.
	// plan records which plan rel/ceff were filled from, so reusing the
	// evaluator against a different plan refreshes them.
	plan      *preempt.Schedule
	rel, ceff []float64
	end, wc   []float64
	fastOK    bool
	k, vMin   float64
	vMax      float64
	// tcVMin/tcVMax are the cycle times at the voltage bounds, precomputed
	// so the clamped branches of the inner walk need no division at all.
	tcVMin, tcVMax float64
}

// step advances the recursion across position q, mirroring
// Schedule.evalStep over the evaluator's flat arrays, and returns the energy
// it added.
func (e *objEval) step(st *evalState, q int, work float64) float64 {
	if !e.fastOK {
		return e.s.evalStep(st, q, work)
	}
	w := e.wc[q]
	if w <= deadWork || work <= 0 {
		return 0
	}
	a := st.t
	if r := e.rel[q]; r > a {
		a = r
	}
	window := e.end[q] - a
	var v, tc float64
	if window <= 0 {
		v, tc = e.vMax, e.tcVMax
	} else if tc = window / w; tc > e.tcVMin {
		v, tc = e.vMin, e.tcVMin
	} else if tc < e.tcVMax {
		v, tc = e.vMax, e.tcVMax
	} else {
		v = e.k / tc
	}
	inc := pieceEnergy(e.ceff[q], v, work)
	st.energy += inc
	st.t = a + work*tc
	return inc
}

// pieceEnergy is the energy one piece adds: every evaluation path computes
// its increments here. The conversion rounds the product before it is added;
// without it Go may fuse the last multiply into the caller's add, and a
// fused walk would no longer add the exact values resnap recorded.
func pieceEnergy(ceff, v, work float64) float64 { return float64(ceff * v * v * work) }

// reset points the evaluator at the schedule's current objective and rebuilds
// both the prefix caches and the suffix memo, reusing backing arrays.
func (e *objEval) reset(s *Schedule, sc *scenarioSet) {
	e.s = s
	e.loadSets = e.loadSets[:0]
	if sc != nil && s.Objective == AverageCase {
		e.loadSets = append(e.loadSets, sc.loads...)
	} else if s.Objective == WorstCase {
		e.loadSets = append(e.loadSets, s.WCWork)
	} else {
		e.loadSets = append(e.loadSets, s.AvgWork)
	}
	n := len(s.Plan.Subs)
	if e.plan != s.Plan {
		e.fillEvalArrays(s.Plan)
		e.plan = s.Plan
	}
	e.end, e.wc = s.End, s.WCWork
	e.fastOK = s.fastOK
	e.k, e.vMin, e.vMax = s.fastK, s.fastVMin, s.fastVMax
	e.tcVMin, e.tcVMax = s.fastTcVMin, s.fastTcVMax
	for len(e.prefixes) < len(e.loadSets) {
		e.prefixes = append(e.prefixes, nil)
		e.snapT = append(e.snapT, nil)
		e.snapSuf = append(e.snapSuf, nil)
		e.snapInc = append(e.snapInc, nil)
		e.snapOut = append(e.snapOut, nil)
		e.snapExit = append(e.snapExit, nil)
	}
	for i := range e.loadSets {
		if cap(e.prefixes[i]) < n+1 {
			e.prefixes[i] = make([]evalState, n+1)
			e.snapT[i] = make([]float64, n)
			e.snapSuf[i] = make([]float64, n+1)
			e.snapInc[i] = make([]float64, n)
			e.snapOut[i] = make([]float64, n)
			e.snapExit[i] = make([]int, n)
		}
		e.prefixes[i] = e.prefixes[i][:n+1]
		e.snapT[i] = e.snapT[i][:n]
		e.snapSuf[i] = e.snapSuf[i][:n+1]
		e.snapSuf[i][n] = 0
		e.snapInc[i] = e.snapInc[i][:n]
		e.snapOut[i] = e.snapOut[i][:n]
		e.snapExit[i] = e.snapExit[i][:n]
	}
	e.rebuild(0)
	e.snapFrom = n // stale between sweeps: force the snapshot pass to run full
	e.resnap(0, n)
}

// rebuild refreshes the prefix caches from position `from` onward.
func (e *objEval) rebuild(from int) {
	n := len(e.s.Plan.Subs)
	for i, loads := range e.loadSets {
		for pos := from; pos < n; pos++ {
			st := e.prefixes[i][pos]
			e.step(&st, pos, loads[pos])
			e.prefixes[i][pos+1] = st
		}
	}
}

// advance extends the caches by one position (forward sweeps).
func (e *objEval) advance(pos int) {
	for i, loads := range e.loadSets {
		st := e.prefixes[i][pos]
		e.step(&st, pos, loads[pos])
		e.prefixes[i][pos+1] = st
	}
}

// copyPrefix duplicates the cache state just before pos (dead-piece skips).
func (e *objEval) copyPrefix(pos int) {
	for i := range e.prefixes {
		e.prefixes[i][pos+1] = e.prefixes[i][pos]
	}
}

// invalidate records a committed change at pos without refreshing the memo:
// snapshot entries at or before pos no longer describe the committed suffix.
func (e *objEval) invalidate(pos int) {
	if pos+1 > e.snapFrom {
		e.snapFrom = pos + 1
	}
}

// resnap refreshes the suffix memo from position `from` after a commit whose
// dirty region ends before `stable` (no position >= stable changed). The pass
// itself uses the memo: it stops as soon as the recursion re-joins a
// release-bound position whose existing snapshot entry is still consistent.
// Requires the prefix cache at `from` to be valid for the committed solution.
//
// It does not also stop where it merely re-joins the old snapshot's walk.
// The entries past that point would stay valid, but their suffix energies
// were rounded against another pass's running total, so the objective values
// the line searches compare would move in their last bits.
func (e *objEval) resnap(from, stable int) {
	n := len(e.s.Plan.Subs)
	if stable < e.snapFrom {
		stable = e.snapFrom
	}
	rel := e.rel
	wc := e.s.WCWork
	for i, loads := range e.loadSets {
		st := e.prefixes[i][from]
		snapT, snapSuf, snapInc, snapExit := e.snapT[i], e.snapSuf[i], e.snapInc[i], e.snapExit[i]
		snapOut := e.snapOut[i]
		q := from
		for ; q < n; q++ {
			if q >= stable && wc[q] > deadWork && loads[q] > 0 &&
				st.t <= rel[q] && snapT[q] <= rel[q] {
				break // suffix entries [q, n] are already consistent
			}
			snapT[q] = st.t
			snapSuf[q] = st.energy // accumulated-prefix energy, fixed up below
			snapInc[q] = e.step(&st, q, loads[q])
			snapOut[q] = st.t
		}
		tail, exit := 0.0, n
		if q < n {
			tail, exit = snapSuf[q], q
		}
		total := st.energy
		for p := q - 1; p >= from; p-- {
			snapSuf[p] = total - snapSuf[p] + tail
			if wc[p] > deadWork && loads[p] > 0 && snapT[p] <= rel[p] {
				exit = p
			}
			snapExit[p] = exit
		}
	}
	e.snapFrom = from
}

// energyFrom evaluates the mean objective re-running positions [pos, n).
// stable is the end of the caller's dirty region: no End, WCWork, or load
// value at a position >= stable differs from the committed solution, so the
// walk may leave for the suffix memo there — at a release-bound piece, or
// where it re-joins the snapshot's walk. mods, when the caller names any,
// lists in ascending order every position of [pos, stable) whose inputs
// differ; at any other position of the region where the walk meets the
// snapshot's entry time, it replays the snapshot up to the next of them.
// With none named, the whole region counts as changed.
func (e *objEval) energyFrom(pos, stable int, mods ...int) float64 {
	if stable < e.snapFrom {
		stable = e.snapFrom
	}
	// lo is the first position whose snapshot entry the walk may use: past
	// the dirty region, or from snapFrom on when the region's changes are
	// named.
	lo := stable
	if mods != nil {
		lo = e.snapFrom
	}
	n := len(e.s.Plan.Subs)
	rel, wc := e.rel, e.wc
	var total float64
	for i, loads := range e.loadSets {
		st := e.prefixes[i][pos]
		snapT, snapSuf, snapOut := e.snapT[i], e.snapSuf[i], e.snapOut[i]
		next := modCursor{mods: mods, end: stable}
		if e.fastOK {
			// Specialised walk: this is the solver's innermost loop — every
			// golden-section probe of every line search lands here.
			end, ceff := e.end, e.ceff
			k, vMin, vMax := e.k, e.vMin, e.vMax
			tcVMin, tcVMax := e.tcVMin, e.tcVMax
			t, energy := st.t, st.energy
			for q := pos; q < n; q++ {
				w, work := wc[q], loads[q]
				if w <= deadWork || work <= 0 {
					continue
				}
				r := rel[q]
				if q >= lo {
					s := snapT[q]
					if q >= stable {
						if t == s {
							energy = e.rejoin(i, q, energy)
							break
						}
						if t <= r && s <= r {
							energy += snapSuf[q]
							break
						}
					} else if t == s {
						if m := next.from(q); m > q {
							energy = e.replay(i, q, m, energy)
							t, q = snapOut[m-1], m-1
							continue
						}
					}
				}
				if t <= r {
					t = r
				}
				window := end[q] - t
				var v, tc float64
				if window <= 0 {
					v, tc = vMax, tcVMax
				} else if tc = window / w; tc > tcVMin {
					v, tc = vMin, tcVMin
				} else if tc < tcVMax {
					v, tc = vMax, tcVMax
				} else {
					v = k / tc
				}
				energy += pieceEnergy(ceff[q], v, work)
				t += work * tc
			}
			total += energy
			continue
		}
		for q := pos; q < n; q++ {
			if q >= lo && wc[q] > deadWork && loads[q] > 0 {
				s := snapT[q]
				if q >= stable {
					if st.t == s {
						st.energy = e.rejoin(i, q, st.energy)
						break
					}
					if st.t <= rel[q] && s <= rel[q] {
						st.energy += snapSuf[q]
						break
					}
				} else if st.t == s {
					if m := next.from(q); m > q {
						st.energy = e.replay(i, q, m, st.energy)
						st.t, q = snapOut[m-1], m-1
						continue
					}
				}
			}
			e.step(&st, q, loads[q])
		}
		total += st.energy
	}
	return total / float64(len(e.loadSets))
}

// modCursor follows a trial's modified positions in step with a walk.
type modCursor struct {
	mods []int
	end  int // the dirty region's end, standing in past the last of mods
}

// from returns the first modified position at or after q, or end.
func (c *modCursor) from(q int) int {
	for len(c.mods) > 0 && c.mods[0] < q {
		c.mods = c.mods[1:]
	}
	if len(c.mods) > 0 {
		return c.mods[0]
	}
	return c.end
}

// replay adds load set i's snapshot increments over [q, m) to energy: a
// walk that enters untouched position q with the snapshot's entry time
// adds exactly these until it reaches a changed position m, and leaves
// q..m-1 with snapOut[m-1].
func (e *objEval) replay(i, q, m int, energy float64) float64 {
	for _, inc := range e.snapInc[i][q:m] {
		energy += inc
	}
	return energy
}

// rejoin finishes a walk over load set i that reached position q with the
// snapshot's entry time: it adds the snapshot's increments up to its next
// release-bound position, then that position's suffix energy — what walking
// on would add, value for value.
func (e *objEval) rejoin(i, q int, energy float64) float64 {
	exit := e.snapExit[i][q]
	return e.replay(i, q, exit, energy) + e.snapSuf[i][exit]
}

// full evaluates the mean objective from scratch without touching caches.
func (e *objEval) full() float64 {
	var total float64
	for _, loads := range e.loadSets {
		total += e.s.evalFrom(evalState{}, 0, loads).energy
	}
	return total / float64(len(e.loadSets))
}

// ExpectedEnergy evaluates the schedule's mean greedy-reclamation energy
// over K stratified scenario draws — the probability-weighted objective —
// without re-optimising. Useful for measuring how well the point-ACEC
// objective approximates the true expectation (experiment E10).
func (s *Schedule) ExpectedEnergy(k int, seed uint64) (float64, error) {
	if k <= 0 {
		return 0, fmt.Errorf("core: scenario count must be positive, got %d", k)
	}
	sc := s.buildScenarios(k, seed)
	var total float64
	for i := range sc.loads {
		total += s.evalFrom(evalState{}, 0, sc.loads[i]).energy
	}
	return total / float64(k), nil
}
