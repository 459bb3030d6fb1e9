package core

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/stats"
)

// energyFromRef is energyFrom as it was before the re-join exit: the walk
// leaves for the suffix memo only at release-bound pieces. Its increments go
// through pieceEnergy like every other path's. It is the oracle energyFrom
// must match bit for bit.
func (e *objEval) energyFromRef(pos, stable int) float64 {
	if stable < e.snapFrom {
		stable = e.snapFrom
	}
	n := len(e.s.Plan.Subs)
	rel, wc := e.rel, e.wc
	var total float64
	for i, loads := range e.loadSets {
		st := e.prefixes[i][pos]
		snapT, snapSuf := e.snapT[i], e.snapSuf[i]
		if e.fastOK {
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
				if t <= r {
					if q >= stable && snapT[q] <= r {
						energy += snapSuf[q]
						break
					}
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
			if q >= stable && wc[q] > deadWork && loads[q] > 0 &&
				st.t <= rel[q] && snapT[q] <= rel[q] {
				st.energy += snapSuf[q]
				break
			}
			e.step(&st, q, loads[q])
		}
		total += st.energy
	}
	return total / float64(len(e.loadSets))
}

// oracleSets are the generator coordinates (seed, split) of the sets the
// evaluator's oracle checks probe. The first two are the ones whose WCS
// holds dead reservations (TestDeadReservationHasNoDeadline).
var oracleSets = [][2]uint64{{100, 19}, {100, 636}, {64, 1}, {65, 1}}

var (
	oracleMu    sync.Mutex
	oraclePairs [][2]*Schedule // per oracle set: WCS, warm-started ACS
)

// oracleSchedules solves the oracle sets once per process.
func oracleSchedules(tb testing.TB) [][2]*Schedule {
	tb.Helper()
	oracleMu.Lock()
	defer oracleMu.Unlock()
	if oraclePairs == nil {
		var pairs [][2]*Schedule
		for _, sd := range oracleSets {
			set := splitSet(tb, sd[0], int(sd[1]), 4, 0.5)
			wcs, err := Build(set, Config{Objective: WorstCase})
			if err != nil {
				tb.Fatal(err)
			}
			acs, err := Build(set, Config{Objective: AverageCase, WarmStart: wcs})
			if err != nil {
				tb.Fatal(err)
			}
			pairs = append(pairs, [2]*Schedule{wcs, acs})
		}
		oraclePairs = pairs
	}
	return oraclePairs
}

// probeCounts tallies which memo paths a run of probes took.
type probeCounts struct {
	rejoined [3]int // probes per shape that took the re-join exit
	replayed int    // split probes that replayed inside their dirty region
}

// probeVariant probes a copy of one oracle set's schedule under load
// variant 0 (WCS), 1 (ACS) or 2 (ACS over three scenarios).
func probeVariant(t *testing.T, pair [2]*Schedule, variant int, rng *stats.RNG, probes int) probeCounts {
	t.Helper()
	s := CloneSchedule(pair[min(variant, 1)])
	var sc *scenarioSet
	if variant == 2 {
		sc = s.buildScenarios(3, 9)
	}
	return probeEnergyFrom(t, s, sc, rng, probes)
}

// TestEnergyFromMatchesReference: the re-join exit and the in-region replay
// change how much of the order energyFrom walks, never what it returns.
// Randomized probes take the three shapes the sweeps probe with — one end
// moved (sweepEnds), a split transfer re-deriving a whole instance and
// naming the positions it changed (sweepSplits), and an end pushed with its
// ripple (sweepPush) — over point and scenario load sets, on sets holding
// dead pieces. A quarter of the probes are committed, through resnap or
// invalidate, so the memo mixes entries of many passes as it does mid-sweep.
// energyFrom must equal the walk without either replay bit for bit, on the
// specialised walk and on the interface walk; every shape must have
// re-joined somewhere, and split probes of every load variant must have
// replayed inside their dirty region.
func TestEnergyFromMatchesReference(t *testing.T) {
	dead := 0
	var rejoined [3]int // per probe shape
	var replayed [3]int // per load variant
	for set, pair := range oracleSchedules(t) {
		for _, w := range pair[1].WCWork {
			if w <= deadWork {
				dead++
			}
		}
		sd := oracleSets[set]
		for variant := range replayed {
			c := probeVariant(t, pair, variant, stats.NewRNG(sd[0]*31+sd[1]+uint64(variant)), 600)
			for shape, k := range c.rejoined {
				rejoined[shape] += k
			}
			replayed[variant] += c.replayed
		}
	}
	if dead == 0 {
		t.Error("no set holds a dead piece")
	}
	for shape, k := range rejoined {
		if k == 0 {
			t.Errorf("no probe of shape %d re-joined the snapshot", shape)
		}
	}
	for variant, k := range replayed {
		if k == 0 {
			t.Errorf("no split probe of load variant %d replayed inside its dirty region", variant)
		}
	}
	t.Logf("re-joins per shape: %v; in-region replays per load variant: %v", rejoined, replayed)
}

// FuzzEnergyFrom runs the probes of TestEnergyFromMatchesReference from a
// fuzzer-chosen RNG seed and load variant over each of the four oracle
// sets, which are solved once per process.
func FuzzEnergyFrom(f *testing.F) {
	for variant := range uint8(3) {
		f.Add(uint64(2005), variant)
	}
	f.Add(uint64(9127), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, variant uint8) {
		for _, pair := range oracleSchedules(t) {
			probeVariant(t, pair, int(variant%3), stats.NewRNG(seed), 150)
		}
	})
}

// probeEnergyFrom runs randomized probes against one schedule and load
// configuration and counts the memo paths they took.
func probeEnergyFrom(t *testing.T, s *Schedule, sc *scenarioSet, rng *stats.RNG, probes int) probeCounts {
	t.Helper()
	plan := s.Plan
	n := len(plan.Subs)
	tcMax := s.Model.CycleTime(s.Model.VMax())
	var ev objEval
	ev.reset(s, sc)

	// ends and work hold the committed solution for restores.
	ends := append([]float64(nil), s.End...)
	work := append([]float64(nil), s.WCWork...)
	rederive := func(idx int) {
		deriveAvgWorkInstance(plan, s.WCWork, s.AvgWork, idx)
		if sc != nil {
			for k := range sc.loads {
				sc.rederiveInstance(s, k, idx)
			}
		}
	}
	alive := func(pos int) bool { return s.WCWork[pos] > deadWork }

	var c probeCounts
	for probe := 0; probe < probes; probe++ {
		pos := rng.Intn(n)
		// Perturbations span nine orders of magnitude: the small ones are
		// absorbed and re-join, the large ones reach release-bound exits.
		scale := math.Pow(10, -float64(rng.Intn(9)))
		from, stable, touched := pos, pos+1, -1
		var mods []int
		switch probe % 3 {
		case 0: // one end moved
			if !alive(pos) {
				continue
			}
			s.End[pos] += (2*rng.Float64() - 1) * scale
		case 1: // split transfer between adjacent pieces of one instance
			idx := plan.Subs[pos].InstanceIndex
			positions := plan.ByInstance[idx]
			if len(positions) < 2 {
				continue
			}
			k := rng.Intn(len(positions) - 1)
			pa, pb := positions[k], positions[k+1]
			d := (2*rng.Float64() - 1) * scale * (s.WCWork[pa] + s.WCWork[pb])
			d = math.Max(-s.WCWork[pa], math.Min(s.WCWork[pb], d))
			s.WCWork[pa] += d
			s.WCWork[pb] -= d
			rederive(idx)
			touched = idx
			from, stable = pa, positions[len(positions)-1]+1
			// The positions sweepSplits names: the pair under WCS, whose
			// loads are WCWork, and every re-derived load from pa on under
			// ACS.
			mods = positions[k:]
			if s.Objective == WorstCase {
				mods = []int{pa, pb}
			}
		case 2: // end pushed later, rippling the chain
			if !alive(pos) {
				continue
			}
			s.End[pos] += rng.Float64() * scale
			prev, lastMod := s.End[pos], pos
			for q := pos + 1; q < n; q++ {
				if !alive(q) {
					continue
				}
				if lo := math.Max(prev, plan.Subs[q].Release) + s.WCWork[q]*tcMax; s.End[q] < lo {
					s.End[q] = lo
					lastMod = q
				}
				prev = s.End[q]
			}
			stable = lastMod + 1
		}

		for _, fast := range []bool{true, false} {
			// The interface walk runs where the model is not SimpleInverse;
			// on this model it computes the same values, so it must match
			// the reference's interface walk bit for bit too.
			ev.fastOK = fast
			got, want := ev.energyFrom(from, stable, mods...), ev.energyFromRef(from, stable)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("probe %d (shape %d, pos %d, stable %d, mods %v, fast %v): energyFrom %v != reference %v",
					probe, probe%3, from, stable, mods, fast, got, want)
			}
		}
		ev.fastOK = s.fastOK
		replays, rejoins := memoPaths(&ev, from, stable, mods)
		if rejoins {
			c.rejoined[probe%3]++
		}
		if replays {
			c.replayed++
		}

		if rng.Intn(4) == 0 {
			// Commit: refresh the prefix caches behind the change, then the
			// memo — in full, or by invalidation as a forward sweep does.
			ev.rebuild(from)
			if rng.Intn(2) == 0 {
				ev.resnap(from, stable)
			} else {
				ev.invalidate(stable - 1)
			}
			copy(ends, s.End)
			copy(work, s.WCWork)
			continue
		}
		copy(s.End, ends)
		copy(s.WCWork, work)
		if touched >= 0 {
			rederive(touched)
		}
	}
	return c
}

// memoPaths reports which memo paths a walk from pos with dirty region
// ending at stable takes in some load set. It replays inside the region when
// it reaches a work-bearing position at or past snapFrom, before stable and
// outside mods, with the snapshot's entry time (only when mods names the
// region's changes). It re-joins when it reaches a work-bearing position
// past stable, not release-bound, with the snapshot's entry time.
func memoPaths(e *objEval, pos, stable int, mods []int) (replays, rejoins bool) {
	if stable < e.snapFrom {
		stable = e.snapFrom
	}
	for i, loads := range e.loadSets {
		st := e.prefixes[i][pos]
		for q := pos; q < len(loads); q++ {
			if e.wc[q] > deadWork && loads[q] > 0 {
				s := e.snapT[i][q]
				if q >= stable {
					if st.t <= e.rel[q] && s <= e.rel[q] {
						break
					}
					if st.t == s {
						rejoins = true
						break
					}
				} else if mods != nil && q >= e.snapFrom && st.t == s && !slices.Contains(mods, q) {
					replays = true
				}
			}
			e.step(&st, q, loads[q])
		}
	}
	return replays, rejoins
}
