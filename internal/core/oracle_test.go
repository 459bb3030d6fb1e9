package core

import (
	"math"
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

// TestEnergyFromMatchesReference: the re-join exit changes how much of the
// order energyFrom walks, never what it returns. Randomized probes take the
// three shapes the sweeps probe with — one end moved (sweepEnds), a split
// transfer re-deriving a whole instance (sweepSplits), and an end pushed with
// its ripple (sweepPush) — over point and scenario load sets, on sets holding
// dead pieces. A quarter of the probes are committed, through resnap or
// invalidate, so the memo mixes entries of many passes as it does mid-sweep.
// energyFrom must equal the pre-re-join walk bit for bit, and every shape
// must have re-joined somewhere.
func TestEnergyFromMatchesReference(t *testing.T) {
	dead := 0
	var rejoined [3]int // per probe shape
	// The first two sets are the ones whose WCS holds dead reservations
	// (TestDeadReservationHasNoDeadline).
	for _, sd := range [][2]uint64{{100, 19}, {100, 636}, {64, 1}, {65, 1}} {
		set := splitSet(t, sd[0], int(sd[1]), 4, 0.5)
		wcs, err := Build(set, Config{Objective: WorstCase})
		if err != nil {
			t.Fatal(err)
		}
		acs, err := Build(set, Config{Objective: AverageCase, WarmStart: wcs})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range acs.WCWork {
			if w <= deadWork {
				dead++
			}
		}
		for variant, base := range []*Schedule{wcs, acs, acs} {
			s := CloneSchedule(base)
			var sc *scenarioSet
			if variant == 2 {
				sc = s.buildScenarios(3, 9)
			}
			for shape, k := range probeEnergyFrom(t, s, sc, stats.NewRNG(sd[0]*31+sd[1]+uint64(variant))) {
				rejoined[shape] += k
			}
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
	t.Logf("re-joins per shape: %v", rejoined)
}

// probeEnergyFrom runs randomized probes against one schedule and load
// configuration, returning how many of each shape took the re-join exit.
func probeEnergyFrom(t *testing.T, s *Schedule, sc *scenarioSet, rng *stats.RNG) [3]int {
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

	var rejoined [3]int
	for probe := 0; probe < 600; probe++ {
		pos := rng.Intn(n)
		// Perturbations span nine orders of magnitude: the small ones are
		// absorbed and re-join, the large ones reach release-bound exits.
		scale := math.Pow(10, -float64(rng.Intn(9)))
		from, stable, touched := pos, pos+1, -1
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

		got, want := ev.energyFrom(from, stable), ev.energyFromRef(from, stable)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("probe %d (shape %d, pos %d, stable %d): energyFrom %v != reference %v",
				probe, probe%3, from, stable, got, want)
		}
		if rejoinsAt(&ev, from, stable) {
			rejoined[probe%3]++
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
	return rejoined
}

// rejoinsAt reports whether a walk from pos with dirty region ending at
// stable leaves through the re-join exit in some load set: it reaches a
// work-bearing position past stable, not release-bound, with the snapshot's
// entry time.
func rejoinsAt(e *objEval, pos, stable int) bool {
	if stable < e.snapFrom {
		stable = e.snapFrom
	}
	for i, loads := range e.loadSets {
		st := e.prefixes[i][pos]
		for q := pos; q < len(loads); q++ {
			if q >= stable && e.wc[q] > deadWork && loads[q] > 0 {
				if st.t <= e.rel[q] && e.snapT[i][q] <= e.rel[q] {
					break
				}
				if st.t == e.snapT[i][q] {
					return true
				}
			}
			e.step(&st, q, loads[q])
		}
	}
	return false
}
