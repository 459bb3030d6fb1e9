package sim

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/power"
)

// reservationWork is the worst-case budget below which a piece counts as a
// pure reservation: the static schedule provably never executes it, so it is
// dropped from the runtime order and does not end the window of its successor
// (the zero-budget relaxation, DESIGN.md §2). Shared with the solver's
// objective evaluator so both sides agree about which pieces are dead.
const reservationWork = core.DeadWork

// CompiledPlan is a core.Schedule flattened for the online engine: everything
// that is invariant across hyper-periods — the executable pieces in total
// order with their budgets, windows and deadlines, the per-instance workload
// distribution parameters, the precomputed Static/NoDVS voltages (those
// policies' voltages do not depend on runtime state), and the SimpleInverse
// fast-path constants — is extracted once so the per-hyper-period loop reads
// only flat arrays and performs no interface dispatch on the paper's model.
//
// A CompiledPlan is immutable after Compile and safe for concurrent use by
// any number of simulation workers.
type CompiledPlan struct {
	model power.Model

	// Per executable piece (positions of the schedule's total order whose
	// worst-case budget is positive; pieces that can never execute are
	// dropped at compile time):
	wcWork    []float64 // worst-case budget R̂ (cycles)
	release   []float64 // absolute release (ms)
	end       []float64 // static end-time e (ms)
	deadline  []float64 // absolute deadline (ms)
	ceff      []float64 // effective capacitance of the owning task
	inst      []int32   // owning instance index (remaining-workload account)
	staticWin []float64 // static window: end minus the latest worst-case start

	// Precomputed Static-policy execution parameters: voltage, cycle time
	// and energy-per-cycle from the static window — runtime-state free.
	vStatic, tcStatic, epcStatic []float64
	// Precomputed NoDVS parameters (voltage and cycle time are shared by
	// every piece; energy-per-cycle still varies with Ceff).
	vNoDVS, tcNoDVS float64
	epcNoDVS        []float64

	// Per instance, the workload-distribution parameters of the owning task.
	bcec, acec, wcec []float64

	// SimpleInverse specialisation (the model all paper experiments run on):
	// constants mirrored out of the model so the Greedy voltage algebra can
	// be inlined in the dispatch loop without interface calls.
	fastOK           bool
	fK, fVMin, fVMax float64
}

// Compile flattens s into a CompiledPlan. The schedule is read once; later
// mutations of s are not reflected in the plan.
func Compile(s *core.Schedule) (*CompiledPlan, error) {
	if s == nil {
		return nil, fmt.Errorf("sim: nil schedule")
	}
	if s.Model == nil {
		return nil, fmt.Errorf("sim: schedule has no processor model")
	}
	if len(s.End) != len(s.Plan.Subs) || len(s.WCWork) != len(s.Plan.Subs) {
		return nil, fmt.Errorf("sim: schedule arrays inconsistent with plan (%d subs, %d ends, %d budgets)",
			len(s.Plan.Subs), len(s.End), len(s.WCWork))
	}
	model := s.Model
	p := &CompiledPlan{model: model}
	p.vNoDVS = model.VMax()
	p.tcNoDVS = model.CycleTime(p.vNoDVS)

	p.bcec = make([]float64, len(s.Plan.Instances))
	p.acec = make([]float64, len(s.Plan.Instances))
	p.wcec = make([]float64, len(s.Plan.Instances))
	for idx := range s.Plan.Instances {
		t := &s.Plan.Set.Tasks[s.Plan.Instances[idx].TaskIndex]
		p.bcec[idx], p.acec[idx], p.wcec[idx] = t.BCEC, t.ACEC, t.WCEC
	}

	// prevEnd is the end of the last piece that bears worst-case work: pure
	// reservations never execute, so they do not delimit the static window
	// of their successor (DESIGN.md §2's "last work-bearing predecessor").
	prevEnd := 0.0
	for pos := range s.Plan.Subs {
		su := &s.Plan.Subs[pos]
		wc := s.WCWork[pos]
		if wc <= reservationWork {
			continue // pure reservation: not part of the runtime order
		}
		start := math.Max(prevEnd, su.Release)
		win := s.End[pos] - start
		prevEnd = s.End[pos]
		ceff := s.Plan.Set.Tasks[su.TaskIndex].Ceff

		p.wcWork = append(p.wcWork, wc)
		p.release = append(p.release, su.Release)
		p.end = append(p.end, s.End[pos])
		p.deadline = append(p.deadline, su.Deadline)
		p.ceff = append(p.ceff, ceff)
		p.inst = append(p.inst, int32(su.InstanceIndex))
		p.staticWin = append(p.staticWin, win)

		vSt, _ := power.VoltageForWindow(model, wc, win)
		p.vStatic = append(p.vStatic, vSt)
		p.tcStatic = append(p.tcStatic, model.CycleTime(vSt))
		p.epcStatic = append(p.epcStatic, ceff*vSt*vSt)
		p.epcNoDVS = append(p.epcNoDVS, ceff*p.vNoDVS*p.vNoDVS)
	}

	if m, ok := model.(*power.SimpleInverse); ok {
		p.fastOK = true
		p.fK, p.fVMin, p.fVMax = m.K, m.Vmin, m.Vmax
	}
	return p, nil
}

// Instances returns the number of task instances per hyper-period.
func (p *CompiledPlan) Instances() int { return len(p.bcec) }

// runOne executes one hyper-period over the compiled arrays. actual holds the
// per-instance workload draws; remaining is caller-owned scratch of the same
// length (overwritten). The loop performs no heap allocation.
//
// The cfg.reference flag switches every policy to per-piece power.Model
// interface calls (no precomputed voltages, no inlined algebra); it exists so
// tests can cross-check that the compiled fast paths are bit-identical to the
// generic path. Bit-identity holds because the fast paths perform the same
// floating-point operations in the same order — see the Greedy branch below
// and the compile-time Static/NoDVS precomputation, which call the very model
// methods the reference path calls at runtime.
func (p *CompiledPlan) runOne(cfg *Config, actual, remaining []float64) hyperResult {
	var out hyperResult
	copy(remaining, actual)
	model := p.model
	fast := p.fastOK && !cfg.reference
	hasOv := cfg.Overhead.TimeMs > 0 || cfg.Overhead.EnergyPerSwitch > 0
	t := 0.0
	lastV := math.NaN()

	// Local views of the hot arrays so the loop body indexes them without
	// re-loading the plan's slice headers.
	wcWork, release, ends, insts := p.wcWork, p.release, p.end, p.inst

	for i := range wcWork {
		wc := wcWork[i]
		inst := insts[i]
		w := remaining[inst]
		if w > wc {
			w = wc
		}
		if w <= 0 {
			continue
		}
		remaining[inst] -= w
		a := t
		if r := release[i]; r > a {
			a = r
		}

		var v, ct, epc float64
		switch cfg.Policy {
		case Greedy:
			if fast {
				// Inlined SimpleInverse VoltageForWindow + CycleTime with the
				// exact operation order of the generic path, so results match
				// it bit for bit: tc = window/wc, v = clamp(K/tc), ct = K/v.
				window := ends[i] - a
				if window <= 0 {
					v = p.fVMax
				} else if v = p.fK / (window / wc); v < p.fVMin {
					v = p.fVMin
				} else if v > p.fVMax {
					v = p.fVMax
				}
				ct = p.fK / v
			} else {
				v, _ = power.VoltageForWindow(model, wc, ends[i]-a)
				ct = model.CycleTime(v)
			}
			epc = p.ceff[i] * v * v
		case Static:
			if cfg.reference {
				// Voltage from the *static* window: budget over [static
				// start, end], where the static start is the latest time the
				// worst case could begin.
				v, _ = power.VoltageForWindow(model, wc, p.staticWin[i])
				ct = model.CycleTime(v)
				epc = p.ceff[i] * v * v
			} else {
				v, ct, epc = p.vStatic[i], p.tcStatic[i], p.epcStatic[i]
			}
		default: // NoDVS; unknown policies are rejected before dispatch
			if cfg.reference {
				v = model.VMax()
				ct = model.CycleTime(v)
				epc = p.ceff[i] * v * v
			} else {
				v, ct, epc = p.vNoDVS, p.tcNoDVS, p.epcNoDVS[i]
			}
		}

		// Voltage-transition accounting. The very first piece establishes
		// the initial operating point rather than switching to it: a DVS
		// processor is already running at some voltage when the schedule
		// starts, so no transition cost is charged and nothing is counted.
		if math.IsNaN(lastV) {
			lastV = v
		} else if hasOv {
			if math.Abs(v-lastV) > cfg.Overhead.Epsilon {
				out.switches++
				out.energy += cfg.Overhead.EnergyPerSwitch
				a += cfg.Overhead.TimeMs
			}
			lastV = v
		} else {
			if v != lastV {
				out.switches++
			}
			lastV = v
		}

		dur := w * ct
		end := a + dur
		out.energy += epc * w
		out.busy += dur
		out.voltTime += v * dur
		t = end

		// A piece that finished its share late only matters if the parent
		// instance has no later budget; conservatively flag any end past
		// the absolute deadline — correct schedules never trigger it.
		if end > p.deadline[i]+1e-9 {
			out.misses++
			if over := end - p.deadline[i]; over > out.worstOver {
				out.worstOver = over
			}
		}
	}
	return out
}
