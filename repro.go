// Package repro is a Go reproduction of "Exploiting Dynamic Workload
// Variation in Low Energy Preemptive Task Scheduling" (Leung, Tsoi, Hu,
// Quan — DATE 2005).
//
// The paper's contribution, called ACS here, is an offline voltage scheduler
// for preemptive hard real-time systems on DVS processors: it chooses a
// static end-time and a worst-case workload budget for every sub-instance of
// a fully-preemptive schedule so that runtime energy is minimised when tasks
// take their *average* workload, while deadlines still hold when every task
// takes its *worst-case* workload. The online phase then reclaims slack
// greedily, recomputing each sub-instance's voltage from its static end-time
// and worst-case budget.
//
// This package is the public facade: it re-exports the task model, the
// processor models, the ACS/WCS offline solvers and the runtime simulator
// from the internal packages, wired together the way the examples and
// benchmarks use them. See DESIGN.md for the architecture and DESIGN.md §4
// for the experiment index mapping paper artefacts to harnesses.
//
// Quickstart:
//
//	set, _ := repro.NewTaskSet([]repro.Task{
//		{Name: "ctrl", Period: 20, WCEC: 20, ACEC: 10, BCEC: 5, Ceff: 1},
//		{Name: "log", Period: 40, WCEC: 30, ACEC: 12, BCEC: 6, Ceff: 1},
//	})
//	acs, wcs, _ := repro.BuildBoth(set, repro.ScheduleConfig{})
//	imp, _, _, _ := repro.CompareSchedules(acs, wcs, repro.SimConfig{Hyperperiods: 1000, Seed: 1})
//	fmt.Printf("ACS saves %.1f%% runtime energy over WCS\n", imp)
package repro

import (
	"context"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/partition"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/workload"
)

// Task model re-exports.
type (
	// Task is one periodic task (period = deadline, WCEC/ACEC/BCEC, Ceff).
	Task = task.Task
	// TaskSet is an RM-priority-ordered set of tasks.
	TaskSet = task.Set
	// Instance is one release of a task within a hyper-period.
	Instance = task.Instance
)

// NewTaskSet validates tasks and orders them by rate-monotonic priority.
func NewTaskSet(tasks []Task) (*TaskSet, error) { return task.NewSet(tasks) }

// Processor model re-exports.
type (
	// PowerModel maps supply voltage to clock speed within [VMin, VMax].
	PowerModel = power.Model
	// SimpleInverseModel has cycle time proportional to 1/V (the paper's
	// motivational-example model).
	SimpleInverseModel = power.SimpleInverse
	// AlphaModel is the alpha-power-law delay model of paper eq. (1).
	AlphaModel = power.Alpha
	// DiscreteModel restricts voltages to a finite level set.
	DiscreteModel = power.Discrete
)

// NewSimpleInverseModel returns the tc = K/V model on [vmin, vmax].
func NewSimpleInverseModel(k, vmin, vmax float64) (*SimpleInverseModel, error) {
	return power.NewSimpleInverse(k, vmin, vmax)
}

// NewAlphaModel returns the tc = K·V/(V−Vt)^α model on [vmin, vmax].
func NewAlphaModel(k, vt, alpha, vmin, vmax float64) (*AlphaModel, error) {
	return power.NewAlpha(k, vt, alpha, vmin, vmax)
}

// DefaultModel returns the model the experiments use: tc = 1/V ms per cycle
// on [0.7 V, 4 V].
func DefaultModel() PowerModel { return power.DefaultModel() }

// Offline scheduler re-exports.
type (
	// Schedule is a solved static voltage schedule (end-times + worst-case
	// budgets per sub-instance).
	Schedule = core.Schedule
	// ScheduleConfig tunes the offline solver.
	ScheduleConfig = core.Config
	// Objective selects ACS (AverageCase) or WCS (WorstCase).
	Objective = core.Objective
)

// Objective values.
const (
	AverageCase = core.AverageCase
	WorstCase   = core.WorstCase
)

// BuildSchedule solves a static schedule for the given objective.
func BuildSchedule(set *TaskSet, cfg ScheduleConfig) (*Schedule, error) {
	return core.Build(set, cfg)
}

// BuildBoth solves the WCS baseline first and then ACS warm-started from it,
// which guarantees the ACS solution is never worse than the baseline on the
// average-case objective. This is the pairing every experiment and the
// server use: a one-core partitioned solve, unmemoized. cfg's Objective and
// WarmStart are ignored.
func BuildBoth(set *TaskSet, cfg ScheduleConfig) (acs, wcs *Schedule, err error) {
	cfg.Objective = core.AverageCase
	cfg.WarmStart = nil
	res, err := partition.Solve(context.Background(), grid.New(1, nil), set,
		partition.Config{Cores: 1, Solver: cfg})
	if err != nil {
		return nil, nil, err
	}
	return res.Cores[0].ACS, res.Cores[0].WCS, nil
}

// Runtime simulator re-exports.
type (
	// SimConfig parameterises a runtime simulation.
	SimConfig = sim.Config
	// SimResult aggregates a simulation run.
	SimResult = sim.Result
	// SlackPolicy selects the runtime slack strategy.
	SlackPolicy = sim.SlackPolicy
	// Distribution draws actual execution cycles for a release.
	Distribution = sim.Distribution
	// Overhead models voltage-transition cost.
	Overhead = sim.Overhead
)

// Slack policies.
const (
	Greedy = sim.Greedy
	Static = sim.Static
	NoDVS  = sim.NoDVS
)

// Simulate runs a schedule under stochastic workloads.
func Simulate(s *Schedule, cfg SimConfig) (*SimResult, error) { return sim.Run(s, cfg) }

// CompareSchedules simulates two schedules under identical workload draws
// and returns the percentage energy improvement of a over b.
func CompareSchedules(a, b *Schedule, cfg SimConfig) (improvementPct float64, ra, rb *SimResult, err error) {
	return sim.Compare(a, b, cfg)
}

// Workload sources.
type (
	// RandomTaskSetConfig parameterises the paper's §4 generator.
	RandomTaskSetConfig = workload.RandomConfig
	// RNG is the deterministic generator all stochastic code uses.
	RNG = stats.RNG
)

// NewRNG returns a deterministic random generator.
func NewRNG(seed uint64) *RNG { return stats.NewRNG(seed) }

// RandomTaskSet draws one task set per the paper's §4 recipe.
func RandomTaskSet(rng *RNG, cfg RandomTaskSetConfig) (*TaskSet, error) {
	return workload.Random(rng, cfg)
}

// CNCTaskSet returns the CNC controller case study (Fig. 6(b)).
func CNCTaskSet(ratio, utilization float64, m PowerModel) (*TaskSet, error) {
	return workload.CNC(ratio, utilization, m)
}

// GAPTaskSet returns the Generic Avionics Platform case study (Fig. 6(b)).
func GAPTaskSet(ratio, utilization float64, m PowerModel) (*TaskSet, error) {
	return workload.GAP(ratio, utilization, m)
}

// Schedulability analysis re-exports (internal/sched).

// ResponseTimes returns the exact worst-case response time of every task
// under preemptive RM at the given cycle time (ms per cycle); an error means
// some task misses its deadline at that speed.
func ResponseTimes(set *TaskSet, cycleTime float64) ([]float64, error) {
	return sched.ResponseTimes(set, cycleTime)
}

// RTASchedulable reports whether exact response-time analysis admits the
// set at the given cycle time.
func RTASchedulable(set *TaskSet, cycleTime float64) bool {
	return sched.RTASchedulable(set, cycleTime)
}

// MinCycleTime returns the slowest uniform speed (largest cycle time) at
// which the set remains schedulable — the uniform-slowdown headroom a static
// voltage scheduler can exploit.
func MinCycleTime(set *TaskSet, fastCycleTime float64) (float64, error) {
	return sched.MinCycleTime(set, fastCycleTime)
}
