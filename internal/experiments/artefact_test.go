package experiments

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"
)

// TestArtefactTable pins the headline improvements of E2–E4 at tinyCommon's
// budget: Fig. 6(a)'s cells at N ∈ {2, 4} and CNC and GAP, each at ratios
// 0.1, 0.5 and 0.9. Every value is ACS's simulated improvement over WCS in
// percent, pinned to 0.1. A solver change that moves either schedule moves
// these numbers, so it shows here as a diff of literals instead of passing
// silently.
func TestArtefactTable(t *testing.T) {
	ratios := []float64{0.1, 0.5, 0.9}
	got := map[string]float64{}
	cells, err := Fig6a(Fig6aConfig{Common: tinyCommon(), TaskCounts: []int{2, 4}, Ratios: ratios})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Failures > 0 {
			t.Errorf("Fig. 6(a) N=%d ratio=%g: %d failures", c.N, c.Ratio, c.Failures)
		}
		got[fmt.Sprintf("fig6a N=%d ratio=%g", c.N, c.Ratio)] = c.Improvement.Mean()
	}
	apps, err := Fig6b(Fig6bConfig{Common: tinyCommon(), Ratios: ratios})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range apps {
		got[fmt.Sprintf("%s ratio=%g", c.App, c.Ratio)] = c.Improvement
	}

	want := map[string]float64{
		"fig6a N=2 ratio=0.1": 26.55,
		"fig6a N=2 ratio=0.5": 15.98,
		"fig6a N=2 ratio=0.9": 0.56,
		"fig6a N=4 ratio=0.1": 29.15,
		"fig6a N=4 ratio=0.5": 14.29,
		"fig6a N=4 ratio=0.9": 1.56,
		"CNC ratio=0.1":       14.13,
		"CNC ratio=0.5":       3.63,
		"CNC ratio=0.9":       1.47,
		"GAP ratio=0.1":       8.83,
		"GAP ratio=0.5":       7.34,
		"GAP ratio=0.9":       1.55,
	}
	if len(got) != len(want) {
		t.Fatalf("%d artefact values, want %d: %v", len(got), len(want), got)
	}
	for _, k := range slices.Sorted(maps.Keys(got)) {
		t.Logf("%-20s %.3f%%", k, got[k])
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("%s: missing", k)
			continue
		}
		if math.Abs(g-w) > 0.1 {
			t.Errorf("%s: improvement %.3f%%, pinned %.2f%%", k, g, w)
		}
	}
}
