package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// smallArgs keeps the closed loops short enough for a unit test while still
// crossing one mode switch and one drift transition.
func smallArgs(extra ...string) []string {
	args := []string{"-n", "3", "-horizon", "100", "-chunk", "10",
		"-switchevery", "40", "-driftover", "60", "-seed", "1"}
	return append(args, extra...)
}

// TestRunReportShape: the harness completes over every scenario, the report
// parses, the static arm is matched on stationary workloads and beaten on
// the nonstationary ones, and the oracle bounds the adaptive arm.
func TestRunReportShape(t *testing.T) {
	var out strings.Builder
	if err := run(smallArgs(), &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	var rep report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if len(rep.Scenarios) != 4 {
		t.Fatalf("%d scenario reports, want 4", len(rep.Scenarios))
	}
	for _, sr := range rep.Scenarios {
		if sr.StaticEnergy <= 0 || sr.AdaptiveEnergy <= 0 || sr.OracleEnergy <= 0 {
			t.Errorf("%s: non-positive energies: %+v", sr.Scenario, sr)
		}
		if sr.DeadlineMisses != 0 {
			t.Errorf("%s: %d deadline misses", sr.Scenario, sr.DeadlineMisses)
		}
		switch sr.Scenario {
		case "stationary":
			if sr.Resolves != 0 || sr.AdaptiveEnergy != sr.StaticEnergy {
				t.Errorf("stationary arm not neutral: %+v", sr)
			}
		case "modeswitch", "drift":
			if sr.Resolves == 0 {
				t.Errorf("%s: no re-solves", sr.Scenario)
			}
			if sr.AdaptiveEnergy >= sr.StaticEnergy {
				t.Errorf("%s: adaptive %g not below static %g", sr.Scenario, sr.AdaptiveEnergy, sr.StaticEnergy)
			}
			if sr.OracleEnergy > sr.AdaptiveEnergy {
				t.Errorf("%s: oracle %g above adaptive %g — not a lower bound here",
					sr.Scenario, sr.OracleEnergy, sr.AdaptiveEnergy)
			}
		}
	}
	if rep.Cache.ScheduleMisses == 0 {
		t.Error("no solves recorded in cache stats")
	}
}

// TestRunDeterministicAndCacheInvariant: the report is byte-identical across
// runs and across cache on/off (modulo the cache-stats section, which is
// operational state).
func TestRunDeterministicAndCacheInvariant(t *testing.T) {
	render := func(extra ...string) string {
		var out strings.Builder
		if err := run(smallArgs(extra...), &out); err != nil {
			t.Fatalf("run: %v", err)
		}
		return out.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatal("report not deterministic across identical runs")
	}
	scenariosOnly := func(s string) string {
		var rep report
		if err := json.Unmarshal([]byte(s), &rep); err != nil {
			t.Fatal(err)
		}
		buf, err := json.Marshal(rep.Scenarios)
		if err != nil {
			t.Fatal(err)
		}
		return string(buf)
	}
	if scenariosOnly(a) != scenariosOnly(render("-nocache")) {
		t.Error("cache state changed scenario results")
	}
}

// TestRunWritesArtefact: -o writes the same bytes as stdout.
func TestRunWritesArtefact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var out strings.Builder
	if err := run(smallArgs("-scenarios", "stationary", "-o", path), &out); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("no stdout output")
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != out.String() {
		t.Error("artefact differs from stdout")
	}
}

// TestRecordReplayMatchesRun: -record writes a scenario's observation
// stream, and -replay of that trace at the same chunk reproduces the
// generated run's static and adaptive arms exactly.
func TestRecordReplayMatchesRun(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run(smallArgs("-scenarios", "modeswitch", "-record", dir), &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	var rep report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) != 1 {
		t.Fatalf("%d scenario reports, want 1", len(rep.Scenarios))
	}
	want := rep.Scenarios[0]
	if want.Resolves == 0 {
		t.Fatal("the recorded scenario never re-solved: the comparison would be vacuous")
	}

	out.Reset()
	if err := run([]string{"-replay", filepath.Join(dir, "modeswitch.trace"), "-chunk", "10"}, &out); err != nil {
		t.Fatalf("replay: %v", err)
	}
	var got replayReport
	if err := json.Unmarshal([]byte(out.String()), &got); err != nil {
		t.Fatal(err)
	}
	if got.Horizon != want.Horizon || got.StaticEnergy != want.StaticEnergy ||
		got.AdaptiveEnergy != want.AdaptiveEnergy || got.Resolves != want.Resolves ||
		got.Drifts != want.Drifts || !reflect.DeepEqual(got.SwapHyperperiod, want.SwapHyperperiod) {
		t.Errorf("replay differs from the generated run:\n got %+v\nwant %+v", got, want)
	}
}

func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-scenarios", "nope"},
		{"-scenarios", ""},
		{"-horizon", "0"},
		{"positional"},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("args %v: expected an error", args)
		}
	}
}
