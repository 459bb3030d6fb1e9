package main

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/workload"
)

// TestRunInProcess: a small in-process load run completes with zero errors
// and zero determinism mismatches, and its report parses.
func TestRunInProcess(t *testing.T) {
	leakcheck.Check(t)
	var out strings.Builder
	err := run([]string{"-requests", "12", "-concurrency", "3", "-unique", "0.3",
		"-seed", "7", "-ntasks", "2"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	var rep report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("report does not parse: %v\n%s", err, out.String())
	}
	if rep.Requests != 12 || rep.Errors != 0 || rep.Mismatches != 0 {
		t.Errorf("implausible report: %+v", rep)
	}
	if rep.UniqueSets < 1 || rep.UniqueSets > 12 {
		t.Errorf("unique set count out of range: %d", rep.UniqueSets)
	}
	if rep.Throughput <= 0 || rep.LatencyMs.Max <= 0 {
		t.Errorf("missing measurements: %+v", rep)
	}
	// Regression: the report surfaces the memo's eviction/byte accounting as
	// first-class fields, not just hit/miss counts.
	m := rep.Metrics
	if m == nil {
		t.Fatal("report has no metrics section")
	}
	if m.ScheduleMisses == 0 {
		t.Error("metrics section recorded no solves")
	}
	if m.BytesCap != 256<<20 {
		t.Errorf("metrics section bytes cap %g, want default 256 MiB", m.BytesCap)
	}
	if m.BytesUsed <= 0 {
		t.Error("metrics section shows no resident bytes after solves")
	}
	if rate := m.ScheduleHits / (m.ScheduleHits + m.ScheduleMisses); rate <= 0 || rate >= 1 {
		t.Errorf("hit rate %g implausible for a repeat mix", rate)
	}
	for _, field := range []string{`"evictions"`, `"bytes_used"`, `"bytes_cap"`, `"schedule_hits"`, `"schedule_misses"`} {
		if !strings.Contains(out.String(), field) {
			t.Errorf("report body missing %s", field)
		}
	}
}

// TestBuildBodiesDeterministic: the generated request stream is a pure
// function of its seed.
func TestBuildBodiesDeterministic(t *testing.T) {
	gen := func() []string {
		bodies, n, err := buildBodies(20, 0.25, 42,
			workload.RandomConfig{N: 3, Ratio: 0.5, Utilization: 0.7})
		if err != nil {
			t.Fatal(err)
		}
		if n != 5 {
			t.Fatalf("want 5 unique bodies, got %d", n)
		}
		return bodies
	}
	a, b := gen(), gen()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("body %d differs across equal seeds", i)
		}
	}
	seen := map[string]bool{}
	for _, body := range a {
		if seen[body] {
			t.Fatal("duplicate unique bodies")
		}
		seen[body] = true
	}
}

// TestRunFlagErrors: invalid invocations fail fast.
func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-requests", "0"},
		{"-unique", "1.5"},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("args %v: expected an error", args)
		}
	}
}

// TestRunRestartReport is the report-schema regression for -restart: the run
// succeeds, the top-level report reflects the warm phase, the restart section
// carries the cold/warm comparison with (near-)total solve avoidance, and the
// tiered-store counters appear by name in the JSON body.
func TestRunRestartReport(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	var out strings.Builder
	err := run([]string{"-restart", "-store-dir", dir, "-requests", "12",
		"-concurrency", "3", "-unique", "0.3", "-seed", "7", "-ntasks", "2"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	var rep report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("report does not parse: %v\n%s", err, out.String())
	}
	if rep.Errors != 0 || rep.Mismatches != 0 {
		t.Fatalf("restart run reported failures: %+v", rep)
	}
	rr := rep.Restart
	if rr == nil {
		t.Fatalf("report has no restart section:\n%s", out.String())
	}
	if rr.ColdScheduleMisses == 0 {
		t.Error("cold phase solved nothing — the comparison is vacuous")
	}
	if rr.SolveAvoidancePct < 90 {
		t.Errorf("solve avoidance %.1f%%, want >= 90", rr.SolveAvoidancePct)
	}
	if rr.WarmDiskHits == 0 {
		t.Errorf("warm phase shows no recovered-store activity: %+v", rr)
	}
	if rr.ColdDurationMs <= 0 || rr.WarmDurationMs <= 0 {
		t.Errorf("missing phase durations: %+v", rr)
	}
	// The headline metrics section must be the WARM scrape: by then every
	// schedule is served from some tier, never re-solved.
	if rep.Metrics == nil || rep.Metrics.ScheduleMisses != 0 {
		t.Errorf("headline metrics section is not the warm phase: %+v", rep.Metrics)
	}
	for _, field := range []string{`"restart"`, `"cold_schedule_misses"`,
		`"warm_schedule_misses"`, `"solve_avoidance_pct"`, `"warm_mem_hits"`,
		`"warm_disk_hits"`} {
		if !strings.Contains(out.String(), field) {
			t.Errorf("report body missing %s", field)
		}
	}
}

// TestRunRestartFlagErrors: -restart/-store-dir target the in-process server
// and must be rejected alongside -addr.
func TestRunRestartFlagErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-restart", "-addr", "http://127.0.0.1:1"}, &out); err == nil {
		t.Error("-restart with -addr accepted")
	}
	if err := run([]string{"-store-dir", t.TempDir(), "-addr", "http://127.0.0.1:1"}, &out); err == nil {
		t.Error("-store-dir with -addr accepted")
	}
}

// TestRunWithFaultsAndRestart is the fault-injected smoke (ISSUE:
// robustness): a -restart run against a store taking torn writes and sync
// failures must still complete with zero request errors and zero determinism
// mismatches — disk faults cost durability (the avoidance gate is waived),
// never correctness. The report must carry the fault spec it ran under.
func TestRunWithFaultsAndRestart(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	var out strings.Builder
	err := run([]string{"-restart", "-store-dir", dir, "-requests", "16",
		"-concurrency", "4", "-unique", "0.5", "-seed", "3", "-ntasks", "2",
		"-faults", "fs.write=torn:0.5:0.3,fs.sync=err:0.2", "-faultseed", "7"}, &out)
	if err != nil {
		t.Fatalf("fault-injected restart run failed: %v\n%s", err, out.String())
	}
	var rep report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("report does not parse: %v\n%s", err, out.String())
	}
	if rep.Errors != 0 {
		t.Errorf("injected disk faults failed %d requests; degradation must be invisible", rep.Errors)
	}
	if rep.Mismatches != 0 {
		t.Errorf("injected disk faults changed response bytes: %d mismatches", rep.Mismatches)
	}
	if rep.Faults == "" {
		t.Error("report does not record the fault spec")
	}
	if rep.Restart == nil {
		t.Fatal("report has no restart section")
	}
}

// TestRunFaultsFlagErrors: -faults drives the in-process server and a bad
// spec fails fast.
func TestRunFaultsFlagErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-faults", "fs.write=err:0.5", "-addr", "http://127.0.0.1:1"}, &out); err == nil {
		t.Error("-faults with -addr accepted")
	}
	if err := run([]string{"-faults", "fs.write=bogus"}, &out); err == nil {
		t.Error("malformed fault spec accepted")
	}
}

// TestRunFleetInProcess: a -fleet run with a peer killed mid-stream finishes
// with zero errors and zero determinism mismatches — the replicas absorbed
// the dead peer's keys byte-identically — and the report carries the fleet
// section with the router's counters, scraped from entry peer 0's /metrics.
func TestRunFleetInProcess(t *testing.T) {
	leakcheck.Check(t)
	var out strings.Builder
	err := run([]string{"-fleet", "3", "-killpeer", "1", "-requests", "15",
		"-concurrency", "3", "-unique", "0.4", "-seed", "5", "-ntasks", "2"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	var rep report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("report does not parse: %v\n%s", err, out.String())
	}
	if rep.Errors != 0 || rep.Mismatches != 0 {
		t.Errorf("fleet run with a killed peer: %d errors, %d mismatches, want 0/0", rep.Errors, rep.Mismatches)
	}
	if rep.Fleet == nil {
		t.Fatal("report has no fleet section")
	}
	if rep.Fleet.Peers != 3 || rep.Fleet.Replicas != 2 || rep.Fleet.KilledPeer != 1 || rep.Fleet.Processes {
		t.Errorf("fleet section wrong: %+v", rep.Fleet)
	}
	// The router's accounting must show the dead peer's keys failing over.
	if rep.Fleet.Failovers == 0 && rep.Fleet.Errors == 0 {
		t.Error("a peer died mid-run but the router recorded no failovers or errors")
	}
}

// TestRunFleetFlagErrors: fleet flags compose only with each other.
func TestRunFleetFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-fleet", "1"},
		{"-fleet", "3", "-restart"},
		{"-fleet", "3", "-addr", "http://localhost:1"},
		{"-fleet", "3", "-store-dir", "/tmp/x"},
		{"-fleet", "2", "-killpeer", "2"},
		{"-fleet", "3", "-killpeer", "0"},
		{"-fleet", "2", "-schedd", "/bin/true", "-killpeer", "0"},
		{"-killpeer", "1"},
		{"-schedd", "/bin/true"},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("args %v: expected an error", args)
		}
	}
}
