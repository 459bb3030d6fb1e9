package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/grid"
)

// faultyOpen opens a store whose filesystem is driven by a fresh registry.
func faultyOpen(t *testing.T, dir string, seed uint64) (*Disk, *fault.Registry) {
	t.Helper()
	reg := fault.NewRegistry(seed)
	d := mustOpen(t, dir, Options{FS: fault.Inject(fault.OS(), reg)})
	return d, reg
}

// TestDiskTornWriteRecovery: a put torn mid-record fails, counts a write error
// and leaves no slot file, since it created the file; later puts are
// unaffected, and a reopened store serves exactly the records whose puts
// succeeded.
func TestDiskTornWriteRecovery(t *testing.T) {
	dir := t.TempDir()
	entries := solveN(t, 4)
	d, reg := faultyOpen(t, dir, 11)

	if err := d.TryPutSchedule(entries[0].key, entries[0].s, nil); err != nil {
		t.Fatal(err)
	}
	reg.Arm("fs.write", fault.Spec{Prob: 1, Err: true, Torn: 0.6})
	if err := d.TryPutSchedule(entries[1].key, entries[1].s, nil); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("torn put err = %v, want ErrInjected", err)
	}
	if _, err := os.Stat(filepath.Join(dir, schedulesDir, entries[1].key.String()+"~0")); !os.IsNotExist(err) {
		t.Fatalf("torn put left its slot file: stat err = %v", err)
	}
	reg.Disarm("fs.write")
	if err := d.TryPutSchedule(entries[2].key, entries[2].s, nil); err != nil {
		t.Fatalf("put after a torn one failed: %v", err)
	}
	reg.Arm("fs.write", fault.Spec{Prob: 1, Err: true, Torn: 0.6})
	if err := d.TryPutSchedule(entries[3].key, entries[3].s, nil); err == nil {
		t.Fatal("torn put reported success")
	}
	if st := d.Stats(); st.DiskWriteErrs != 2 {
		t.Fatalf("write errs = %d, want 2", st.DiskWriteErrs)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := mustOpen(t, dir, Options{})
	wantResident(t, d2, entries[0])
	wantResident(t, d2, entries[2])
	for _, i := range []int{1, 3} {
		if _, _, ok := d2.GetSchedule(entries[i].key); ok {
			t.Fatalf("torn entry %d resident after reopen", i)
		}
	}
}

// TestPutScheduleSync: under Options.Sync a new schedule record fsyncs its
// slot file and schedules/, two syncs; without Sync a put never syncs. A
// put of a key that already holds a valid record writes and syncs nothing.
func TestPutScheduleSync(t *testing.T) {
	e := solveN(t, 1)[0]
	for _, sync := range []bool{false, true} {
		reg := fault.NewRegistry(16)
		reg.Arm("fs.write", fault.Spec{}) // never fires; counts the calls
		reg.Arm("fs.sync", fault.Spec{})
		d := mustOpen(t, t.TempDir(), Options{Sync: sync, FS: fault.Inject(fault.OS(), reg)})
		if err := d.TryPutSchedule(e.key, e.s, nil); err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if sync {
			want = 2
		}
		snap := reg.Snapshot()
		if snap["fs.write"].Calls != 1 || snap["fs.sync"].Calls != want {
			t.Errorf("sync=%v: a new record made %d writes and %d syncs, want 1 and %d",
				sync, snap["fs.write"].Calls, snap["fs.sync"].Calls, want)
		}
		if err := d.TryPutSchedule(e.key, e.s, nil); err != nil {
			t.Fatal(err)
		}
		if again := reg.Snapshot(); again["fs.write"].Calls != 1 || again["fs.sync"].Calls != want {
			t.Errorf("sync=%v: a duplicate put wrote or synced", sync)
		}
		wantResident(t, d, e)
	}
}

// TestDiskReadErrorDegradesToMiss: an indexed record whose read fails
// degrades to a miss with the I/O error exposed to TryGetSchedule, and the
// entry serves again once the fault clears.
func TestDiskReadErrorDegradesToMiss(t *testing.T) {
	dir := t.TempDir()
	e := solveN(t, 1)[0]
	d, reg := faultyOpen(t, dir, 12)
	d.PutSchedule(e.key, e.s, nil)

	reg.Arm("fs.read", fault.Spec{Prob: 1, Err: true})
	if _, _, ok := d.GetSchedule(e.key); ok {
		t.Fatal("read-faulted record reported resident")
	}
	if _, _, _, ioErr := d.TryGetSchedule(e.key); !errors.Is(ioErr, fault.ErrInjected) {
		t.Fatalf("ioErr = %v, want ErrInjected", ioErr)
	}
	if st := d.Stats(); st.DiskReadErrs < 2 {
		t.Fatalf("read errs = %d, want >= 2", st.DiskReadErrs)
	}
	reg.Disarm("fs.read")
	wantResident(t, d, e)
}

// TestTieredBreakerDegradeAndRecover drives the full degradation cycle:
// persistent disk failures trip the breaker, the store serves memory-only
// (no failed requests), and once faults clear the cooldown probe re-closes
// it and tiered residency resumes.
func TestTieredBreakerDegradeAndRecover(t *testing.T) {
	dir := t.TempDir()
	const trip = fault.BreakerThreshold
	entries := solveN(t, trip+5)
	d, reg := faultyOpen(t, dir, 13)
	tiered := NewTiered(grid.NewMemStore(0), d)
	now := time.Unix(0, 0)
	tiered.Breaker().SetClock(func() time.Time { return now })

	// onDisk reports whether the disk tier holds entry i.
	onDisk := func(i int) bool {
		_, _, ok := d.GetSchedule(entries[i].key)
		return ok
	}

	// Healthy: writes land in both tiers.
	tiered.PutSchedule(entries[0].key, entries[0].s, nil)
	if st := tiered.Stats(); !onDisk(0) || st.BreakerState != "closed" {
		t.Fatalf("healthy stats = %+v", st)
	}

	// Persistent write failure: BreakerThreshold distinct puts trip the
	// breaker. Every put still lands in memory — no request-visible failure.
	reg.Arm("fs.write", fault.Spec{Prob: 1, Err: true})
	for i := 1; i <= trip; i++ {
		tiered.PutSchedule(entries[i].key, entries[i].s, nil)
	}
	st := tiered.Stats()
	if st.BreakerState != "open" || !st.MemDegraded || st.BreakerTrips != 1 {
		t.Fatalf("after %d failures: %+v", trip, st)
	}
	for i := 1; i <= trip; i++ {
		if _, _, ok := tiered.GetSchedule(entries[i].key); !ok {
			t.Fatalf("memory tier lost entry %d during degradation", i)
		}
	}

	// While open: disk is never consulted (a faulted read would panic the
	// counters otherwise) and further puts are memory-only, not scored.
	reg.Arm("fs.read", fault.Spec{Prob: 1, Err: true})
	tiered.PutSchedule(entries[trip+1].key, entries[trip+1].s, nil)
	if _, _, ok := tiered.GetSchedule(entries[trip+2].key); ok {
		t.Fatal("absent key reported resident while degraded")
	}
	if got := tiered.Stats(); got.DiskWriteErrs != trip || got.DiskReadErrs != 0 {
		t.Fatalf("degraded mode still touched the disk: %+v", got)
	}

	// Blob operations fail fast while degraded.
	if err := tiered.PutBlob("cp", []byte("x")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded PutBlob err = %v, want ErrDegraded", err)
	}
	if _, ok, err := tiered.GetBlob("cp"); ok || err != nil {
		t.Fatalf("degraded GetBlob = ok=%v err=%v, want absent", ok, err)
	}

	// Faults clear, cooldown elapses: the next disk operation is the reopen
	// probe and re-closes the breaker.
	reg.DisarmAll()
	now = now.Add(fault.BreakerCooldown)
	tiered.PutSchedule(entries[trip+3].key, entries[trip+3].s, nil)
	st = tiered.Stats()
	if st.BreakerState != "closed" || st.MemDegraded || st.BreakerRecloses != 1 {
		t.Fatalf("after recovery: %+v", st)
	}
	// Full tiered residency resumed: the post-recovery entry is durable, and
	// nothing put while the disk failed or the breaker was open is.
	for i := range entries {
		if want := i == 0 || i == trip+3; onDisk(i) != want {
			t.Fatalf("entry %d on disk = %v, want %v", i, !want, want)
		}
	}
	if err := tiered.PutBlob("cp", []byte("x")); err != nil {
		t.Fatalf("recovered PutBlob failed: %v", err)
	}
	if _, ok, err := tiered.GetBlob("cp"); !ok || err != nil {
		t.Fatalf("recovered GetBlob = ok=%v err=%v", ok, err)
	}

	// A half-open probe that fails re-trips immediately.
	reg.Arm("fs.write", fault.Spec{Prob: 1, Err: true})
	for i := 0; i < trip; i++ {
		tiered.PutSchedule(entries[trip+4].key, entries[trip+4].s, nil)
	}
	if got := tiered.Stats(); got.BreakerState != "open" || got.BreakerTrips != 2 {
		t.Fatalf("re-trip failed: %+v", got)
	}
	now = now.Add(fault.BreakerCooldown)
	if err := tiered.PutBlob("cp2", []byte("y")); err == nil {
		t.Fatal("half-open probe against a still-dead disk succeeded")
	}
	if got := tiered.Stats(); got.BreakerState != "open" || got.BreakerTrips != 3 {
		t.Fatalf("failed probe did not re-open: %+v", got)
	}
}

// TestPutBlobSync: under Options.Sync a blob put fsyncs the slot file it
// wrote, and blobs/ too when it created that file, all through the fs.sync
// failpoint; without Sync a put never syncs. A put whose write or file sync
// fails counts a write error and leaves GetBlob on the previous bytes; one
// that created its slot file removes it, so a failing directory sync on a
// name's first put leaves no slot file behind, and the next put creates the
// file again and syncs blobs/ again.
func TestPutBlobSync(t *testing.T) {
	for _, sync := range []bool{false, true} {
		reg := fault.NewRegistry(13)
		reg.Arm("fs.sync", fault.Spec{}) // never fires; counts the calls
		d := mustOpen(t, t.TempDir(), Options{Sync: sync, FS: fault.Inject(fault.OS(), reg)})
		for _, v := range []string{"one", "two", "three"} {
			if err := d.PutBlob("session-s1", []byte(v)); err != nil {
				t.Fatalf("sync=%v: %v", sync, err)
			}
		}
		want := int64(0)
		if sync {
			want = 5 // 2 + 2 + 1: the first two puts each create a slot file
		}
		if got := reg.Snapshot()["fs.sync"].Calls; got != want {
			t.Errorf("sync=%v: 3 puts made %d syncs, want %d", sync, got, want)
		}
	}

	dir := t.TempDir()
	reg := fault.NewRegistry(14)
	d := mustOpen(t, dir, Options{Sync: true, FS: fault.Inject(fault.OS(), reg)})
	reg.Arm("fs.sync", fault.Spec{Prob: 1, Err: true, After: 1}) // the directory's sync
	if err := d.PutBlob("session-s1", []byte("lost")); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("first put with a failing directory sync: err = %v, want ErrInjected", err)
	}
	if entries, err := os.ReadDir(filepath.Join(dir, "blobs")); err != nil || len(entries) != 0 {
		t.Fatalf("failed first put left %v behind (err %v)", entries, err)
	}
	wantBlob(t, d, "session-s1", "")
	reg.Disarm("fs.sync")

	for _, v := range []string{"v1", "v2"} {
		if err := d.PutBlob("session-s1", []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	reg.Arm("fs.sync", fault.Spec{Prob: 1, Err: true})
	if err := d.PutBlob("session-s1", []byte("v3-synced-never")); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("put with a failing file sync: err = %v, want ErrInjected", err)
	}
	wantBlob(t, d, "session-s1", "v2")
	reg.Disarm("fs.sync")
	reg.Arm("fs.write", fault.Spec{Prob: 1, Err: true})
	if err := d.PutBlob("session-s1", []byte("v4-written-never")); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("put with a failing write: err = %v, want ErrInjected", err)
	}
	wantBlob(t, d, "session-s1", "v2")
	reg.Disarm("fs.write")
	if err := d.PutBlob("session-s1", []byte("v5")); err != nil {
		t.Fatal(err)
	}
	wantBlob(t, d, "session-s1", "v5")

	// A failed put that created its slot file removes it; the next put
	// creates it again and syncs blobs/ again.
	if err := d.PutBlob("session-s2", []byte("a")); err != nil {
		t.Fatal(err)
	}
	reg.Arm("fs.write", fault.Spec{Prob: 1, Err: true})
	if err := d.PutBlob("session-s2", []byte("b")); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("put creating slot ~1 with a failing write: err = %v, want ErrInjected", err)
	}
	reg.Disarm("fs.write")
	if _, err := os.Stat(filepath.Join(dir, "blobs", "session-s2~1")); !os.IsNotExist(err) {
		t.Fatalf("failed put left its new slot file: stat err = %v", err)
	}
	reg.Arm("fs.sync", fault.Spec{}) // counts the calls
	if err := d.PutBlob("session-s2", []byte("c")); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot()["fs.sync"].Calls; got != 2 {
		t.Errorf("put recreating a slot file made %d syncs, want 2", got)
	}
	wantBlob(t, d, "session-s2", "c")
	if st := d.Stats(); st.DiskWriteErrs != 4 {
		t.Errorf("write errs = %d, want 4", st.DiskWriteErrs)
	}
}
