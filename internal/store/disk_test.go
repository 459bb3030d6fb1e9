package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/task"
)

// solvedEntry is one (key, schedule) pair with its canonical encoding, the
// identity the store must preserve.
type solvedEntry struct {
	key  grid.Key
	s    *core.Schedule
	blob []byte
}

// solveN builds n distinct solved schedules with their cache keys.
func solveN(t *testing.T, n int) []solvedEntry {
	t.Helper()
	cfg := core.Config{Objective: core.AverageCase}
	out := make([]solvedEntry, n)
	for i := range out {
		set, err := task.NewSet([]task.Task{
			{Name: "a", Period: 10, WCEC: 3 + 0.25*float64(i), ACEC: 2, BCEC: 1, Ceff: 1},
			{Name: "b", Period: 20, WCEC: 5, ACEC: 3, BCEC: 2, Ceff: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		s, err := core.Build(set, cfg)
		if err != nil {
			t.Fatal(err)
		}
		key, ok := grid.ScheduleKey(set, cfg)
		if !ok {
			t.Fatal("set not key-encodable")
		}
		blob, err := core.EncodeSchedule(s)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = solvedEntry{key: key, s: s, blob: blob}
	}
	return out
}

// mustOpen opens a store and registers its Close.
func mustOpen(t *testing.T, dir string, opts Options) *Disk {
	t.Helper()
	d, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// wantResident asserts the store returns a schedule for key whose canonical
// encoding equals blob — content identity, not pointer identity.
func wantResident(t *testing.T, d *Disk, e solvedEntry) {
	t.Helper()
	s, err, ok := d.GetSchedule(e.key)
	if !ok || err != nil {
		t.Fatalf("entry not resident: ok=%v err=%v", ok, err)
	}
	got, err := core.EncodeSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, e.blob) {
		t.Fatal("resident schedule decodes to different content")
	}
}

// TestDiskPutGetAcrossReopen: entries survive a clean close/reopen with the
// recovery counters reporting a clean scan.
func TestDiskPutGetAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	entries := solveN(t, 4)

	d := mustOpen(t, dir, Options{})
	for _, e := range entries {
		d.PutSchedule(e.key, e.s, nil)
	}
	for _, e := range entries {
		wantResident(t, d, e)
	}
	// Duplicate puts must not grow the log.
	before := d.Stats()
	for _, e := range entries {
		d.PutSchedule(e.key, e.s, nil)
	}
	if after := d.Stats(); after.DiskBytes != before.DiskBytes || after.DiskEntries != before.DiskEntries {
		t.Fatal("duplicate puts grew the log")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := mustOpen(t, dir, Options{})
	st := d2.Stats()
	if st.RecoveredEntries != int64(len(entries)) {
		t.Fatalf("want %d recovered entries, got %d", len(entries), st.RecoveredEntries)
	}
	if st.TornRecordsDropped != 0 {
		t.Fatalf("clean log reported %d truncations", st.TornRecordsDropped)
	}
	for _, e := range entries {
		wantResident(t, d2, e)
	}
	if got := d2.Stats(); got.DiskHits != int64(len(entries)) {
		t.Fatalf("want %d disk hits, got %d", len(entries), got.DiskHits)
	}
}

// corrupt applies damage to the single segment file of dir.
func corrupt(t *testing.T, dir string, damage func(data []byte) []byte) {
	t.Helper()
	path := filepath.Join(dir, "seg-000000.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, damage(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDiskCrashRecovery is the torn-tail contract: after any of the crash
// shapes below hits the end of the log, reopening recovers every undamaged
// record, reports the truncation, and the store accepts new puts that then
// survive the next clean reopen.
func TestDiskCrashRecovery(t *testing.T) {
	entries := solveN(t, 5)
	last := entries[len(entries)-1]
	prefix := entries[:len(entries)-1]

	cases := []struct {
		name   string
		damage func(data []byte) []byte
	}{
		{"truncated mid-record", func(data []byte) []byte {
			return data[:len(data)-len(last.blob)/2]
		}},
		{"payload bit flip", func(data []byte) []byte {
			data[len(data)-1] ^= 0xff
			return data
		}},
		{"header bit flip", func(data []byte) []byte {
			data[len(data)-len(last.blob)-headerSize] ^= 0xff
			return data
		}},
		{"garbage appended", func(data []byte) []byte {
			return append(data, []byte("not a record")...)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d := mustOpen(t, dir, Options{})
			for _, e := range entries {
				d.PutSchedule(e.key, e.s, nil)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			corrupt(t, dir, tc.damage)

			wantRecovered := int64(len(prefix))
			if tc.name == "garbage appended" {
				wantRecovered = int64(len(entries)) // all records intact, only the tail is torn
			}
			d2 := mustOpen(t, dir, Options{})
			st := d2.Stats()
			if st.RecoveredEntries != wantRecovered {
				t.Fatalf("want %d recovered entries, got %d", wantRecovered, st.RecoveredEntries)
			}
			if st.TornRecordsDropped != 1 {
				t.Fatalf("want 1 truncation event, got %d", st.TornRecordsDropped)
			}
			for _, e := range prefix {
				wantResident(t, d2, e)
			}
			if wantRecovered == int64(len(prefix)) {
				if _, _, ok := d2.GetSchedule(last.key); ok {
					t.Fatal("damaged record still resident")
				}
			}
			// The log is append-clean again: the damaged entry can be re-put
			// and everything survives the next reopen.
			d2.PutSchedule(last.key, last.s, nil)
			wantResident(t, d2, last)
			if err := d2.Close(); err != nil {
				t.Fatal(err)
			}
			d3 := mustOpen(t, dir, Options{})
			if st := d3.Stats(); st.RecoveredEntries != int64(len(entries)) || st.TornRecordsDropped != 0 {
				t.Fatalf("post-repair reopen: recovered %d, torn %d", st.RecoveredEntries, st.TornRecordsDropped)
			}
			for _, e := range entries {
				wantResident(t, d3, e)
			}
		})
	}
}

// TestDiskSegmentRollAndMidLogTear: tiny segments force a multi-segment log;
// recovery walks all of them, and a tear in a middle segment drops every
// later segment (they postdate the torn record) while keeping the prefix.
func TestDiskSegmentRollAndMidLogTear(t *testing.T) {
	dir := t.TempDir()
	entries := solveN(t, 6)
	d := mustOpen(t, dir, Options{})
	d.segmentBytes = 1 // roll after every record
	for _, e := range entries {
		d.PutSchedule(e.key, e.s, nil)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if len(segs) < 3 {
		t.Fatalf("want >= 3 segments, got %d", len(segs))
	}
	sort.Strings(segs)

	d2 := mustOpen(t, dir, Options{})
	if st := d2.Stats(); st.RecoveredEntries != int64(len(entries)) {
		t.Fatalf("multi-segment recovery: want %d entries, got %d", len(entries), st.RecoveredEntries)
	}
	for _, e := range entries {
		wantResident(t, d2, e)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the middle segment: its own valid prefix (nothing) plus every
	// earlier segment survive; later segments are dropped.
	mid := len(segs) / 2
	if err := os.WriteFile(segs[mid], []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	d3 := mustOpen(t, dir, Options{})
	d3.segmentBytes = 1
	st := d3.Stats()
	if st.TornRecordsDropped != 1 {
		t.Fatalf("want 1 truncation event, got %d", st.TornRecordsDropped)
	}
	if st.RecoveredEntries != int64(mid) {
		t.Fatalf("want %d surviving entries before the tear, got %d", mid, st.RecoveredEntries)
	}
	for _, e := range entries[:mid] {
		wantResident(t, d3, e)
	}
	for _, seg := range segs[mid+1:] {
		if _, err := os.Stat(seg); !os.IsNotExist(err) {
			t.Fatalf("segment %s postdating the tear was not dropped", seg)
		}
	}
	// Appends continue cleanly after the tear.
	for _, e := range entries[mid:] {
		d3.PutSchedule(e.key, e.s, nil)
	}
	for _, e := range entries {
		wantResident(t, d3, e)
	}
}

// TestTieredPromotion: a disk hit repopulates the memory tier, so the second
// request for the same key is a memory hit — the on-demand warm restart.
func TestTieredPromotion(t *testing.T) {
	dir := t.TempDir()
	entries := solveN(t, 2)

	d := mustOpen(t, dir, Options{})
	cold := NewTiered(grid.NewMemStore(0), d)
	for _, e := range entries {
		cold.PutSchedule(e.key, e.s, nil)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Fresh process: empty memory tier over the recovered log.
	d2 := mustOpen(t, dir, Options{})
	warm := NewTiered(grid.NewMemStore(0), d2)
	for _, e := range entries {
		s, err, ok := warm.GetSchedule(e.key)
		if !ok || err != nil || s == nil {
			t.Fatalf("warm get missed: ok=%v err=%v", ok, err)
		}
	}
	st := warm.Stats()
	if st.MemHits != 0 || st.DiskHits != int64(len(entries)) {
		t.Fatalf("first pass: want 0 mem / %d disk hits, got %d / %d", len(entries), st.MemHits, st.DiskHits)
	}
	for _, e := range entries {
		if _, _, ok := warm.GetSchedule(e.key); !ok {
			t.Fatal("promoted entry missed")
		}
	}
	st = warm.Stats()
	if st.MemHits != int64(len(entries)) || st.DiskHits != int64(len(entries)) {
		t.Fatalf("second pass: want %d mem / %d disk hits, got %d / %d",
			len(entries), len(entries), st.MemHits, st.DiskHits)
	}
	if st.RecoveredEntries != int64(len(entries)) {
		t.Fatalf("tiered stats lost recovery counters: %+v", st)
	}
}

// TestMemoOnDiskIdentity: a Memo running directly on the disk backend returns
// schedules content-identical to a memory-backed Memo — the store swap is
// invisible to results (grid.Store contract, DESIGN.md §9).
func TestMemoOnDiskIdentity(t *testing.T) {
	entries := solveN(t, 3)
	dir := t.TempDir()
	d := mustOpen(t, dir, Options{})
	for _, e := range entries {
		d.PutSchedule(e.key, e.s, nil)
	}
	for _, e := range entries {
		s, err, ok := d.GetSchedule(e.key)
		if !ok || err != nil {
			t.Fatal("miss")
		}
		// The decoded schedule must be semantically interchangeable with the
		// original: same solved vectors, energy, structure.
		if !reflect.DeepEqual(s.End, e.s.End) || !reflect.DeepEqual(s.WCWork, e.s.WCWork) ||
			!reflect.DeepEqual(s.AvgWork, e.s.AvgWork) || s.Energy != e.s.Energy {
			t.Fatal("decoded schedule differs from original")
		}
	}
}

// TestBlobs: atomic named blobs — put, overwrite, get, list; temp files and
// invalid names rejected or skipped.
func TestBlobs(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, Options{})
	if err := d.PutBlob("session-s1", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := d.PutBlob("session-s2", []byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := d.PutBlob("session-s1", []byte("one-v2")); err != nil {
		t.Fatal(err)
	}
	if err := d.PutBlob("../escape", []byte("x")); err == nil {
		t.Fatal("path-escaping blob name accepted")
	}
	if err := d.PutBlob("", nil); err == nil {
		t.Fatal("empty blob name accepted")
	}
	got, ok, err := d.GetBlob("session-s1")
	if err != nil || !ok || string(got) != "one-v2" {
		t.Fatalf("get: %q %v %v", got, ok, err)
	}
	if _, ok, err := d.GetBlob("absent"); ok || err != nil {
		t.Fatalf("absent blob: ok=%v err=%v", ok, err)
	}
	// A temp file an older store's interrupted put left behind is invisible
	// to listings.
	if err := os.WriteFile(filepath.Join(dir, "blobs", "session-s3.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	names, err := d.ListBlobs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, []string{"session-s1", "session-s2"}) {
		t.Fatalf("list: %v", names)
	}
}
