package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sync"
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

// TestDiskPutGetAcrossReopen: entries survive a clean close/reopen, each as
// one slot file named by its key, and a put after Close writes nothing.
func TestDiskPutGetAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	entries := solveN(t, 5)

	d := mustOpen(t, dir, Options{})
	for _, e := range entries[:4] {
		d.PutSchedule(e.key, e.s, nil)
	}
	for _, e := range entries[:4] {
		wantResident(t, d, e)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.TryPutSchedule(entries[4].key, entries[4].s, nil); err != nil {
		t.Fatalf("put after Close: %v", err)
	}
	files, err := os.ReadDir(filepath.Join(dir, schedulesDir))
	if err != nil || len(files) != 4 {
		t.Fatalf("want 4 slot files, one per put before Close; got %v (err %v)", files, err)
	}

	d2 := mustOpen(t, dir, Options{})
	for _, e := range entries[:4] {
		wantResident(t, d2, e)
	}
	if _, _, ok := d2.GetSchedule(entries[4].key); ok {
		t.Fatal("the put after Close landed")
	}
	if got := d2.Stats(); got.DiskHits != 4 {
		t.Fatalf("want 4 disk hits, got %d", got.DiskHits)
	}
}

// TestDiskCrashRecovery is the torn-record contract: whatever shape of
// damage one schedule's record takes — a crash mid-write, a bit flip, a
// framed record that does not decode, another key's record under its name
// — a reopened store still serves every other record, the damaged one
// reads as a miss, never as a wrong schedule, and a put of it again writes
// a record that survives the next clean reopen. Bytes past a record are
// what a longer earlier record left behind, so garbage appended to one
// leaves it resident.
func TestDiskCrashRecovery(t *testing.T) {
	entries := solveN(t, 5)
	last, other := entries[len(entries)-1], entries[0]
	cases := []struct {
		name     string
		damage   func(rec []byte) []byte
		resident bool
	}{
		{"truncated mid-record", func(rec []byte) []byte { return rec[:len(rec)-len(last.blob)/2] }, false},
		{"payload bit flip", func(rec []byte) []byte { rec[len(rec)-1] ^= 0xff; return rec }, false},
		{"header bit flip", func(rec []byte) []byte { rec[5] ^= 0xff; return rec }, false},
		{"garbage appended", func(rec []byte) []byte { return append(rec, "not a record"...) }, true},
		{"undecodable payload", func([]byte) []byte { return slotRecord(1, append(last.key[:], "not a schedule"...)) }, false},
		{"no key prefix", func([]byte) []byte { return slotRecord(1, last.blob) }, false},
		{"another key's record", func([]byte) []byte { return slotRecord(1, append(other.key[:], other.blob...)) }, false},
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
			path := filepath.Join(dir, schedulesDir, last.key.String()+"~0")
			if err := os.WriteFile(path, tc.damage(mustRead(t, path)), 0o644); err != nil {
				t.Fatal(err)
			}
			d = mustOpen(t, dir, Options{})
			for _, e := range entries[:len(entries)-1] {
				wantResident(t, d, e)
			}
			if s, _, ok, ioErr := d.TryGetSchedule(last.key); ok != tc.resident || ioErr != nil {
				t.Fatalf("damaged record: ok=%v ioErr=%v, want ok=%v and no device error", ok, ioErr, tc.resident)
			} else if ok {
				wantResident(t, d, last)
			} else if s != nil {
				t.Fatal("a miss returned a schedule")
			}
			d.PutSchedule(last.key, last.s, nil)
			wantResident(t, d, last)
			if st := d.Stats(); st.DiskReadErrs != 0 || st.DiskWriteErrs != 0 {
				t.Fatalf("damage counted as device errors: %+v", st)
			}
			d = reopen(t, d, dir)
			for _, e := range entries {
				wantResident(t, d, e)
			}
		})
	}
}

// TestScheduleConcurrentPutGet: writers and readers race on one key. Every
// get misses or answers the schedule in full, and the key ends with exactly
// one record: the first put wrote it and every other put found it there.
func TestScheduleConcurrentPutGet(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, Options{})
	e := solveN(t, 1)[0]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if g%2 == 0 {
					if err := d.TryPutSchedule(e.key, e.s, nil); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				s, _, ok, ioErr := d.TryGetSchedule(e.key)
				if ioErr != nil {
					t.Error(ioErr)
					return
				}
				if !ok {
					continue
				}
				if got, err := core.EncodeSchedule(s); err != nil || !bytes.Equal(got, e.blob) {
					t.Error("a concurrent get answered a different schedule")
					return
				}
			}
		}()
	}
	wg.Wait()
	wantResident(t, d, e)
	seq, _, ok := parseSlot(mustRead(t, filepath.Join(dir, schedulesDir, e.key.String()+"~0")))
	if !ok || seq != 1 {
		t.Fatalf("slot ~0 holds seq %d (valid %v), want the one record of seq 1", seq, ok)
	}
	if _, err := os.Stat(filepath.Join(dir, schedulesDir, e.key.String()+"~1")); !os.IsNotExist(err) {
		t.Fatalf("a second put wrote slot ~1: stat err = %v", err)
	}
}

// TestSegmentLogDirectory: a directory an older binary wrote holds its
// schedules in seg-*.log files. Open reads and removes none of them, every
// key misses once and is put again as a slot record, the log stays byte for
// byte as it was, and the older binary's blobs read as before.
func TestSegmentLogDirectory(t *testing.T) {
	dir := t.TempDir()
	entries := solveN(t, 2)
	// One record in the older log's framing: magic, kind, key, length,
	// CRC-32C over kind ‖ key ‖ length ‖ payload, payload.
	e := entries[0]
	rec := binary.LittleEndian.AppendUint32(nil, 0x53435244)
	rec = append(append(rec, 1), e.key[:]...)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(e.blob)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(append(rec[4:41:41], e.blob...), crcTable))
	rec = append(rec, e.blob...)
	seg := filepath.Join(dir, "seg-000000.log")
	if err := os.WriteFile(seg, rec, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, blobsDir), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, blobsDir, "session-s1~0"), slotRecord(1, []byte("checkpoint")), 0o644); err != nil {
		t.Fatal(err)
	}

	d := mustOpen(t, dir, Options{})
	for _, e := range entries {
		if _, _, ok := d.GetSchedule(e.key); ok {
			t.Fatal("a key hit before any put: the log was read")
		}
		d.PutSchedule(e.key, e.s, nil)
	}
	wantBlob(t, d, "session-s1", "checkpoint")
	wantList(t, d, "session-s1")
	d = reopen(t, d, dir)
	for _, e := range entries {
		wantResident(t, d, e)
	}
	if got := mustRead(t, seg); !bytes.Equal(got, rec) {
		t.Fatal("the older log changed")
	}
}

// TestSchedulesAreNotBlobs: a schedule record is not a blob under any name.
// Listings show only blobs, and a blob named as a schedule's key neither
// reads that record nor changes what the key answers.
func TestSchedulesAreNotBlobs(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, Options{})
	entries := solveN(t, 2)
	for _, e := range entries {
		d.PutSchedule(e.key, e.s, nil)
	}
	if err := d.PutBlob("session-s1", []byte("checkpoint")); err != nil {
		t.Fatal(err)
	}
	wantList(t, d, "session-s1")
	planted := append(entries[1].key[:], entries[1].blob...)
	for _, name := range []string{entries[0].key.String(), "schedule-" + entries[0].key.String()} {
		wantBlob(t, d, name, "")
		if err := d.PutBlob(name, planted); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"../" + schedulesDir + "/" + entries[0].key.String(), entries[0].key.String() + "~0"} {
		if err := d.PutBlob(name, planted); !errors.Is(err, ErrBadBlobName) {
			t.Fatalf("PutBlob(%q) = %v, want ErrBadBlobName", name, err)
		}
	}
	wantResident(t, reopen(t, d, dir), entries[0])
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

// BenchmarkScheduleRecord prices the disk tier's schedule operations with
// Options.Sync off, on a 4-task schedule, encoding and decoding included:
// a put of a new key, a miss, a hit, and an Open of a directory that holds
// 1,000 records.
func BenchmarkScheduleRecord(b *testing.B) {
	set, err := task.NewSet([]task.Task{
		{Name: "a", Period: 10, WCEC: 3, ACEC: 2, BCEC: 1, Ceff: 1},
		{Name: "b", Period: 20, WCEC: 5, ACEC: 3, BCEC: 2, Ceff: 1},
		{Name: "c", Period: 40, WCEC: 6, ACEC: 4, BCEC: 2, Ceff: 1},
		{Name: "d", Period: 40, WCEC: 4, ACEC: 2, BCEC: 1, Ceff: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{Objective: core.AverageCase}
	s, err := core.Build(set, cfg)
	if err != nil {
		b.Fatal(err)
	}
	base, _ := grid.ScheduleKey(set, cfg)
	key := func(i int) grid.Key {
		k := base
		binary.LittleEndian.PutUint64(k[:], uint64(i))
		return k
	}
	open := func(b *testing.B, dir string) *Disk {
		d, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	b.Run("put", func(b *testing.B) {
		d := open(b, b.TempDir())
		for i := 0; b.Loop(); i++ {
			if err := d.TryPutSchedule(key(i), s, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		d := open(b, b.TempDir())
		for b.Loop() {
			if _, _, ok, _ := d.TryGetSchedule(base); ok {
				b.Fatal("hit")
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		d := open(b, b.TempDir())
		d.PutSchedule(base, s, nil)
		for b.Loop() {
			if _, _, ok, _ := d.TryGetSchedule(base); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("open-1000", func(b *testing.B) {
		dir := b.TempDir()
		d := open(b, dir)
		for i := 0; i < 1000; i++ {
			d.PutSchedule(key(i), s, nil)
		}
		d.Close()
		for b.Loop() {
			open(b, dir).Close()
		}
	})
}
