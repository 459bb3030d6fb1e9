package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fault"
)

// wantBlob asserts d serves name as want ("" = absent).
func wantBlob(t *testing.T, d *Disk, name, want string) {
	t.Helper()
	got, ok, err := d.GetBlob(name)
	if err != nil || ok != (want != "") || string(got) != want {
		t.Fatalf("GetBlob(%s) = %q ok=%v err=%v, want %q", name, got, ok, err, want)
	}
}

// wantList asserts d lists exactly want.
func wantList(t *testing.T, d *Disk, want ...string) {
	t.Helper()
	names, err := d.ListBlobs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("ListBlobs = %v, want %v", names, want)
	}
}

// TestBlobTmpSuffixedName: a blob whose name ends in .tmp is a blob like any
// other. A put of the name without the suffix leaves it intact, both are
// listed, and both survive a reopen. (Session ids may contain '.', so the
// sessions a and a.tmp checkpoint into session-a and session-a.tmp.)
func TestBlobTmpSuffixedName(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, Options{})
	if err := d.PutBlob("session-a.tmp", []byte("tmp-named")); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"plain-1", "plain-2", "plain-3"} {
		if err := d.PutBlob("session-a", []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	for _, reopened := range []bool{false, true} {
		if reopened {
			d = reopen(t, d, dir)
		}
		wantBlob(t, d, "session-a.tmp", "tmp-named")
		wantBlob(t, d, "session-a", "plain-3")
		wantList(t, d, "session-a", "session-a.tmp")
	}
}

// reopen closes d and opens its directory again on the real filesystem.
func reopen(t *testing.T, d *Disk, dir string) *Disk {
	t.Helper()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return mustOpen(t, dir, Options{})
}

// TestBlobTornSlotWrite: a put torn mid-record fails, and the name keeps
// serving the previous bytes, in this process and after a reopen. The next
// put overwrites the torn slot.
func TestBlobTornSlotWrite(t *testing.T) {
	dir := t.TempDir()
	d, reg := faultyOpen(t, dir, 15)
	prev := strings.Repeat("previous ", 40)
	for _, v := range []string{"first", prev} {
		if err := d.PutBlob("session-s1", []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	reg.Arm("fs.write", fault.Spec{Prob: 1, Err: true, Torn: 0.6})
	if err := d.PutBlob("session-s1", []byte(strings.Repeat("torn ", 100))); err == nil {
		t.Fatal("torn put reported success")
	}
	reg.Disarm("fs.write")
	wantBlob(t, d, "session-s1", prev)
	d = reopen(t, d, dir)
	wantBlob(t, d, "session-s1", prev)
	if err := d.PutBlob("session-s1", []byte("after")); err != nil {
		t.Fatal(err)
	}
	wantBlob(t, reopen(t, d, dir), "session-s1", "after")
}

// TestBlobDamagedSlotFallsBack: whatever shape of damage the slot holding
// the newest record takes, it fails its framing and the other slot answers
// with the previous bytes; the next put overwrites the damaged slot.
func TestBlobDamagedSlotFallsBack(t *testing.T) {
	cases := []struct {
		name   string
		damage func(rec []byte) []byte
	}{
		{"payload bit flip", func(rec []byte) []byte { rec[len(rec)-1] ^= 0x01; return rec }},
		{"seq bit flip", func(rec []byte) []byte { rec[4] ^= 0x80; return rec }},
		{"length past the end", func(rec []byte) []byte { rec[13] = 0xff; return rec }},
		{"magic zeroed", func(rec []byte) []byte { copy(rec, []byte{0, 0, 0, 0}); return rec }},
		{"truncated mid-payload", func(rec []byte) []byte { return rec[:slotHeaderSize+3] }},
		{"truncated mid-header", func(rec []byte) []byte { return rec[:7] }},
		{"emptied", func(rec []byte) []byte { return nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d := mustOpen(t, dir, Options{})
			for _, v := range []string{"older", "newer-longer", "newest"} {
				if err := d.PutBlob("session-s1", []byte(v)); err != nil {
					t.Fatal(err)
				}
			}
			// Three puts: slot ~0 holds seq 3, "newest"; ~1 holds seq 2.
			path := filepath.Join(dir, "blobs", "session-s1~0")
			rec, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.damage(rec), 0o644); err != nil {
				t.Fatal(err)
			}
			wantBlob(t, d, "session-s1", "newer-longer")
			d = reopen(t, d, dir)
			wantBlob(t, d, "session-s1", "newer-longer")
			if err := d.PutBlob("session-s1", []byte("repaired")); err != nil {
				t.Fatal(err)
			}
			if seq, payload, ok := parseSlot(mustRead(t, path)); !ok || seq != 3 || string(payload) != "repaired" {
				t.Fatalf("repair put wrote slot ~0 as seq=%d %q ok=%v, want seq 3", seq, payload, ok)
			}
			wantBlob(t, reopen(t, d, dir), "session-s1", "repaired")
		})
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestBlobParentLayout: stores written before slot files hold each blob as
// one plain file, blobs/<name>, and may hold a *.tmp leftover of a put a
// crash cut short. A plain blob is read and listed until the name's first
// put, which shadows it and removes it; the leftover stays hidden.
func TestBlobParentLayout(t *testing.T) {
	dir := t.TempDir()
	blobs := filepath.Join(dir, "blobs")
	if err := os.MkdirAll(blobs, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string]string{
		"session-old": "parent-bytes", "request-ab": "request", "session-cut.tmp": "leftover",
	} {
		if err := os.WriteFile(filepath.Join(blobs, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d := mustOpen(t, dir, Options{})
	wantBlob(t, d, "session-old", "parent-bytes")
	wantBlob(t, d, "request-ab", "request")
	wantList(t, d, "request-ab", "session-old")

	if err := d.PutBlob("session-old", []byte("slot-bytes")); err != nil {
		t.Fatal(err)
	}
	wantBlob(t, d, "session-old", "slot-bytes")
	if _, err := os.Stat(filepath.Join(blobs, "session-old")); !os.IsNotExist(err) {
		t.Fatalf("the first put left the plain file: stat err = %v", err)
	}
	wantList(t, d, "request-ab", "session-old")
	d = reopen(t, d, dir)
	wantBlob(t, d, "session-old", "slot-bytes")
	wantBlob(t, d, "request-ab", "request")
}

// TestBlobConcurrentPutGet: two writers and two readers on one name. Every
// get returns one written value in full, and puts to the name serialize:
// after them the newest record's sequence number is the number of puts.
func TestBlobConcurrentPutGet(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, Options{})
	const name, writers, puts = "session-race", 2, 150
	value := func(w, i int) string { // lengths vary, so stale tails vary too
		return fmt.Sprintf("w%d-%d-%s", w, i, strings.Repeat("x", (i*97)%3000))
	}
	written := map[string]bool{"initial": true}
	for w := 0; w < writers; w++ {
		for i := 0; i < puts; i++ {
			written[value(w, i)] = true
		}
	}
	if err := d.PutBlob(name, []byte("initial")); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var done atomic.Bool
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for gets := 0; gets < 50 || !done.Load(); gets++ {
				got, ok, err := d.GetBlob(name)
				if err != nil || !ok || !written[string(got)] {
					t.Errorf("GetBlob = %.40q… ok=%v err=%v, not a written value", got, ok, err)
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				if err := d.PutBlob(name, []byte(value(w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	done.Store(true)
	readers.Wait()

	var top uint64
	for _, suffix := range slotSuffixes {
		if seq, _, ok := parseSlot(mustRead(t, filepath.Join(dir, "blobs", name+suffix))); ok && seq > top {
			top = seq
		}
	}
	if want := uint64(writers*puts + 1); top != want {
		t.Fatalf("newest sequence number %d after %d puts: puts to one name did not serialize", top, want)
	}
}

// checkSlot is the fuzz oracle's own reading of a slot file: the record's
// sequence number and payload if its magic, length and CRC-32C hold.
func checkSlot(data []byte) (seq uint64, payload []byte, ok bool) {
	if len(data) < slotHeaderSize || binary.LittleEndian.Uint32(data) != slotMagic {
		return 0, nil, false
	}
	n := uint64(binary.LittleEndian.Uint32(data[12:]))
	if n > uint64(len(data)-slotHeaderSize) {
		return 0, nil, false
	}
	payload = data[slotHeaderSize : slotHeaderSize+n]
	body := append(append([]byte{}, data[4:16]...), payload...)
	if crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)) != binary.LittleEndian.Uint32(data[16:]) {
		return 0, nil, false
	}
	return binary.LittleEndian.Uint64(data[4:]), payload, true
}

// FuzzBlobSlots writes fuzzer-chosen bytes into a name's two slot files and
// its plain file (present's low three bits say which exist). GetBlob must
// not panic and must answer the newest CRC-valid record's payload, else the
// plain bytes, else absent. Two puts after it must each round-trip, and the
// name must be listed once.
func FuzzBlobSlots(f *testing.F) {
	rec := slotRecord
	torn := rec(3, []byte("torn-record"))
	f.Add(rec(1, []byte("one")), rec(2, []byte("two")), []byte("plain"), uint8(7))
	f.Add(rec(4, []byte("newer")), rec(3, []byte("older-and-longer")), []byte{}, uint8(3))
	f.Add(torn[:len(torn)-4], rec(2, []byte("two")), []byte("plain"), uint8(7))
	f.Add(rec(5, []byte("same-seq-0")), rec(5, []byte("same-seq-1")), []byte(nil), uint8(3))
	f.Add(append(rec(1, []byte("stale-tail")), "garbage past the record"...), []byte{}, []byte("plain"), uint8(5))
	huge := rec(1, nil) // a length no file holds
	binary.LittleEndian.PutUint32(huge[12:], 0xffffffff)
	f.Add(huge, []byte(nil), []byte("plain"), uint8(5))
	f.Add([]byte(nil), []byte(nil), []byte("only-plain"), uint8(4))
	f.Add([]byte(nil), []byte(nil), []byte(nil), uint8(0))
	// One store serves every input: each starts by removing the name's
	// files, which keeps an execution to a few file operations.
	const name = "session-f"
	dir := f.TempDir()
	d, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { d.Close() })
	f.Fuzz(func(t *testing.T, s0, s1, plain []byte, present uint8) {
		files := [3]struct {
			suffix string
			data   []byte
		}{{"~0", s0}, {"~1", s1}, {"", plain}}
		for i, file := range files {
			path := filepath.Join(dir, "blobs", name+file.suffix)
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			if present&(1<<i) != 0 {
				if err := os.WriteFile(path, file.data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}

		var want []byte
		wantOK, bestSeq := false, uint64(0)
		for i := 0; i < 2; i++ {
			if present&(1<<i) == 0 {
				continue
			}
			if seq, payload, ok := checkSlot(files[i].data); ok && (!wantOK || seq > bestSeq) {
				want, wantOK, bestSeq = payload, true, seq
			}
		}
		if !wantOK && present&4 != 0 {
			want, wantOK = plain, true
		}
		got, ok, err := d.GetBlob(name)
		if err != nil || ok != wantOK || !bytes.Equal(got, want) {
			t.Fatalf("GetBlob = %q ok=%v err=%v, want %q ok=%v", got, ok, err, want, wantOK)
		}

		for _, v := range []string{"put-one", "put-two-longer"} {
			if err := d.PutBlob(name, []byte(v)); err != nil {
				t.Fatal(err)
			}
			wantBlob(t, d, name, v)
		}
		wantList(t, d, name)
	})
}

// BenchmarkPutBlob prices one session checkpoint write: a 2.9 KB blob put
// over and over under one name, with Options.Sync off and on.
func BenchmarkPutBlob(b *testing.B) {
	data := bytes.Repeat([]byte("checkpoint "), 2900/11)
	for _, sync := range []bool{false, true} {
		b.Run(fmt.Sprintf("sync=%v", sync), func(b *testing.B) {
			d, err := Open(b.TempDir(), Options{Sync: sync})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			b.SetBytes(int64(len(data)))
			for b.Loop() {
				if err := d.PutBlob("session-s1", data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
