// Package store is the crash-safe persistent tier of the content-addressed
// schedule cache (DESIGN.md §9): solved schedules keyed by their grid.Key,
// plus the blobs that hold session checkpoints and request bodies. It
// implements grid.Store, so a Memo can run directly on disk, and composes
// with the in-memory tier through Tiered.
//
// Durability model: schedules are the expensive artefact (a solve), so only
// they are persisted; simulated comparisons are pure functions of schedules
// and are rebuilt on demand. Schedules and blobs share one record format:
// each name has two slot files, each holding one CRC-framed record with a
// sequence number, and a put overwrites the older slot in place, so a
// reader sees either the old bytes or the new bytes, never a mix. A
// schedule record lives under schedules/, named by its key; a blob lives
// under blobs/, which no schedule name can reach. The store keeps no
// per-name state in memory and reads nothing at Open.
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/maphash"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/grid"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// The directories under the store root that hold slot files.
const (
	blobsDir     = "blobs"
	schedulesDir = "schedules"
)

// Options configures a Disk store.
type Options struct {
	// Sync makes every put durable before it returns: one fsync of the slot
	// file it wrote, plus one of its directory when the put created that
	// file (a blob's first two puts, a schedule's only put). Off by
	// default: schedules are a cache, so losing the OS write-back window
	// costs re-solves, not correctness — a record that did not reach the
	// platter fails its CRC and misses. Blobs (request bodies, session
	// checkpoints) cannot be rebuilt, so a deployment that must survive a
	// power loss turns it on.
	Sync bool
	// FS supplies the filesystem (nil = the real OS). Tests and the chaos
	// harness pass fault.Inject(fault.OS(), registry) to subject every
	// store operation to a seeded fault schedule.
	FS fault.FS
}

// Disk is the persistent grid.Store: schedule records in slot files,
// comparisons never resident (rebuilt on demand). All methods are safe for
// concurrent use. Losing any record — a crash, a torn write, a deleted file
// — changes hit rates, never results: keys are content addresses and the
// decode path re-verifies structure end to end.
type Disk struct {
	dir    string
	opts   Options
	fs     fault.FS
	closed atomic.Bool
	hits   atomic.Int64

	readErrs  atomic.Int64 // failed read ops (health evidence for a breaker)
	writeErrs atomic.Int64 // failed write/sync ops

	seed  maphash.Seed
	locks [64]sync.Mutex // see lock
}

// Open opens (or creates) the store rooted at dir. It reads nothing: each
// record is found by its name when asked for. The seg-*.log files of stores
// written before schedules were slot records are left as they are.
func Open(dir string, opts Options) (*Disk, error) {
	if opts.FS == nil {
		opts.FS = fault.OS()
	}
	for _, sub := range []string{blobsDir, schedulesDir} {
		if err := opts.FS.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return &Disk{dir: dir, opts: opts, fs: opts.FS, seed: maphash.MakeSeed()}, nil
}

// GetSchedule implements grid.Store: a read of the key's record plus a full
// decode, so a record that rots on disk degrades to a miss rather than a
// bad artefact.
func (d *Disk) GetSchedule(key grid.Key) (*core.Schedule, error, bool) {
	s, cached, ok, _ := d.TryGetSchedule(key)
	return s, cached, ok
}

// TryGetSchedule is GetSchedule with the device outcome exposed: ioErr is
// non-nil when the key's slot files could not be read — health evidence a
// tiered caller feeds its circuit breaker. A key with no record, or with
// torn or undecodable ones, is a plain miss with nil ioErr: it is a data
// problem, not evidence the device is gone.
func (d *Disk) TryGetSchedule(key grid.Key) (s *core.Schedule, cached error, ok bool, ioErr error) {
	payload, found, err := d.getSlot(schedulesDir, key.String())
	if err != nil || !found {
		return nil, nil, false, err
	}
	// The payload leads with the key it was put under, so a record read
	// under any other name is a miss, never another set's schedule.
	body, keyed := bytes.CutPrefix(payload, key[:])
	if !keyed {
		return nil, nil, false, nil
	}
	sched, err := core.DecodeSchedule(body)
	if err != nil {
		return nil, nil, false, nil
	}
	d.hits.Add(1)
	return sched, nil, true, nil
}

// PutSchedule implements grid.Store. Only successful solves are persisted:
// cached failures stay an in-memory optimization, and schedules the codec
// cannot represent (unknown model implementations) are silently skipped —
// the store is a cache, so "not persistable" just means "miss next restart".
func (d *Disk) PutSchedule(key grid.Key, s *core.Schedule, err error) {
	d.TryPutSchedule(key, s, err)
}

// TryPutSchedule is PutSchedule with the device outcome exposed: a non-nil
// return means the record did not land on disk (the entry will miss after
// the next restart). Skipped puts — cached failures, unencodable schedules,
// puts after Close, keys that already hold this record — return nil and
// write nothing.
func (d *Disk) TryPutSchedule(key grid.Key, s *core.Schedule, err error) error {
	if err != nil || s == nil || d.closed.Load() {
		return nil
	}
	payload, encErr := core.EncodeSchedule(s)
	if encErr != nil {
		return nil
	}
	_, err = d.putSlot(schedulesDir, key.String(), append(key[:], payload...))
	return err
}

// GetComparison implements grid.Store: comparisons are never persisted
// (they are rebuilt from the persisted schedules on demand), so every lookup
// misses.
func (d *Disk) GetComparison(grid.Key) (*grid.Comparison, error, bool) { return nil, nil, false }

// PutComparison implements grid.Store as a no-op; see GetComparison.
func (d *Disk) PutComparison(grid.Key, *grid.Comparison, error) {}

// Stats implements grid.Store: the disk tier owns its hit and health
// counters.
func (d *Disk) Stats() grid.Stats {
	return grid.Stats{
		DiskHits:      d.hits.Load(),
		DiskReadErrs:  d.readErrs.Load(),
		DiskWriteErrs: d.writeErrs.Load(),
	}
}

// Close makes later schedule puts no-ops. Every record already written is
// durable per the Options.Sync policy, and no file stays open between
// operations, so there is nothing to flush.
func (d *Disk) Close() error {
	d.closed.Store(true)
	return nil
}

var blobNameRe = regexp.MustCompile(`^[a-zA-Z0-9._-]+$`)

// ErrBadBlobName reports a blob name outside [a-zA-Z0-9._-]+. The name is the
// caller's input, so the error says nothing about the device: Tiered does
// not score it on the breaker.
var ErrBadBlobName = errors.New("store: invalid blob name")

// Slot record layout, little-endian, at offset 0 of a slot file:
//
//	magic  u32   slotMagic
//	seq    u64   the name's put sequence number
//	plen   u32   payload length
//	crc    u32   CRC-32C (Castagnoli) over seq ‖ plen ‖ payload
//	payload      the blob, or the key ‖ core.EncodeSchedule bytes
//
// Every name has two slot files, <dir>/<name>~0 and <dir>/<name>~1; '~' is
// outside blobNameRe's alphabet and a key's hex, so no name is ever a slot
// file's. A put overwrites the slot that does not hold the newest valid
// record, so the other one keeps the previous bytes. Bytes past a record
// are what a longer earlier record left behind: they are ignored, and no
// slot file is ever truncated.
const (
	slotMagic      = 0x53424C42 // "SBLB"
	slotHeaderSize = 4 + 8 + 4 + 4
)

// slotSuffixes name a name's two slot files.
var slotSuffixes = [2]string{"~0", "~1"}

// slot is one slot file as a read found it.
type slot struct {
	exists  bool   // the file is there
	valid   bool   // it holds a record that passed its CRC
	seq     uint64 // the record's sequence number, if valid
	payload []byte
}

// newest returns the index of the slot holding the newest valid record, or
// -1 when neither does. Equal sequence numbers, which no put writes, go to
// slot 0.
func newest(s *[2]slot) int {
	switch {
	case s[1].valid && (!s[0].valid || s[1].seq > s[0].seq):
		return 1
	case s[0].valid:
		return 0
	}
	return -1
}

// slotRecord frames data as the slot record with sequence number seq.
func slotRecord(seq uint64, data []byte) []byte {
	rec := make([]byte, slotHeaderSize+len(data))
	binary.LittleEndian.PutUint32(rec[0:], slotMagic)
	binary.LittleEndian.PutUint64(rec[4:], seq)
	binary.LittleEndian.PutUint32(rec[12:], uint32(len(data)))
	copy(rec[slotHeaderSize:], data)
	crc := crc32.Update(0, crcTable, rec[4:16])
	binary.LittleEndian.PutUint32(rec[16:], crc32.Update(crc, crcTable, data))
	return rec
}

// parseSlot verifies the record at the start of data.
func parseSlot(data []byte) (seq uint64, payload []byte, ok bool) {
	if len(data) < slotHeaderSize || binary.LittleEndian.Uint32(data) != slotMagic {
		return 0, nil, false
	}
	n := binary.LittleEndian.Uint32(data[12:])
	if uint64(n) > uint64(len(data)-slotHeaderSize) {
		return 0, nil, false
	}
	end := slotHeaderSize + int(n)
	crc := crc32.Update(0, crcTable, data[4:16])
	if crc32.Update(crc, crcTable, data[slotHeaderSize:end]) != binary.LittleEndian.Uint32(data[16:]) {
		return 0, nil, false
	}
	return binary.LittleEndian.Uint64(data[4:]), data[slotHeaderSize:end:end], true
}

// path returns the path of one of name's slot files in dir or, with suffix
// "", of its plain file (the layout blobs had before slot files).
func (d *Disk) path(dir, name, suffix string) string {
	return filepath.Join(d.dir, dir, name+suffix)
}

// readSlots reads both of name's slot files in dir. A missing file is an
// empty slot and a record that fails its framing an invalid one; only an
// I/O error is an error.
func (d *Disk) readSlots(dir, name string) (s [2]slot, err error) {
	for i, suffix := range slotSuffixes {
		data, err := d.fs.ReadFile(d.path(dir, name, suffix))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return s, err
		}
		s[i].exists = true
		s[i].seq, s[i].payload, s[i].valid = parseSlot(data)
	}
	return s, nil
}

// lock serializes the puts and gets of one name; names share one of
// len(d.locks) locks by hash, so the store keeps no per-name state.
func (d *Disk) lock(name string) *sync.Mutex {
	return &d.locks[maphash.String(d.seed, name)%uint64(len(d.locks))]
}

// getSlot returns the payload of the newest valid record of name in dir and
// whether there is one.
func (d *Disk) getSlot(dir, name string) ([]byte, bool, error) {
	mu := d.lock(name)
	mu.Lock()
	slots, err := d.readSlots(dir, name)
	mu.Unlock()
	if err != nil {
		d.readErrs.Add(1)
		return nil, false, fmt.Errorf("store: %w", err)
	}
	if n := newest(&slots); n >= 0 {
		return slots[n].payload, true, nil
	}
	return nil, false, nil
}

// putSlot writes data as name's next record in dir. It overwrites, in place
// and with one WriteAt at offset 0, the slot file that does not hold the
// newest valid record, writing a record one sequence number above it; the
// other slot keeps the previous bytes. A crash mid-write, or a concurrent
// reader in another process, finds the torn record failing its CRC and the
// other slot answering, so a reader sees the old content or the new, never
// a mix. A put of the bytes the newest valid record already holds writes
// nothing: for a schedule, whose name is its content's address, that is
// every put after the first. created reports that the put wrote a slot file
// that was not there.
func (d *Disk) putSlot(dir, name string, data []byte) (created bool, err error) {
	mu := d.lock(name)
	mu.Lock()
	defer mu.Unlock()
	slots, err := d.readSlots(dir, name)
	if err != nil {
		d.readErrs.Add(1)
		return false, fmt.Errorf("store: %w", err)
	}
	n := newest(&slots)
	if n >= 0 && bytes.Equal(slots[n].payload, data) {
		return false, nil
	}
	target, seq := 0, uint64(1)
	if n >= 0 {
		target, seq = 1-n, slots[n].seq+1
	}
	created = !slots[target].exists
	if err := d.writeSlot(d.path(dir, name, slotSuffixes[target]), slotRecord(seq, data), created); err != nil {
		d.writeErrs.Add(1)
		return false, fmt.Errorf("store: %w", err)
	}
	return created, nil
}

// writeSlot writes rec over the start of the slot file at path, fsyncing it
// (and its directory, when created says the file is new) under
// Options.Sync. On failure the record is made unreadable: a new file is
// removed, an old one gets its magic zeroed.
func (d *Disk) writeSlot(path string, rec []byte, created bool) error {
	f, err := d.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	_, err = f.WriteAt(rec, 0)
	if err == nil && d.opts.Sync {
		err = f.Sync()
	}
	if err == nil && d.opts.Sync && created {
		err = d.syncDir(filepath.Dir(path))
	}
	if err != nil && !created {
		f.WriteAt(make([]byte, 4), 0) // best effort: if this fails too, a torn record still fails its CRC
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil && created {
		d.fs.Remove(path)
	}
	return err
}

// syncDir fsyncs a directory, making the files created in it durable.
func (d *Disk) syncDir(dir string) error {
	f, err := d.fs.OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// PutBlob atomically replaces the named blob with one slot record
// (putSlot); a put of the bytes the blob already holds writes nothing.
//
// Without Options.Sync the record has reached the kernel when PutBlob
// returns, so a process crash cannot lose it, though the OS may still lose
// its write-back window. With it the slot file is fsynced, and blobs/ too
// when this put created the file, so an acknowledged blob survives a power
// loss as well. A failed write or sync zeroes the record's magic, or
// removes the slot file if this put created it, and fails the put; the
// other slot still holds the previous bytes. A put that creates a slot file
// removes the name's plain file, which only older stores hold.
func (d *Disk) PutBlob(name string, data []byte) error {
	if !blobNameRe.MatchString(name) {
		return fmt.Errorf("%w %q", ErrBadBlobName, name)
	}
	created, err := d.putSlot(blobsDir, name, data)
	if created {
		// The new slot shadows the plain file; ENOENT is the usual answer.
		d.fs.Remove(d.path(blobsDir, name, ""))
	}
	return err
}

// GetBlob returns the named blob's content and whether it exists: the valid
// slot record with the higher sequence number or, when neither slot holds
// one, the name's plain file, which only older stores hold.
func (d *Disk) GetBlob(name string) ([]byte, bool, error) {
	if !blobNameRe.MatchString(name) {
		return nil, false, fmt.Errorf("%w %q", ErrBadBlobName, name)
	}
	data, ok, err := d.getSlot(blobsDir, name)
	if ok || err != nil {
		return data, ok, err
	}
	data, err = d.fs.ReadFile(d.path(blobsDir, name, ""))
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		d.readErrs.Add(1)
		return nil, false, fmt.Errorf("store: %w", err)
	}
	return data, true, nil
}

// ListBlobs returns the names behind the slot files and the plain files in
// sorted order, each once. It skips plain *.tmp files: older stores wrote
// blobs to a temp file and renamed it, so those are a crash's leftovers.
func (d *Disk) ListBlobs() ([]string, error) {
	entries, err := d.fs.ReadDir(filepath.Join(d.dir, blobsDir))
	if err != nil {
		d.readErrs.Add(1)
		return nil, fmt.Errorf("store: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if base, ok := strings.CutSuffix(name, slotSuffixes[0]); ok {
			name = base
		} else if base, ok := strings.CutSuffix(name, slotSuffixes[1]); ok {
			name = base
		} else if filepath.Ext(name) == ".tmp" {
			continue
		}
		names = append(names, name)
	}
	slices.Sort(names)
	return slices.Compact(names), nil
}
