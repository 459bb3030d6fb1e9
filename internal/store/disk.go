// Package store is the crash-safe persistent tier of the content-addressed
// schedule cache (DESIGN.md §9): an append-only log of encoded schedules
// keyed by their grid.Key, plus a small atomic blob area for session
// checkpoints and request bodies. It implements grid.Store, so a Memo can
// run directly on disk, and composes with the in-memory tier through Tiered.
//
// Durability model: schedules are the expensive artefact (a solve), so only
// they are persisted; simulated comparisons are pure functions of schedules
// and are rebuilt on demand. Every record carries its own length and
// CRC-32C, so a crash mid-append costs at most the record being written:
// the recovery scan on Open truncates the log at the first torn record and
// everything before it survives. Each blob has two slot files, each holding
// one CRC-framed record with a sequence number; a put overwrites the older
// slot in place, so a reader sees either the old bytes or the new bytes,
// never a mix.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/maphash"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/grid"
)

// Log record layout, little-endian:
//
//	magic  u32   recordMagic
//	kind   u8    kindSchedule
//	key    [32]  grid.Key (content address)
//	plen   u32   payload length
//	crc    u32   CRC-32C (Castagnoli) over kind ‖ key ‖ payload
//	payload      core.EncodeSchedule bytes
//
// A record is valid iff the magic matches, the payload fits the remaining
// file, and the CRC verifies. Anything else is a torn tail: the scan
// truncates there and the file is again append-clean.
const (
	recordMagic  = 0x53435244 // "SCRD"
	kindSchedule = 1
	headerSize   = 4 + 1 + 32 + 4 + 4
	// maxPayload rejects absurd lengths before any allocation; real encoded
	// schedules are a few KiB.
	maxPayload = 1 << 30
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxSegmentBytes rolls the active segment once it reaches this size
// (Disk.segmentBytes). Only the active segment is ever appended to;
// completed segments are immutable.
const maxSegmentBytes = 64 << 20

// Options configures a Disk store.
type Options struct {
	// Sync fsyncs after every append, and makes every PutBlob durable
	// before it returns: one fsync of the slot file it wrote, plus one of
	// blobs/ when the put created that file (a name's first two puts). Off
	// by default: the log is a cache, so losing the OS write-back window
	// costs re-solves, not correctness — the recovery scan drops whatever
	// tail didn't make it to the platter. Blobs (request bodies, session
	// checkpoints) cannot be rebuilt, so a deployment that must survive a
	// power loss turns it on.
	Sync bool
	// FS supplies the filesystem (nil = the real OS). Tests and the chaos
	// harness pass fault.Inject(fault.OS(), registry) to subject every
	// store operation to a seeded fault schedule.
	FS fault.FS
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = fault.OS()
	}
	return o
}

// entryLoc addresses one valid record's payload inside a segment.
type entryLoc struct {
	seg int
	off int64 // payload offset within the segment file
	n   int   // payload length
}

// Disk is the persistent grid.Store: schedules in an append-only segmented
// log, comparisons never resident (rebuilt on demand). All methods are safe
// for concurrent use. Losing any suffix of the log — a crash, a torn record,
// a deleted segment — changes hit rates, never results: keys are content
// addresses and the decode path re-verifies structure end to end.
type Disk struct {
	dir  string
	opts Options
	fs   fault.FS
	// segmentBytes is maxSegmentBytes, lowered by tests.
	segmentBytes int64

	mu      sync.Mutex
	index   map[grid.Key]entryLoc
	files   map[int]fault.File // open segment files by number
	active  int                // active (append) segment number
	size    int64              // size of the active segment
	bytes   int64              // total valid log bytes across segments
	closed  bool
	hits    atomic.Int64
	entries atomic.Int64

	readErrs  atomic.Int64 // failed read ops (health evidence for a breaker)
	writeErrs atomic.Int64 // failed append/sync/blob-write ops

	recovered int64 // records indexed by the recovery scan at Open
	torn      int64 // truncation events the scan performed

	blobSeed maphash.Seed
	blobMu   [64]sync.Mutex // see blobLock
}

var segmentRe = regexp.MustCompile(`^seg-(\d{6})\.log$`)

// Open opens (or creates) the store rooted at dir, running the recovery
// scan: every segment is walked record by record, valid records are indexed
// (last write wins, though duplicates are content-equal anyway), and the
// first torn record truncates its segment and drops all later segments —
// they were appended after the torn point, so the log stays a prefix of the
// write history.
func Open(dir string, opts Options) (*Disk, error) {
	opts = opts.withDefaults()
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := opts.FS.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	d := &Disk{
		dir:          dir,
		opts:         opts,
		fs:           opts.FS,
		segmentBytes: maxSegmentBytes,
		index:        make(map[grid.Key]entryLoc),
		files:        make(map[int]fault.File),
		blobSeed:     maphash.MakeSeed(),
	}
	names, err := opts.FS.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var segs []int
	for _, e := range names {
		if m := segmentRe.FindStringSubmatch(e.Name()); m != nil {
			var n int
			fmt.Sscanf(m[1], "%d", &n)
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	truncated := false
	for _, seg := range segs {
		if truncated {
			// Everything after a torn segment postdates the torn record;
			// dropping it keeps the log a prefix of the write history.
			d.fs.Remove(d.segPath(seg))
			continue
		}
		// scanSegment leaves d.active/d.size on the last scanned segment, so
		// appends resume exactly where the valid prefix ends.
		ok, err := d.scanSegment(seg)
		if err != nil {
			d.Close()
			return nil, err
		}
		if !ok {
			truncated = true
			d.torn++
		}
	}
	if len(segs) == 0 {
		d.active = 0
		if err := d.openSegment(0, true); err != nil {
			d.Close()
			return nil, err
		}
	}
	d.recovered = int64(len(d.index))
	d.entries.Store(d.recovered)
	return d, nil
}

func (d *Disk) segPath(n int) string {
	return filepath.Join(d.dir, fmt.Sprintf("seg-%06d.log", n))
}

// openSegment opens segment n for appending (creating it if asked) and makes
// it the active segment. Called with d.mu held or during Open.
func (d *Disk) openSegment(n int, create bool) error {
	flags := os.O_RDWR
	if create {
		flags |= os.O_CREATE
	}
	f, err := d.fs.OpenFile(d.segPath(n), flags, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	d.files[n] = f
	d.active = n
	d.size = st.Size()
	return nil
}

// scanSegment walks one segment, indexing valid records. It returns ok=false
// when it hit a torn record and truncated the file there; the caller then
// drops every later segment.
func (d *Disk) scanSegment(seg int) (ok bool, err error) {
	f, err := d.fs.OpenFile(d.segPath(seg), os.O_RDWR, 0o644)
	if err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return false, fmt.Errorf("store: %w", err)
	}
	d.files[seg] = f
	d.active = seg
	size := st.Size()
	var off int64
	hdr := make([]byte, headerSize)
	for off < size {
		if _, err := f.ReadAt(hdr, off); err != nil {
			break // short header: torn
		}
		magic := binary.LittleEndian.Uint32(hdr[0:])
		kind := hdr[4]
		var key grid.Key
		copy(key[:], hdr[5:37])
		plen := binary.LittleEndian.Uint32(hdr[37:])
		want := binary.LittleEndian.Uint32(hdr[41:])
		if magic != recordMagic || kind != kindSchedule || plen > maxPayload ||
			off+headerSize+int64(plen) > size {
			break
		}
		payload := make([]byte, plen)
		if _, err := f.ReadAt(payload, off+headerSize); err != nil {
			break
		}
		crc := crc32.Update(0, crcTable, hdr[4:41])
		crc = crc32.Update(crc, crcTable, payload)
		if crc != want {
			break
		}
		d.index[key] = entryLoc{seg: seg, off: off + headerSize, n: int(plen)}
		off += headerSize + int64(plen)
	}
	d.size = off
	d.bytes += off
	if off == size {
		return true, nil
	}
	if err := f.Truncate(off); err != nil {
		return false, fmt.Errorf("store: truncating torn segment: %w", err)
	}
	return false, nil
}

// GetSchedule implements grid.Store: a ReadAt plus a full decode, so a
// record that rots after the recovery scan still degrades to a miss rather
// than a bad artefact.
func (d *Disk) GetSchedule(key grid.Key) (*core.Schedule, error, bool) {
	s, cached, ok, _ := d.TryGetSchedule(key)
	return s, cached, ok
}

// TryGetSchedule is GetSchedule with the device outcome exposed: ioErr is
// non-nil when an indexed record could not be read back — health evidence a
// tiered caller feeds its circuit breaker. A decode failure (CRC-passing
// bytes that no longer parse) is a plain miss with nil ioErr: it is a data
// problem, not evidence the device is gone. A miss that never touches the
// device returns all-zero.
func (d *Disk) TryGetSchedule(key grid.Key) (s *core.Schedule, cached error, ok bool, ioErr error) {
	d.mu.Lock()
	loc, present := d.index[key]
	var f fault.File
	if present {
		f = d.files[loc.seg]
	}
	d.mu.Unlock()
	if !present || f == nil {
		return nil, nil, false, nil
	}
	payload := make([]byte, loc.n)
	if _, err := f.ReadAt(payload, loc.off); err != nil {
		d.readErrs.Add(1)
		return nil, nil, false, fmt.Errorf("store: reading record: %w", err)
	}
	sched, err := core.DecodeSchedule(payload)
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
// duplicates — return nil: nothing was asked of the device.
func (d *Disk) TryPutSchedule(key grid.Key, s *core.Schedule, err error) error {
	if err != nil || s == nil {
		return nil
	}
	payload, encErr := core.EncodeSchedule(s)
	if encErr != nil {
		return nil
	}
	rec := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint32(rec[0:], recordMagic)
	rec[4] = kindSchedule
	copy(rec[5:37], key[:])
	binary.LittleEndian.PutUint32(rec[37:], uint32(len(payload)))
	copy(rec[headerSize:], payload)
	crc := crc32.Update(0, crcTable, rec[4:41])
	crc = crc32.Update(crc, crcTable, payload)
	binary.LittleEndian.PutUint32(rec[41:], crc)

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	if _, dup := d.index[key]; dup {
		return nil // content-addressed: the resident record is equal
	}
	if d.size >= d.segmentBytes {
		if err := d.openSegment(d.active+1, true); err != nil {
			d.writeErrs.Add(1)
			return err
		}
	}
	f := d.files[d.active]
	// One contiguous write: a crash leaves either a complete record or a torn
	// tail the next Open truncates — never an indexed half-record. A failed
	// (possibly torn) write leaves d.size where it was, so the next append
	// overwrites the debris; whatever garbage survives past the final valid
	// record is exactly what the next Open's scan truncates.
	if _, err := f.WriteAt(rec, d.size); err != nil {
		d.writeErrs.Add(1)
		return fmt.Errorf("store: appending record: %w", err)
	}
	if d.opts.Sync {
		if err := f.Sync(); err != nil {
			d.writeErrs.Add(1)
			return fmt.Errorf("store: syncing record: %w", err)
		}
	}
	d.index[key] = entryLoc{seg: d.active, off: d.size + headerSize, n: len(payload)}
	d.size += int64(len(rec))
	d.bytes += int64(len(rec))
	d.entries.Add(1)
	return nil
}

// GetComparison implements grid.Store: comparisons are never persisted
// (they are rebuilt from the persisted schedules on demand), so every lookup
// misses.
func (d *Disk) GetComparison(grid.Key) (*grid.Comparison, error, bool) { return nil, nil, false }

// PutComparison implements grid.Store as a no-op; see GetComparison.
func (d *Disk) PutComparison(grid.Key, *grid.Comparison, error) {}

// Stats implements grid.Store: the disk tier owns log occupancy and the
// recovery counters.
func (d *Disk) Stats() grid.Stats {
	d.mu.Lock()
	bytes := d.bytes
	d.mu.Unlock()
	return grid.Stats{
		DiskHits:           d.hits.Load(),
		DiskEntries:        d.entries.Load(),
		DiskBytes:          bytes,
		DiskReadErrs:       d.readErrs.Load(),
		DiskWriteErrs:      d.writeErrs.Load(),
		RecoveredEntries:   d.recovered,
		TornRecordsDropped: d.torn,
	}
}

// Close releases the segment files. Every record already written is durable
// per the Options.Sync policy; there is no buffered state to flush.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	var first error
	for _, f := range d.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

var blobNameRe = regexp.MustCompile(`^[a-zA-Z0-9._-]+$`)

// ErrBadBlobName reports a blob name outside [a-zA-Z0-9._-]+. The name is the
// caller's input, so the error says nothing about the device: Tiered does
// not score it on the breaker.
var ErrBadBlobName = errors.New("store: invalid blob name")

// Blob slot record layout, little-endian, at offset 0 of a slot file:
//
//	magic  u32   slotMagic
//	seq    u64   the name's put sequence number
//	plen   u32   payload length
//	crc    u32   CRC-32C (Castagnoli) over seq ‖ plen ‖ payload
//	payload      the blob
//
// Every blob has two slot files, blobs/<name>~0 and blobs/<name>~1; '~' is
// outside blobNameRe's alphabet, so no blob name is ever a slot file's. A
// put overwrites the slot that does not hold the newest valid record, so
// the other one keeps the previous bytes. Bytes past a record are what a
// longer earlier record left behind: they are ignored, and no slot file is
// ever truncated.
const (
	slotMagic      = 0x53424C42 // "SBLB"
	slotHeaderSize = 4 + 8 + 4 + 4
)

// slotSuffixes name a blob's two slot files.
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

// blobPath returns the path of a blob's plain file (the layout stores kept
// before slot files) with suffix "", or of one of its slot files.
func (d *Disk) blobPath(name, suffix string) string {
	return filepath.Join(d.dir, "blobs", name+suffix)
}

// readSlots reads both of name's slot files. A missing file is an empty
// slot and a record that fails its framing an invalid one; only an I/O
// error is an error.
func (d *Disk) readSlots(name string) (s [2]slot, err error) {
	for i, suffix := range slotSuffixes {
		data, err := d.fs.ReadFile(d.blobPath(name, suffix))
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

// blobLock serializes the puts and gets of one name; names share one of
// len(d.blobMu) locks by hash, so the store keeps no per-name state.
func (d *Disk) blobLock(name string) *sync.Mutex {
	return &d.blobMu[maphash.String(d.blobSeed, name)%uint64(len(d.blobMu))]
}

// PutBlob atomically replaces the named blob. It overwrites, in place and
// with one WriteAt at offset 0, the slot file that does not hold the newest
// valid record, writing a record one sequence number above it; the other
// slot keeps the previous bytes. A crash mid-write, or a concurrent reader
// in another process, finds the torn record failing its CRC and the other
// slot answering, so a reader sees the old content or the new, never a mix.
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
	mu := d.blobLock(name)
	mu.Lock()
	defer mu.Unlock()
	slots, err := d.readSlots(name)
	if err != nil {
		d.readErrs.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	target, seq := 0, uint64(1)
	if n := newest(&slots); n >= 0 {
		target, seq = 1-n, slots[n].seq+1
	}
	created := !slots[target].exists
	if err := d.writeSlot(d.blobPath(name, slotSuffixes[target]), slotRecord(seq, data), created); err != nil {
		d.writeErrs.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	if created {
		// The new slot shadows the plain file; ENOENT is the usual answer.
		d.fs.Remove(d.blobPath(name, ""))
	}
	return nil
}

// writeSlot writes rec over the start of the slot file at path, fsyncing it
// (and blobs/, when created says the file is new) under Options.Sync. On
// failure the record is made unreadable: a new file is removed, an old one
// gets its magic zeroed.
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

// GetBlob returns the named blob's content and whether it exists: the valid
// slot record with the higher sequence number or, when neither slot holds
// one, the name's plain file, which only older stores hold.
func (d *Disk) GetBlob(name string) ([]byte, bool, error) {
	if !blobNameRe.MatchString(name) {
		return nil, false, fmt.Errorf("%w %q", ErrBadBlobName, name)
	}
	mu := d.blobLock(name)
	mu.Lock()
	defer mu.Unlock()
	slots, err := d.readSlots(name)
	if err != nil {
		d.readErrs.Add(1)
		return nil, false, fmt.Errorf("store: %w", err)
	}
	if n := newest(&slots); n >= 0 {
		return slots[n].payload, true, nil
	}
	data, err := d.fs.ReadFile(d.blobPath(name, ""))
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
	entries, err := d.fs.ReadDir(filepath.Join(d.dir, "blobs"))
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
