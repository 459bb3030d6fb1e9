// Package store is the crash-safe persistent tier of the content-addressed
// schedule cache (DESIGN.md §9): an append-only log of encoded schedules
// keyed by their grid.Key, plus a small atomic blob area for session
// checkpoints. It implements grid.Store, so a Memo can run directly on disk,
// and composes with the in-memory tier through Tiered.
//
// Durability model: schedules are the expensive artefact (a solve), so only
// they are persisted; compiled plans and simulated comparisons are pure
// functions of schedules and are rebuilt on demand. Every record carries its
// own length and CRC-32C, so a crash mid-append costs at most the record
// being written: the recovery scan on Open truncates the log at the first
// torn record and everything before it survives. Blobs are written
// tmp+rename, so a reader sees either the old bytes or the new bytes, never
// a mix.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/sim"
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

// Options configures a Disk store.
type Options struct {
	// SegmentBytes rolls the active segment once it exceeds this size
	// (default 64 MiB). Only the active segment is ever appended to;
	// completed segments are immutable.
	SegmentBytes int64
	// Sync fsyncs after every append, and makes every PutBlob durable
	// before it returns. Off by default: the log is a cache, so losing the
	// OS write-back window costs re-solves, not correctness — the recovery
	// scan drops whatever tail didn't make it to the platter. Blobs (request
	// bodies, session checkpoints) cannot be rebuilt, so a deployment that
	// must survive a power loss turns it on.
	Sync bool
	// FS supplies the filesystem (nil = the real OS). Tests and the chaos
	// harness pass fault.Inject(fault.OS(), registry) to subject every
	// store operation to a seeded fault schedule.
	FS fault.FS
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
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
// log, plans and comparisons never resident (rebuilt on demand). All
// methods are safe for concurrent use. Losing any suffix of the log — a
// crash, a torn record, a deleted segment — changes hit rates, never
// results: keys are content addresses and the decode path re-verifies
// structure end to end.
type Disk struct {
	dir  string
	opts Options
	fs   fault.FS

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
		dir:   dir,
		opts:  opts,
		fs:    opts.FS,
		index: make(map[grid.Key]entryLoc),
		files: make(map[int]fault.File),
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
	if d.size >= d.opts.SegmentBytes {
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

// GetPlan implements grid.Store: plans are never persisted (they are pure
// functions of schedules, recompiled on demand), so every lookup misses.
func (d *Disk) GetPlan(grid.Key) (*sim.CompiledPlan, error, bool) { return nil, nil, false }

// PutPlan implements grid.Store as a no-op; see GetPlan.
func (d *Disk) PutPlan(grid.Key, *sim.CompiledPlan, error) {}

// GetComparison implements grid.Store: comparisons are never persisted
// (like plans, they are rebuilt from the persisted schedules on demand), so
// every lookup misses.
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

// PutBlob atomically replaces the named blob: the bytes land in a temp file
// first and are renamed over the target, so a concurrent GetBlob (or a
// crash) observes the old content or the new, never a mix. Under
// Options.Sync the temp file is fsynced before the rename and blobs/ after
// it, so a blob PutBlob acknowledged survives a power loss too; without it,
// a process crash cannot lose the blob, but the OS may still lose its
// write-back window.
func (d *Disk) PutBlob(name string, data []byte) error {
	if !blobNameRe.MatchString(name) {
		return fmt.Errorf("%w %q", ErrBadBlobName, name)
	}
	dir := filepath.Join(d.dir, "blobs")
	tmp := filepath.Join(dir, name+".tmp")
	err := d.writeBlobFile(tmp, data)
	if err == nil {
		err = d.fs.Rename(tmp, filepath.Join(dir, name))
	}
	if err == nil && d.opts.Sync {
		err = d.syncDir(dir)
	}
	if err != nil {
		d.fs.Remove(tmp)
		d.writeErrs.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// writeBlobFile writes a blob's temp file, fsynced under Options.Sync.
func (d *Disk) writeBlobFile(tmp string, data []byte) error {
	if !d.opts.Sync {
		return d.fs.WriteFile(tmp, data, 0o644)
	}
	f, err := d.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.WriteAt(data, 0); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory, making the renames in it durable.
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

// GetBlob returns the named blob's content and whether it exists.
func (d *Disk) GetBlob(name string) ([]byte, bool, error) {
	if !blobNameRe.MatchString(name) {
		return nil, false, fmt.Errorf("%w %q", ErrBadBlobName, name)
	}
	data, err := d.fs.ReadFile(filepath.Join(d.dir, "blobs", name))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		d.readErrs.Add(1)
		return nil, false, fmt.Errorf("store: %w", err)
	}
	return data, true, nil
}

// ListBlobs returns the existing blob names in sorted order, skipping
// in-flight temp files.
func (d *Disk) ListBlobs() ([]string, error) {
	entries, err := d.fs.ReadDir(filepath.Join(d.dir, "blobs"))
	if err != nil {
		d.readErrs.Add(1)
		return nil, fmt.Errorf("store: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) == ".tmp" {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}
