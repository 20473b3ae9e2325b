// Package journal is the crash-safe, append-only on-disk campaign journal
// behind resumable experiment sweeps. A journal is a single file of
// length-prefixed, CRC32C-checksummed records; the sim layer appends one
// record per finished (or permanently failed) simulation cell, and a later
// process replays the file to restore those cells without re-simulating.
//
// Durability model:
//
//   - Every Append is fsynced before it returns, but concurrent appenders
//     share fsyncs (group commit): a sync that begins after a record's
//     write covers that record, so N appenders racing through a multi-hour
//     sweep issue far fewer than N syncs without weakening the guarantee.
//   - A crash can only damage the bytes after the last completed sync, i.e.
//     the tail of the file. Open therefore replays records until the first
//     frame that cannot be completed (short header, impossible length,
//     checksum-failed final record), truncates that torn tail in place, and
//     carries on — a torn journal is repaired, never fatal.
//   - A checksum failure in the middle of the file (bit rot, not a torn
//     write) is skipped and counted, not fatal: one damaged cell must not
//     discard the rest of a campaign.
//   - Records with the same Key supersede each other, last record wins —
//     that is how a successful retry replaces an earlier fault record. Open
//     compacts the file (atomic rename of a freshly synced copy) when the
//     superseded records outnumber the live ones.
//   - An advisory flock on <dir>/journal.lock makes a second Open of the
//     same directory fail with ErrLocked instead of interleaving two
//     processes' appends.
//
// The journal stores opaque payload bytes; the sim layer owns the payload
// encoding (see sim.NewRunCacheWithJournal). Deterministic crash rehearsal
// comes from faultinject plans (kill-mid-write, journal-torn-tail) wired in
// through Options.Inject.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"svf/internal/faultinject"
)

// magic opens every journal file; a version bump changes the last byte.
const magic = "SVFJNL01"

// maxRecordLen bounds one record's payload. Anything larger in a length
// header is treated as frame damage, not an allocation request.
const maxRecordLen = 64 << 20

var (
	// ErrLocked reports that another process holds the journal directory.
	ErrLocked = errors.New("journal: directory locked by another process")
	// ErrClosed reports an operation on a closed journal.
	ErrClosed = errors.New("journal: closed")
	// ErrSimulatedCrash is returned by Append when a faultinject plan
	// kills or tears the write; the journal is dead afterwards, exactly
	// as if the process had died mid-write.
	ErrSimulatedCrash = errors.New("journal: simulated crash during append")
)

// Record is one journal entry. Key identifies the campaign cell; a later
// record with the same Key supersedes an earlier one (that is how a retry's
// success replaces its fault record). Kind names the payload encoding and
// Data carries it opaquely; Attempts and Permanent describe fault records.
type Record struct {
	// Kind tags the payload encoding (the sim layer uses "run",
	// "traffic" and "fault"). Unknown kinds survive replay untouched so
	// newer writers do not break older readers.
	Kind string
	// Key is the cell identity records supersede each other by.
	Key string
	// Attempts is the cumulative failed-execution count for fault
	// records (zero otherwise).
	Attempts uint32
	// Permanent marks a fault record whose cell is latched: its retry
	// budget is exhausted and resumes serve the failure instead of
	// re-executing.
	Permanent bool
	// Data is the caller-encoded payload.
	Data []byte
}

// Options configures Open.
type Options struct {
	// Inject applies a deterministic fault plan to the journal's own
	// append path (kill-mid-write, journal-torn-tail). Nil injects
	// nothing.
	Inject *faultinject.Plan
	// OnCrash, when non-nil, runs after an injected crash has damaged
	// the file and marked the journal dead — svfexp uses it to exit with
	// a kill-like status so CI can rehearse real process death. The
	// default just makes Append return ErrSimulatedCrash.
	OnCrash func()
	// NoAutoCompact disables the compaction pass Open normally runs when
	// superseded records outnumber live ones (tests use it to inspect
	// the raw file).
	NoAutoCompact bool
	// OnSync, when non-nil, runs after each group-commit fsync completes,
	// with the journal's cumulative durable appends and fsync batches. It
	// is called outside the journal's locks; the telemetry layer hangs
	// journal_flush events off it.
	OnSync func(appends, syncBatches uint64)
}

// ReplayStats describes what Open found in an existing journal.
type ReplayStats struct {
	// Live is the number of current records (last per Key).
	Live int
	// Obsolete counts records superseded by a later record with the same
	// Key.
	Obsolete int
	// SkippedCorrupt counts checksum-failed records in the middle of the
	// file that were skipped.
	SkippedCorrupt int
	// TruncatedBytes is the size of the torn tail Open cut off (zero for
	// a cleanly closed journal).
	TruncatedBytes int64
	// Compacted reports whether Open rewrote the file to drop obsolete
	// records.
	Compacted bool
}

// String renders the one-line replay summary.
func (s ReplayStats) String() string {
	out := fmt.Sprintf("%d live record(s)", s.Live)
	if s.Obsolete > 0 {
		out += fmt.Sprintf(", %d superseded", s.Obsolete)
	}
	if s.SkippedCorrupt > 0 {
		out += fmt.Sprintf(", %d corrupt skipped", s.SkippedCorrupt)
	}
	if s.TruncatedBytes > 0 {
		out += fmt.Sprintf(", torn tail of %d byte(s) truncated", s.TruncatedBytes)
	}
	if s.Compacted {
		out += ", compacted"
	}
	return out
}

// Replay is the result of reading an existing journal on Open.
type Replay struct {
	// Records holds the live records — the last record per Key — in the
	// order their keys first appeared.
	Records []Record
	// Stats summarises the scan.
	Stats ReplayStats
}

// Journal is one open campaign journal. Safe for concurrent Appends.
type Journal struct {
	dir   string
	lockf *os.File

	mu   sync.Mutex // guards f, size, seq, dead
	f    *os.File
	size int64
	seq  uint64 // appends attempted, drives fault injection
	dead error  // non-nil once crashed or closed

	inject  *faultinject.Plan
	rng     *rand.Rand // seeded damage sizes for injected crashes
	onCrash func()
	onSync  func(appends, syncBatches uint64)

	syncMu   sync.Mutex // serialises group-commit fsyncs
	syncedTo int64      // guarded by syncMu
	syncs    uint64     // fsync batches issued; guarded by syncMu
	appends  uint64     // records appended durably; guarded by mu
}

// Path returns the journal file's path inside dir.
func Path(dir string) string { return filepath.Join(dir, "journal.log") }

// writeLockHolder records this process's identity in the (just-acquired)
// lock file so a losing Open can name who beat it. Best-effort: the lock
// itself is the flock, not the contents.
func writeLockHolder(lockf *os.File) {
	id := fmt.Sprintf("pid %d", os.Getpid())
	if len(os.Args) > 0 {
		id += ": " + strings.Join(os.Args, " ")
	}
	if len(id) > 512 {
		id = id[:512]
	}
	if err := lockf.Truncate(0); err == nil {
		lockf.WriteAt([]byte(id), 0)
		lockf.Sync()
	}
}

// readLockHolder returns the identity the current holder wrote, "" when
// unreadable (an old-format lock file, or a holder that died mid-write).
func readLockHolder(lockf *os.File) string {
	buf := make([]byte, 512)
	n, err := lockf.ReadAt(buf, 0)
	if n == 0 && err != nil {
		return ""
	}
	return strings.TrimSpace(string(buf[:n]))
}

// Open creates dir if needed, takes the advisory lock, replays any existing
// records (repairing a torn tail and compacting away superseded records),
// and returns the journal positioned for appends. A second Open of the same
// directory fails with ErrLocked until the first journal is closed.
func Open(dir string, opts Options) (*Journal, *Replay, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	lockf, err := os.OpenFile(filepath.Join(dir, "journal.lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	if err := lockFile(lockf); err != nil {
		// Name the holder: the winning Open wrote its identity into the
		// lock file, which turns "locked" into an actionable message —
		// in the sharded-campaign world the usual culprit is a worker
		// mistakenly pointed at the coordinator's -journal directory.
		holder := readLockHolder(lockf)
		lockf.Close()
		if holder != "" {
			return nil, nil, fmt.Errorf("%w: %s (held by %s)", ErrLocked, dir, holder)
		}
		return nil, nil, fmt.Errorf("%w: %s", ErrLocked, dir)
	}
	writeLockHolder(lockf)
	f, err := os.OpenFile(Path(dir), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		unlockFile(lockf)
		lockf.Close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{
		dir:     dir,
		lockf:   lockf,
		f:       f,
		inject:  opts.Inject,
		onCrash: opts.OnCrash,
		onSync:  opts.OnSync,
	}
	if opts.Inject.JournalActive() {
		j.rng = rand.New(rand.NewSource(opts.Inject.Seed))
	}
	rep, err := j.replayAndRepair(opts.NoAutoCompact)
	if err != nil {
		j.Close()
		return nil, nil, err
	}
	return j, rep, nil
}

// replayAndRepair scans the file, truncates a torn tail, optionally
// compacts, and leaves the write offset at the end of the last valid
// record.
func (j *Journal) replayAndRepair(noCompact bool) (*Replay, error) {
	raw, err := io.ReadAll(j.f)
	if err != nil {
		return nil, fmt.Errorf("journal: read %s: %w", Path(j.dir), err)
	}
	if len(raw) == 0 {
		// Fresh journal: stamp the magic durably before any record.
		if _, err := j.f.Write([]byte(magic)); err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		if err := j.f.Sync(); err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		j.size = int64(len(magic))
		j.syncedTo = j.size
		return &Replay{}, nil
	}
	if len(raw) < len(magic) || string(raw[:len(magic)]) != magic {
		return nil, fmt.Errorf("journal: %s is not a journal (bad magic)", Path(j.dir))
	}

	rep := &Replay{}
	type slot struct {
		idx  int // position in rep.Records
		seen bool
	}
	byKey := map[string]*slot{}
	off := int64(len(magic))
	goodEnd := off // end of the last frame we accepted (valid or skipped)
	for off < int64(len(raw)) {
		rest := raw[off:]
		if len(rest) < 8 {
			break // torn: header incomplete
		}
		plen := binary.LittleEndian.Uint32(rest[:4])
		if plen > maxRecordLen || int64(plen) > int64(len(rest)-8) {
			break // torn: frame extends past EOF (or length bytes damaged)
		}
		payload := rest[8 : 8+plen]
		sum := binary.LittleEndian.Uint32(rest[4:8])
		frameEnd := off + 8 + int64(plen)
		if crc32.Checksum(payload, castagnoli) != sum {
			if frameEnd == int64(len(raw)) {
				break // torn: final record damaged mid-write
			}
			// Damaged in the middle of the file: skip this record but
			// keep everything after it.
			rep.Stats.SkippedCorrupt++
			off = frameEnd
			goodEnd = frameEnd
			continue
		}
		rec, derr := decodeRecord(payload)
		if derr != nil {
			// The checksum held but the envelope did not parse —
			// treat like corruption and keep going.
			rep.Stats.SkippedCorrupt++
			off = frameEnd
			goodEnd = frameEnd
			continue
		}
		if s, ok := byKey[rec.Key]; ok {
			rep.Records[s.idx] = rec
			rep.Stats.Obsolete++
		} else {
			byKey[rec.Key] = &slot{idx: len(rep.Records)}
			rep.Records = append(rep.Records, rec)
		}
		off = frameEnd
		goodEnd = frameEnd
	}
	rep.Stats.Live = len(rep.Records)
	rep.Stats.TruncatedBytes = int64(len(raw)) - goodEnd

	if rep.Stats.TruncatedBytes > 0 {
		if err := j.f.Truncate(goodEnd); err != nil {
			return nil, fmt.Errorf("journal: repair torn tail: %w", err)
		}
		if err := j.f.Sync(); err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
	}
	j.size = goodEnd
	j.syncedTo = goodEnd

	// Compact when the dead weight (superseded + skipped frames)
	// outnumbers the live records; the floor avoids churning tiny files.
	dead := rep.Stats.Obsolete + rep.Stats.SkippedCorrupt
	if !noCompact && dead >= 8 && dead > rep.Stats.Live {
		if err := j.compact(rep.Records); err != nil {
			return nil, err
		}
		rep.Stats.Compacted = true
	}
	return rep, nil
}

// Append durably adds one record. It returns once the record's bytes are
// fsynced (possibly by a concurrent Append's sync that covered them).
func (j *Journal) Append(rec Record) error {
	frame := encodeFrame(rec)

	j.mu.Lock()
	if j.dead != nil {
		err := j.dead
		j.mu.Unlock()
		return err
	}
	j.seq++
	if j.inject.JournalKillAt(j.seq) {
		// Simulated kill -9 mid-write: a seeded prefix of the frame
		// lands, the rest never does.
		cut := 1 + j.rng.Intn(len(frame)-1)
		j.f.WriteAt(frame[:cut], j.size)
		j.size += int64(cut)
		j.f.Sync()
		return j.crashLocked()
	}
	if _, err := j.f.WriteAt(frame, j.size); err != nil {
		j.mu.Unlock()
		return fmt.Errorf("journal: append: %w", err)
	}
	j.size += int64(len(frame))
	j.appends++
	if j.inject.JournalTearAt(j.seq) {
		// Simulated crash right after the write: tear a seeded number
		// of bytes back off the tail.
		cut := 1 + j.rng.Intn(len(frame)-1)
		j.size -= int64(cut)
		j.f.Truncate(j.size)
		j.f.Sync()
		return j.crashLocked()
	}
	end := j.size
	j.mu.Unlock()

	return j.syncTo(end)
}

// crashLocked marks the journal dead after injected damage and fires the
// crash hook. Caller holds j.mu; the lock is released here because OnCrash
// may never return (svfexp exits).
func (j *Journal) crashLocked() error {
	j.dead = ErrSimulatedCrash
	hook := j.onCrash
	j.mu.Unlock()
	if hook != nil {
		hook()
	}
	return ErrSimulatedCrash
}

// syncTo guarantees the file is fsynced at least through offset end,
// sharing one fsync between every append that completed before it started
// (group commit).
func (j *Journal) syncTo(end int64) error {
	var appends, syncs uint64
	synced := false
	err := func() error {
		j.syncMu.Lock()
		defer j.syncMu.Unlock()
		if j.syncedTo >= end {
			return nil // a concurrent append's sync already covered us
		}
		j.mu.Lock()
		target := j.size
		dead := j.dead
		appends = j.appends
		j.mu.Unlock()
		if dead != nil {
			return dead
		}
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: sync: %w", err)
		}
		j.syncedTo = target
		j.syncs++
		syncs = j.syncs
		synced = true
		return nil
	}()
	// The hook fires outside both locks, and only for the append that
	// actually issued the fsync (not the group riding along).
	if err == nil && synced && j.onSync != nil {
		j.onSync(appends, syncs)
	}
	return err
}

// compact rewrites the journal to exactly the given records: a temp file in
// the same directory is written and fsynced, atomically renamed over
// journal.log, and the directory entry fsynced. The open journal keeps
// appending to the new file. Open calls it before the journal is shared.
func (j *Journal) compact(live []Record) error {
	tmpPath := Path(j.dir) + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpPath)
	}
	if _, err := tmp.Write([]byte(magic)); err != nil {
		cleanup()
		return fmt.Errorf("journal: compact: %w", err)
	}
	size := int64(len(magic))
	for _, rec := range live {
		frame := encodeFrame(rec)
		if _, err := tmp.Write(frame); err != nil {
			cleanup()
			return fmt.Errorf("journal: compact: %w", err)
		}
		size += int64(len(frame))
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("journal: compact: %w", err)
	}
	if err := os.Rename(tmpPath, Path(j.dir)); err != nil {
		cleanup()
		return fmt.Errorf("journal: compact: %w", err)
	}
	syncDir(j.dir)
	// The old fd still points at the unlinked inode; appends must go to
	// the renamed file, whose fd we already hold.
	j.f.Close()
	j.f = tmp
	j.size = size
	j.syncMu.Lock()
	j.syncedTo = size
	j.syncMu.Unlock()
	return nil
}

// Stats is a point-in-time summary of the open journal.
type Stats struct {
	// Appends is the number of records appended durably this session.
	Appends uint64
	// SyncBatches is the number of fsyncs issued for those appends;
	// under concurrency it is at most Appends (group commit).
	SyncBatches uint64
	// SizeBytes is the journal file's current size.
	SizeBytes int64
}

// Stats snapshots the journal's counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	appends, size := j.appends, j.size
	j.mu.Unlock()
	j.syncMu.Lock()
	syncs := j.syncs
	j.syncMu.Unlock()
	return Stats{Appends: appends, SyncBatches: syncs, SizeBytes: size}
}

// Close flushes, releases the directory lock and closes the file.
// Idempotent; safe after an injected crash.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.dead == nil {
		j.dead = ErrClosed
		j.f.Sync()
	}
	f, lockf := j.f, j.lockf
	j.f, j.lockf = nil, nil
	j.mu.Unlock()
	var err error
	if f != nil {
		err = f.Close()
	}
	if lockf != nil {
		unlockFile(lockf)
		lockf.Close()
	}
	return err
}

// castagnoli is the CRC32C table (the polynomial storage systems use; it
// has hardware support on every platform we run on).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeFrame renders [len u32][crc32c u32][payload] for one record.
func encodeFrame(rec Record) []byte {
	payload := encodeRecord(rec)
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[8:], payload)
	return frame
}

// encodeRecord renders the envelope: kind (u8 len + bytes), key (u16 len +
// bytes), attempts u32, permanent u8, data (u32 len + bytes). Manual
// binary keeps records compact and the decoder allocation-bounded.
func encodeRecord(rec Record) []byte {
	kind, key := rec.Kind, rec.Key
	if len(kind) > 255 {
		kind = kind[:255]
	}
	if len(key) > 65535 {
		key = key[:65535]
	}
	out := make([]byte, 0, 1+len(kind)+2+len(key)+4+1+4+len(rec.Data))
	out = append(out, byte(len(kind)))
	out = append(out, kind...)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(key)))
	out = append(out, key...)
	out = binary.LittleEndian.AppendUint32(out, rec.Attempts)
	perm := byte(0)
	if rec.Permanent {
		perm = 1
	}
	out = append(out, perm)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(rec.Data)))
	out = append(out, rec.Data...)
	return out
}

var errEnvelope = errors.New("journal: malformed record envelope")

// decodeRecord parses encodeRecord's output.
func decodeRecord(p []byte) (Record, error) {
	var rec Record
	take := func(n int) ([]byte, bool) {
		if len(p) < n {
			return nil, false
		}
		out := p[:n]
		p = p[n:]
		return out, true
	}
	b, ok := take(1)
	if !ok {
		return rec, errEnvelope
	}
	kind, ok := take(int(b[0]))
	if !ok {
		return rec, errEnvelope
	}
	rec.Kind = string(kind)
	b, ok = take(2)
	if !ok {
		return rec, errEnvelope
	}
	key, ok := take(int(binary.LittleEndian.Uint16(b)))
	if !ok {
		return rec, errEnvelope
	}
	rec.Key = string(key)
	b, ok = take(4)
	if !ok {
		return rec, errEnvelope
	}
	rec.Attempts = binary.LittleEndian.Uint32(b)
	b, ok = take(1)
	if !ok {
		return rec, errEnvelope
	}
	rec.Permanent = b[0] != 0
	b, ok = take(4)
	if !ok {
		return rec, errEnvelope
	}
	data, ok := take(int(binary.LittleEndian.Uint32(b)))
	if !ok || len(p) != 0 {
		return rec, errEnvelope
	}
	rec.Data = append([]byte(nil), data...)
	return rec, nil
}

// syncDir fsyncs a directory entry so a rename survives power loss.
// Best-effort: some filesystems refuse directory syncs.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
