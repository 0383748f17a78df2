// Package wal is the durability substrate under live serving: a
// segmented append-only write-ahead log plus snapshot checkpoints for
// relations (see RelationLog). Every mutation a server acks is framed,
// checksummed, and written here before the ack; recovery loads the
// newest valid checkpoint and replays the log tail past it through the
// relation's ordinary mutation path, so a restarted daemon comes back
// with exactly the acked state.
//
// Record frame (little-endian) — the one specification of the layout,
// which frame.go alone implements and which is also the replication
// wire format (package repl ships these bytes verbatim):
//
//	[len u32][crc u32][seq u64][payload len bytes]
//
// crc is CRC-32C (Castagnoli) over seq+payload; len counts the payload
// only and may not exceed MaxRecordLen. seq is caller-assigned and
// strictly increasing — relations use their mutation version, so a WAL
// record's seq IS the relation version it produced. A frame that ends
// early is torn (io.ErrUnexpectedEOF); one whose crc or len is wrong is
// bad (ErrBadFrame). What a consumer does about either is its own
// policy: Open truncates damage in the log's last segment away, Replay
// and a sealed segment under a StreamCursor fail on it, a StreamCursor
// at the live tail waits for the append in flight, a follower
// reconnects (torn) or resyncs from a snapshot (bad).
//
// Segments are named %016x.wal after their first record's seq. Damage
// anywhere except the tail — a torn record followed by segments that
// still hold valid records, a duplicated segment file, an overlapping
// seq range — fails Open loudly instead of silently truncating acked
// history.
package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SyncPolicy decides when appended records are fsynced, which is what
// an ack means to the client. See the README's "Durability" section for
// the full ladder.
type SyncPolicy int

const (
	// SyncAlways fsyncs before every Commit returns: an acked append
	// survives power loss.
	SyncAlways SyncPolicy = iota
	// SyncInterval is group commit: Commit only surfaces prior I/O
	// failures — no syscall on the ack path — and a background flusher
	// writes through and fsyncs every Options.Interval. A crash of any
	// kind (including a killed process) can lose up to one interval of
	// acked appends; everything older than the last flush survives
	// power loss.
	SyncInterval
	// SyncNever writes through to the OS and never fsyncs: acked
	// appends survive a killed process but not necessarily a crashed
	// machine.
	SyncNever
)

// policyNames are the -fsync flag values, indexed by policy.
var policyNames = [...]string{SyncAlways: "always", SyncInterval: "interval", SyncNever: "off"}

// ParseSyncPolicy maps the -fsync flag values to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	for p, name := range policyNames {
		if s == name {
			return SyncPolicy(p), nil
		}
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or off)", s)
}

func (p SyncPolicy) String() string {
	if p >= 0 && int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// Options tunes a Log.
type Options struct {
	// Policy is the fsync policy; default SyncInterval.
	Policy SyncPolicy
	// Interval is the group-commit fsync cadence under SyncInterval.
	// Default 2ms.
	Interval time.Duration
	// SegmentBytes caps a segment file before rotation. Default 4 MiB.
	SegmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = 2 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// ErrClosed is returned by operations on a closed Log.
var ErrClosed = errors.New("wal: log is closed")

const (
	segSuffix = ".wal"
	// writeBufBytes sizes the segment write buffer. bufio's 4 KiB
	// default puts a write syscall on the ack path every ~hundred rows
	// of bulk ingest; 256 KiB keeps appends syscall-free between group
	// commits.
	writeBufBytes = 256 << 10
)

// segment is one log file; first is the seq of its first record.
type segment struct {
	path  string
	first uint64
}

// writeBuf is a fixed-size buffered writer over the active segment
// that can hand out in-place reservations: a whole record frame is
// encoded directly into the buffer write() drains, so the bulk-ingest
// ack path copies each byte exactly once in user space.
type writeBuf struct {
	f *os.File
	b []byte
	n int
}

func newWriteBuf(f *os.File) *writeBuf {
	return &writeBuf{f: f, b: make([]byte, writeBufBytes)}
}

func (w *writeBuf) Flush() error {
	if w.n == 0 {
		return nil
	}
	n := w.n
	w.n = 0 // a failure makes the log sticky-failed; nothing retries
	_, err := w.f.Write(w.b[:n])
	return err
}

func (w *writeBuf) Write(p []byte) (int, error) {
	total := len(p)
	for w.n+len(p) > len(w.b) {
		if w.n == 0 { // larger than the whole buffer: write through
			_, err := w.f.Write(p)
			return total, err
		}
		k := copy(w.b[w.n:], p)
		w.n += k
		p = p[k:]
		if err := w.Flush(); err != nil {
			return 0, err
		}
	}
	w.n += copy(w.b[w.n:], p)
	return total, nil
}

// Reserve returns an in-place window for the next n bytes of the
// stream, flushing first when the buffer tail is too short. It returns
// nil when n exceeds the buffer itself; the caller copies instead.
func (w *writeBuf) Reserve(n int) ([]byte, error) {
	if n > len(w.b) {
		return nil, nil
	}
	if w.n+n > len(w.b) {
		if err := w.Flush(); err != nil {
			return nil, err
		}
	}
	p := w.b[w.n : w.n+n]
	w.n += n
	return p, nil
}

// Log is a segmented write-ahead log. Appends are buffered; Commit
// makes everything appended so far durable per the sync policy. All
// methods are safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       *os.File
	w       *writeBuf
	scratch []byte // fallback encode buffer for oversized reservations
	segs    []segment
	lastSeq uint64 // highest seq ever appended; 0 = empty log
	size    int64  // bytes in the active segment
	dirty   bool   // bytes written since the last fsync
	err     error  // sticky I/O failure; every later call returns it
	closed  bool

	stop      chan struct{} // closes the interval flusher
	flushDone chan struct{}
}

// Open opens (creating if needed) the log in dir, truncating any torn
// tail so the log ends at its last intact record. The returned log's
// LastSeq is 0 when no record survives.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts}
	if err := l.scanDir(); err != nil {
		return nil, err
	}
	if len(l.segs) > 0 {
		active := l.segs[len(l.segs)-1]
		f, err := os.OpenFile(active.path, os.O_WRONLY|os.O_APPEND, 0o666)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.f, l.w, l.size = f, newWriteBuf(f), st.Size()
	}
	if opts.Policy == SyncInterval {
		l.stop = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flushLoop()
	}
	return l, nil
}

// scanDir lists segments and validates every one of them in order. A
// torn record is tolerated only at the true tail of the log — the
// defective segment's intact prefix is kept (or the empty file
// removed) and only recordless later segments may follow. A defect
// with valid records after it means history in the middle of the log
// was damaged: recovery fails loudly instead of silently truncating
// acked mutations away. Segments must also start at the seq their name
// claims and must not overlap their predecessor, so a duplicated or
// renamed segment file is an error, not silently replayed history.
func (l *Log) scanDir() error {
	firsts, err := seqFiles(l.dir, segSuffix)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	segs := make([]segment, len(firsts))
	for i, first := range firsts {
		segs[i] = segment{path: filepath.Join(l.dir, segName(first)), first: first}
	}
	scans := make([]segScan, len(segs))
	for i, seg := range segs {
		sc := &scans[i]
		sc.goodOff, err = walkSegment(seg.path, func(seq uint64, _ []byte) error {
			if sc.n == 0 {
				sc.first = seq
			}
			sc.last = seq
			sc.n++
			return nil
		})
		if err != nil && !isTear(err) {
			return err
		}
		sc.intact = err == nil
	}
	for i, seg := range segs {
		sc := scans[i]
		if sc.n > 0 {
			if sc.first != seg.first {
				return fmt.Errorf("wal: %s: first record seq %d does not match the segment name (duplicated or renamed segment file)",
					filepath.Base(seg.path), sc.first)
			}
			if l.lastSeq >= seg.first {
				return fmt.Errorf("wal: %s: segment overlaps its predecessor (first seq %d, predecessor ends at %d): duplicated history",
					filepath.Base(seg.path), seg.first, l.lastSeq)
			}
		}
		if sc.intact && sc.n > 0 {
			l.segs = append(l.segs, seg)
			l.lastSeq = sc.last
			continue
		}
		// Defective (torn record, or no records at all): legal only at
		// the log's tail. Any valid record in a later segment means the
		// damage is mid-log.
		for j := i + 1; j < len(segs); j++ {
			if scans[j].n > 0 {
				return fmt.Errorf("wal: %s: torn or empty segment followed by %s holding %d record(s): corrupt mid-log, refusing to truncate history",
					filepath.Base(seg.path), filepath.Base(segs[j].path), scans[j].n)
			}
		}
		if sc.n > 0 {
			if err := os.Truncate(seg.path, sc.goodOff); err != nil {
				return fmt.Errorf("wal: truncating torn tail: %w", err)
			}
			l.segs = append(l.segs, seg)
			l.lastSeq = sc.last
		} else if err := os.Remove(seg.path); err != nil {
			return fmt.Errorf("wal: removing empty torn segment: %w", err)
		}
		for _, later := range segs[i+1:] {
			if err := os.Remove(later.path); err != nil {
				return fmt.Errorf("wal: removing post-tear segment: %w", err)
			}
		}
		break
	}
	return nil
}

// segScan is one segment's validation result: the seqs of its first
// and last valid records, the number of valid records, the byte offset
// past the last valid record, and whether the file ends exactly there.
type segScan struct {
	first, last uint64
	n           int
	goodOff     int64
	intact      bool
}

// walkSegment calls fn for every valid frame of one segment file, in
// order, and returns the offset just past the last valid frame. The
// error is nil when the file ends exactly there; a tear (see isTear)
// when it does not — the caller decides whether that is a tail to
// truncate or damage to refuse; otherwise fn's own error or an I/O
// failure. The payload is only valid during the call.
func walkSegment(path string, fn func(seq uint64, payload []byte) error) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	fr := NewFrameReader(f)
	var off int64
	for {
		seq, payload, err := fr.Next()
		if err == io.EOF {
			return off, nil
		}
		if err != nil {
			return off, err
		}
		if err := fn(seq, payload); err != nil {
			return off, err
		}
		off += int64(headerSize + len(payload))
	}
}

// LastSeq reports the highest seq ever appended (0 when empty).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

func segName(first uint64) string {
	return fmt.Sprintf("%016x%s", first, segSuffix)
}

// seqFiles lists the seqs that dir's %016x<suffix> files — segments,
// checkpoints — are named after, ascending (ReadDir sorts by name and
// the names are fixed-width hex). Anything else in the directory is
// foreign and left alone.
func seqFiles(dir, suffix string) ([]uint64, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, de := range des {
		v, err := strconv.ParseUint(strings.TrimSuffix(de.Name(), suffix), 16, 64)
		if err == nil && !de.IsDir() && fmt.Sprintf("%016x%s", v, suffix) == de.Name() {
			seqs = append(seqs, v)
		}
	}
	return seqs, nil
}

// Append frames and buffers one record. seq must exceed every
// previously appended seq (gaps are fine: a checkpoint can outlive
// unfsynced WAL records, so the next boot appends past the checkpoint's
// version while the log still ends earlier). Durability — and write-out
// of the buffer — comes from Commit.
func (l *Log) Append(seq uint64, payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.appendCheckLocked(seq, len(payload)); err != nil {
		return err
	}
	return l.writeFrameLocked(seq, payload)
}

// AppendReserve appends one record whose payload is encoded in place:
// encode must fill exactly size bytes of the frame reserved inside the
// segment's write buffer, so bulk records skip the intermediate
// payload copy. The contract is otherwise Append's.
func (l *Log) AppendReserve(seq uint64, size int, encode func(dst []byte)) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.appendCheckLocked(seq, size); err != nil {
		return err
	}
	frame, err := l.w.Reserve(headerSize + size)
	if err != nil {
		return l.fail(err)
	}
	if frame == nil { // record larger than the write buffer
		if cap(l.scratch) < size {
			l.scratch = make([]byte, size)
		}
		p := l.scratch[:size]
		encode(p)
		return l.writeFrameLocked(seq, p)
	}
	encode(frame[headerSize:])
	putFrameHeader(frame[:headerSize], seq, frame[headerSize:])
	l.size += int64(headerSize) + int64(size)
	l.lastSeq = seq
	l.dirty = true
	return nil
}

// appendCheckLocked runs Append's preconditions and rotates when the
// active segment is full (or absent).
func (l *Log) appendCheckLocked(seq uint64, size int) error {
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return ErrClosed
	}
	if seq <= l.lastSeq {
		return l.fail(fmt.Errorf("wal: non-monotone seq %d (last %d)", seq, l.lastSeq))
	}
	if size > MaxRecordLen {
		return fmt.Errorf("wal: record of %d bytes exceeds the %d-byte frame limit", size, MaxRecordLen)
	}
	if l.f == nil || l.size >= l.opts.SegmentBytes {
		if err := l.rotateLocked(seq); err != nil {
			return err
		}
	}
	return nil
}

func (l *Log) writeFrameLocked(seq uint64, payload []byte) error {
	var hdr [headerSize]byte
	putFrameHeader(hdr[:], seq, payload)
	if _, err := l.w.Write(hdr[:]); err != nil {
		return l.fail(err)
	}
	if _, err := l.w.Write(payload); err != nil {
		return l.fail(err)
	}
	l.size += int64(headerSize) + int64(len(payload))
	l.lastSeq = seq
	l.dirty = true
	return nil
}

// fail records a sticky error: after an I/O failure the log refuses
// all further work, so a torn in-memory state can never be acked.
func (l *Log) fail(err error) error {
	if l.err == nil {
		l.err = err
	}
	return l.err
}

// rotateLocked seals the active segment (flushing, and fsyncing unless
// the policy never syncs) and starts a new one whose first record will
// be seq. SyncInterval must fsync here too: once the old file closes,
// the background flusher only ever sees the new one, and an unsynced
// sealed segment would widen the loss window past one interval.
func (l *Log) rotateLocked(seq uint64) error {
	if l.f != nil {
		if err := l.w.Flush(); err != nil {
			return l.fail(err)
		}
		if l.opts.Policy != SyncNever {
			if err := l.f.Sync(); err != nil {
				return l.fail(err)
			}
		}
		if err := l.f.Close(); err != nil {
			return l.fail(err)
		}
		l.f, l.w = nil, nil
	}
	path := filepath.Join(l.dir, segName(seq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return l.fail(err)
	}
	if l.opts.Policy == SyncAlways {
		if err := syncDir(l.dir); err != nil {
			f.Close()
			os.Remove(path)
			return l.fail(err)
		}
	}
	l.f, l.w, l.size = f, newWriteBuf(f), 0
	l.segs = append(l.segs, segment{path: path, first: seq})
	l.dirty = false
	return nil
}

// Commit makes every appended record as durable as the sync policy
// promises before an ack may be sent: under SyncAlways the buffer is
// flushed and fsynced here; under SyncNever it is written through to
// the OS; under SyncInterval Commit only surfaces sticky failures —
// the background flusher owns the write and fsync, and the policy's
// loss window covers acks younger than the last flush.
func (l *Log) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writeOutLocked(l.opts.Policy != SyncInterval, l.opts.Policy == SyncAlways)
}

// writeOutLocked surfaces a sticky failure, then — as asked — drains
// the write buffer into the OS and fsyncs the active segment.
func (l *Log) writeOutLocked(flush, sync bool) error {
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return ErrClosed
	}
	if l.f == nil || !flush {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return l.fail(err)
	}
	if sync {
		if err := l.f.Sync(); err != nil {
			return l.fail(err)
		}
		l.dirty = false
	}
	return nil
}

// flushLoop is the SyncInterval group-commit flusher. The fsync runs
// outside the log mutex so appends don't stall behind it: the flush
// under the lock moves every appended byte into the OS, and anything
// appended while the fsync is in flight re-marks the log dirty for the
// next tick. A segment rotation can close the file mid-fsync; that
// error is ignored when the file is no longer current, because the
// rotation path fsyncs the sealed segment itself before closing it.
func (l *Log) flushLoop() {
	defer close(l.flushDone)
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if l.err != nil || l.closed || l.f == nil || !l.dirty {
				l.mu.Unlock()
				continue
			}
			if err := l.w.Flush(); err != nil {
				l.fail(err)
				l.mu.Unlock()
				continue
			}
			f := l.f
			l.dirty = false
			l.mu.Unlock()
			if err := f.Sync(); err != nil {
				l.mu.Lock()
				if l.f == f && !l.closed {
					l.fail(err)
				}
				l.mu.Unlock()
			}
		}
	}
}

// Replay calls fn for every record with seq > after, in order; the
// payload is only valid during the call. The write buffer is flushed
// first so replay sees everything appended. Open already cut any torn
// tail away, so a tear found here is damage and fails the replay.
func (l *Log) Replay(after uint64, fn func(seq uint64, payload []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.writeOutLocked(true, false); err != nil {
		return err
	}
	for i, seg := range l.segs {
		// A segment whose successor starts at or before after+1 holds
		// only records <= after; skip it.
		if i+1 < len(l.segs) && l.segs[i+1].first <= after+1 {
			continue
		}
		_, err := walkSegment(seg.path, func(seq uint64, payload []byte) error {
			if seq <= after {
				return nil
			}
			return fn(seq, payload)
		})
		if isTear(err) {
			return fmt.Errorf("wal: %s: damaged frame mid-log: %w", filepath.Base(seg.path), err)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// TruncateThrough removes sealed segments that hold only records with
// seq <= through — called after a checkpoint makes that prefix
// redundant. The active segment is never removed.
func (l *Log) TruncateThrough(through uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	kept := l.segs[:0]
	for i, seg := range l.segs {
		sealed := i+1 < len(l.segs)
		if sealed && l.segs[i+1].first <= through+1 {
			if err := os.Remove(seg.path); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			continue
		}
		kept = append(kept, seg)
	}
	l.segs = kept
	return nil
}

// Close flushes, fsyncs (best-effort durability for a clean shutdown),
// and closes the log. Further calls return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	var err error
	if l.f != nil && l.err == nil {
		err = l.writeOutLocked(true, true)
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f, l.w = nil, nil
	}
	l.closed = true
	stop := l.stop
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-l.flushDone
	}
	return err
}

// WriteFileAtomic replaces the file at path with what write produces,
// so that a crash at any point leaves the old file or the new one and
// never a mix: the bytes go to a temp file in the same directory, which
// is fsynced, closed and renamed over path, and the directory is
// fsynced so the rename itself survives. Checkpoints and the serving
// layer's boot manifest are both written this way.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir, base := filepath.Dir(path), filepath.Base(path)
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "."+base+"-*")
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer os.Remove(tmp.Name())
	bw := bufio.NewWriterSize(tmp, 1<<16)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err == nil {
		err = syncDir(dir)
	}
	if err != nil {
		return fmt.Errorf("wal: writing %s: %w", base, err)
	}
	return nil
}

// syncDir fsyncs a directory so a rename/create within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
