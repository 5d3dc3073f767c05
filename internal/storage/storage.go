// Package storage is the durability subsystem of a replica: a
// length-prefixed, CRC-checked append-only write-ahead log of executed
// batches plus checkpoint snapshots of the executed state, with log
// truncation at snapshot time.
//
// The in-memory execution substrate (store.KV, ledger.Chain, the executor's
// undo log) reproduces the paper's protocol faithfully but evaporates at
// process exit, so a crashed replica could never rejoin — exactly the
// failure class §II-D's checkpoints exist to bound. This package makes the
// executed prefix durable:
//
//   - Every executed batch is appended to the WAL (as its types.ExecRecord,
//     certificate included) before the replica answers clients, so the
//     replied-to prefix always survives a crash. Appends flow through a
//     group-commit queue (group.go): a burst of in-order executed batches is
//     framed into one buffered write and one fsync, and each record's
//     durability callback — which is what releases the batch's client
//     replies — fires only after its group is on disk.
//   - When a checkpoint becomes stable, the replica writes a Snapshot — the
//     key-value table, the ledger head, the client-dedup history, all as of
//     the checkpoint sequence number — and rotates the WAL, carrying the
//     still-speculative suffix into the fresh log. Snapshots are written
//     atomically (temp file + rename) and the previous snapshot generation
//     is retained until the next one lands, so a crash at any byte of the
//     rotation leaves a recoverable directory.
//   - Open replays snapshot + WAL back into memory. A torn final WAL record
//     (the append the process died inside) is tolerated and truncated; any
//     other damage fails the CRC and surfaces as ErrCorrupt rather than as
//     silently divergent state.
//
// Speculative rollback (a view change discarding an executed suffix,
// ingredient I2 of the paper) maps onto Truncate: the WAL is physically cut
// back to the rollback point, keeping disk and memory in lockstep. Rolling
// back below a stable checkpoint is impossible, so a snapshot is never
// invalidated.
//
// Recovery ends at the replica's last durable sequence number; the gap to
// the live cluster is closed by the protocols' existing Fetch state
// transfer, which needs no extra trust: replayed records carry the same
// certificates a fetched record does.
package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/wire"
)

// Options tune a Store.
type Options struct {
	// Sync fsyncs the WAL after every commit group and snapshot rotation.
	// Without it durability is bounded by the OS page cache (process crashes
	// are still fully recoverable; machine crashes may lose the cached
	// suffix).
	Sync bool
}

// Recovered is the state Open rebuilt from disk.
type Recovered struct {
	// Snapshot is the newest valid checkpoint snapshot, nil if none.
	Snapshot *Snapshot
	// Records are the WAL records above the snapshot, contiguous and in
	// sequence order, ready to be re-executed.
	Records []types.ExecRecord
	// LastSeq is the last durable sequence number: the snapshot's if the
	// WAL is empty, the last WAL record's otherwise, 0 for a fresh dir.
	LastSeq types.SeqNum
}

// Store manages one replica's data directory: the active WAL, the snapshot
// generations, and the recovered state from the last Open. It is safe for
// concurrent use, though the executor serializes calls in practice.
type Store struct {
	mu        sync.Mutex
	dir       string
	opts      Options
	wal       *os.File
	walPath   string
	base      types.SeqNum // snapshot generation the active WAL belongs to
	next      types.SeqNum // sequence number the next append must carry
	index     []walEntry   // offsets of records in the active WAL, in order
	walSize   int64
	recovered Recovered
	closed    bool

	// Group-commit queue (see group.go). gqMu guards the queue state; the
	// committer goroutine takes s.mu only inside writeGroup, so queueing
	// never blocks behind file I/O.
	gqMu   sync.Mutex
	gqCond *sync.Cond
	gq     []queuedRec
	gqBusy bool
	gqStop bool
	gqErr  error
	gqDone chan struct{}
	// gqHold, when set by a test, stalls the committer before each group
	// write — the "crash between execute and group-sync" window.
	gqHold chan struct{}

	groups  atomic.Int64
	grouped atomic.Int64
}

func walName(base types.SeqNum) string { return fmt.Sprintf("wal-%016x.log", uint64(base)) }
func snapName(seq types.SeqNum) string { return fmt.Sprintf("snap-%016x.ckpt", uint64(seq)) }

func parseGen(name, prefix, suffix string) (types.SeqNum, bool) {
	var v uint64
	if _, err := fmt.Sscanf(name, prefix+"%016x"+suffix, &v); err != nil {
		return 0, false
	}
	return types.SeqNum(v), true
}

// Open opens (or initializes) a replica data directory and recovers its
// durable state: the newest valid snapshot plus the contiguous WAL suffix
// above it. A torn final WAL record is truncated away; mid-log corruption
// returns an error wrapping ErrCorrupt. The returned Store is ready for
// appends continuing at Recovered().LastSeq+1.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var snapSeqs, walBases []types.SeqNum
	for _, e := range entries {
		if seq, ok := parseGen(e.Name(), "snap-", ".ckpt"); ok {
			snapSeqs = append(snapSeqs, seq)
		}
		if base, ok := parseGen(e.Name(), "wal-", ".log"); ok {
			walBases = append(walBases, base)
		}
	}
	sort.Slice(snapSeqs, func(i, j int) bool { return snapSeqs[i] > snapSeqs[j] })
	sort.Slice(walBases, func(i, j int) bool { return walBases[i] > walBases[j] })

	s := &Store{dir: dir, opts: opts}

	// Newest valid snapshot wins; an unreadable newer one falls back to the
	// retained previous generation (recovering a shorter — but still
	// correct — durable prefix; Fetch closes the rest of the gap).
	var snapErr error
	for _, seq := range snapSeqs {
		snap, err := readSnapshotFile(filepath.Join(dir, snapName(seq)))
		if err != nil {
			snapErr = err
			continue
		}
		s.recovered.Snapshot = snap
		break
	}
	if s.recovered.Snapshot == nil && len(snapSeqs) > 0 {
		return nil, snapErr
	}
	snapSeq := types.SeqNum(0)
	if s.recovered.Snapshot != nil {
		snapSeq = s.recovered.Snapshot.Seq
	}

	// The active WAL is the one with the largest base not above the chosen
	// snapshot. A crash between snapshot write and WAL rotation leaves the
	// previous generation's WAL active; its records at or below the
	// snapshot are simply skipped during replay.
	s.base = snapSeq
	s.next = snapSeq + 1
	s.walPath = filepath.Join(dir, walName(snapSeq))
	for _, b := range walBases {
		if b > snapSeq {
			continue
		}
		path := filepath.Join(dir, walName(b))
		recs, good, err := readWAL(path)
		if err != nil {
			return nil, err
		}
		// Truncate the torn tail (if any) so the reopened log ends at the
		// last complete record.
		if info, err := os.Stat(path); err == nil && info.Size() > good {
			if err := os.Truncate(path, good); err != nil {
				return nil, err
			}
		}
		for _, r := range recs {
			if r.rec.Seq <= snapSeq {
				continue
			}
			// An append-ordered log can only violate contiguity through
			// damage the CRC did not catch; refuse to replay past it.
			if r.rec.Seq != s.next {
				return nil, fmt.Errorf("%w: %s: record seq %d, want %d", ErrCorrupt, path, r.rec.Seq, s.next)
			}
			s.recovered.Records = append(s.recovered.Records, r.rec)
			s.next = r.rec.Seq + 1
		}
		s.walPath = path
		s.base = b
		s.walSize = good
		for _, r := range recs {
			s.index = append(s.index, walEntry{seq: r.rec.Seq, off: r.off})
		}
		break
	}
	s.recovered.LastSeq = s.next - 1

	f, err := os.OpenFile(s.walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	// Persist the (possibly just-created) WAL's directory entry, so appends
	// acknowledged after this Open cannot vanish with an unsynced name.
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	s.wal = f
	s.gqCond = sync.NewCond(&s.gqMu)
	s.startCommitter()
	return s, nil
}

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// Recovered returns the state rebuilt by Open. The caller replays it into
// the executor before attaching the store for new appends.
func (s *Store) Recovered() *Recovered {
	return &s.recovered
}

// Append logs one executed batch synchronously. Records must arrive in
// execution order (contiguous sequence numbers). Durable replicas use
// AppendAsync (group commit) instead; Append remains for recovery tooling
// and tests, and drains any queued group first so the two can be mixed.
func (s *Store) Append(rec *types.ExecRecord) error {
	if err := s.Flush(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("storage: append on closed store")
	}
	if rec.Seq != s.next {
		return fmt.Errorf("storage: append out of order: want seq %d, got %d", s.next, rec.Seq)
	}
	frame := appendFramedRecord(wire.GetBuf(), rec)
	_, err := s.wal.Write(frame)
	if err == nil && s.opts.Sync {
		err = s.wal.Sync()
	}
	if err != nil {
		wire.PutBuf(frame)
		return fmt.Errorf("storage: append seq %d: %w", rec.Seq, err)
	}
	s.index = append(s.index, walEntry{seq: rec.Seq, off: s.walSize})
	s.walSize += int64(len(frame))
	s.next = rec.Seq + 1
	wire.PutBuf(frame)
	return nil
}

// LastSeq returns the last durable sequence number. Records still queued for
// group commit are not durable and are not counted.
func (s *Store) LastSeq() types.SeqNum {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next - 1
}

// Truncate discards every logged record with sequence number above toSeq,
// mirroring a speculative-execution rollback so the disk never resurrects a
// suffix the protocol abandoned. Truncating below the active WAL's base is
// an error: that prefix is frozen by a stable checkpoint.
func (s *Store) Truncate(toSeq types.SeqNum) error {
	// Drain the commit queue first: queued records above the cut would
	// otherwise be written after the truncation and resurrect the abandoned
	// suffix.
	if err := s.Flush(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("storage: truncate on closed store")
	}
	if toSeq >= s.next-1 {
		return nil
	}
	if toSeq < s.base {
		return fmt.Errorf("storage: cannot truncate to seq %d below WAL base %d", toSeq, s.base)
	}
	cut := s.walSize
	keep := len(s.index)
	for i, e := range s.index {
		if e.seq > toSeq {
			cut, keep = e.off, i
			break
		}
	}
	if err := s.wal.Truncate(cut); err != nil {
		return err
	}
	s.index = s.index[:keep]
	s.walSize = cut
	s.next = toSeq + 1
	return nil
}

// WriteSnapshot persists the stable-checkpoint snapshot and rotates the WAL:
// the new log is seeded with tail (the executed records above the snapshot,
// in order), written aside and renamed into place so a crash at any point
// leaves either the old generation or the complete new one. The previous
// snapshot generation is retained as a fallback; older generations are
// removed.
func (s *Store) WriteSnapshot(snap *Snapshot, tail []types.ExecRecord) error {
	// Drain the commit queue first: the rotation must not interleave with
	// group appends, and the tail passed in covers everything queued.
	if err := s.Flush(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("storage: snapshot on closed store")
	}
	if snap.Seq < s.base {
		return fmt.Errorf("storage: snapshot seq %d below WAL base %d", snap.Seq, s.base)
	}
	if err := writeSnapshotFile(filepath.Join(s.dir, snapName(snap.Seq)), snap); err != nil {
		return err
	}
	// Build the successor WAL aside, then rename: until the rename lands,
	// recovery uses the old WAL (whose records span the tail and more).
	newPath := filepath.Join(s.dir, walName(snap.Seq))
	var index []walEntry
	var size int64
	err := writeFileAtomic(newPath, func(w io.Writer) error {
		// Frame the whole tail into one pooled buffer and issue one write.
		buf := wire.GetBuf()
		defer func() { wire.PutBuf(buf) }()
		next := snap.Seq + 1
		for i := range tail {
			rec := &tail[i]
			if rec.Seq <= snap.Seq {
				continue
			}
			if rec.Seq != next {
				return fmt.Errorf("storage: snapshot tail out of order: want seq %d, got %d", next, rec.Seq)
			}
			index = append(index, walEntry{seq: rec.Seq, off: int64(len(buf))})
			buf = appendFramedRecord(buf, rec)
			next++
		}
		size = int64(len(buf))
		_, err := w.Write(buf)
		return err
	})
	if err != nil {
		return err
	}
	// Make the two renames themselves durable before retiring the previous
	// generation; rotation is per-checkpoint, so the directory fsync is off
	// the append hot path.
	if err := syncDir(s.dir); err != nil {
		return err
	}
	f, err := os.OpenFile(newPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	oldBase := s.base
	s.wal.Close()
	s.wal = f
	s.walPath = newPath
	s.base = snap.Seq
	s.index = index
	s.walSize = size
	// For a locally-taken checkpoint the tail ends where the executor is and
	// s.next is already right. Installing a transferred snapshot jumps the
	// executor forward past everything the WAL ever held, so the next
	// expected sequence number must jump with it.
	if s.next < snap.Seq+1 {
		s.next = snap.Seq + 1
	}
	s.dropStaleLocked(oldBase)
	return nil
}

// dropStaleLocked removes generations older than the retained fallback: the
// previous snapshot (prevBase) and its WAL stay; everything before goes.
func (s *Store) dropStaleLocked(prevBase types.SeqNum) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if seq, ok := parseGen(e.Name(), "snap-", ".ckpt"); ok && seq < prevBase {
			os.Remove(filepath.Join(s.dir, e.Name()))
		}
		if base, ok := parseGen(e.Name(), "wal-", ".log"); ok && base < prevBase {
			os.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
}

// Close drains the commit queue, stops the committer, and releases the WAL
// file handle. The directory remains recoverable.
func (s *Store) Close() error {
	flushErr := s.Flush()
	s.stopCommitter()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return flushErr
	}
	s.closed = true
	if err := s.wal.Close(); err != nil {
		return err
	}
	return flushErr
}
