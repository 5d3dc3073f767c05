package storage

import (
	"fmt"

	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/wire"
)

// Group commit: the write-side batching that lets a durable replica keep its
// execution pipeline ahead of the disk. The executor hands each executed
// record to AppendAsync, which queues it for the committer goroutine; the
// committer drains whatever has accumulated — one record under light load, a
// whole burst under heavy load — frames every record into a single buffered
// write, and issues ONE fsync (when Options.Sync is set) for the entire
// group. Each record's onDurable callback fires only after its group is on
// disk, which is what lets the replica release client replies without ever
// answering from volatile state (PR 2's invariant) while amortizing the
// per-record sync that used to serialize fsync'd runs.
//
// Ordering: records are committed in queue order, which the executor
// guarantees is execution (sequence) order. Every synchronous Store
// operation that observes or mutates the log — Append, Truncate,
// WriteSnapshot, Close — drains the queue first (Flush), so group commit is
// invisible to the rotation and rollback machinery.

// queuedRec is one record awaiting group commit.
type queuedRec struct {
	rec *types.ExecRecord
	cb  func(error)
}

// startCommitter arms the group-commit queue; called by Open.
func (s *Store) startCommitter() {
	s.gqDone = make(chan struct{})
	go s.commitLoop()
}

// AppendAsync queues one executed record for group commit. onDurable
// (optional) is invoked on the committer goroutine once the record's group
// has been written — and synced, when the store is in Sync mode — or with
// the error that prevented it. Records must be queued in execution order;
// an out-of-order record fails its whole group.
func (s *Store) AppendAsync(rec *types.ExecRecord, onDurable func(error)) {
	s.gqMu.Lock()
	if s.gqStop {
		s.gqMu.Unlock()
		if onDurable != nil {
			onDurable(fmt.Errorf("storage: append on closed store"))
		}
		return
	}
	s.gq = append(s.gq, queuedRec{rec: rec, cb: onDurable})
	s.gqCond.Signal()
	s.gqMu.Unlock()
}

// Flush blocks until every queued record has been committed (callbacks
// included) and returns the first group-commit error, if any. The error is
// sticky: a store that failed to persist must not quietly resume.
func (s *Store) Flush() error {
	s.gqMu.Lock()
	defer s.gqMu.Unlock()
	for len(s.gq) > 0 || s.gqBusy {
		s.gqCond.Wait()
	}
	return s.gqErr
}

// GroupStats reports how many commit groups have been written and how many
// records they carried; records/groups is the mean group size the harness
// surfaces.
func (s *Store) GroupStats() (groups, records int64) {
	return s.groups.Load(), s.grouped.Load()
}

// commitLoop is the committer goroutine: drain, write, sync, acknowledge.
func (s *Store) commitLoop() {
	defer close(s.gqDone)
	for {
		s.gqMu.Lock()
		for len(s.gq) == 0 && !s.gqStop {
			s.gqCond.Wait()
		}
		if len(s.gq) == 0 {
			s.gqMu.Unlock()
			return
		}
		batch := s.gq
		s.gq = nil
		s.gqBusy = true
		hold := s.gqHold
		s.gqMu.Unlock()

		if hold != nil {
			// Test hook: simulate the window between execute and group-sync.
			<-hold
		}
		err := s.writeGroup(batch)
		// Acknowledge before clearing gqBusy so Flush returns only after
		// every callback of the drained batch has run.
		for _, q := range batch {
			if q.cb != nil {
				q.cb(err)
			}
		}

		s.gqMu.Lock()
		s.gqBusy = false
		if err != nil && s.gqErr == nil {
			s.gqErr = err
		}
		s.gqCond.Broadcast()
		s.gqMu.Unlock()
	}
}

// writeGroup frames the batch into one pooled buffer, appends it with a
// single write (and at most one fsync), and advances the log index. The
// frames are built off the store lock — the committer is the only encoder —
// so queueing executors never wait behind serialization, and the pooled
// buffer means a steady-state group commit allocates only its offset
// bookkeeping, never a fresh encode buffer per record (the allocation
// benchmark in group_test.go pins this down).
func (s *Store) writeGroup(batch []queuedRec) error {
	buf := wire.GetBuf()
	defer func() { wire.PutBuf(buf) }()
	offs := make([]int64, len(batch))
	for i, q := range batch {
		offs[i] = int64(len(buf))
		buf = appendFramedRecord(buf, q.rec)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("storage: group append on closed store")
	}
	next := s.next
	for _, q := range batch {
		if q.rec.Seq != next {
			return fmt.Errorf("storage: group append out of order: want seq %d, got %d", next, q.rec.Seq)
		}
		next++
	}
	if _, err := s.wal.Write(buf); err != nil {
		return fmt.Errorf("storage: group append: %w", err)
	}
	if s.opts.Sync {
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("storage: group sync: %w", err)
		}
	}
	for i, q := range batch {
		s.index = append(s.index, walEntry{seq: q.rec.Seq, off: s.walSize + offs[i]})
	}
	s.walSize += int64(len(buf))
	s.next = next
	s.groups.Add(1)
	s.grouped.Add(int64(len(batch)))
	return nil
}

// stopCommitter signals the committer to exit once the queue is empty and
// waits for it; called by Close after Flush.
func (s *Store) stopCommitter() {
	s.gqMu.Lock()
	if s.gqStop {
		s.gqMu.Unlock()
		<-s.gqDone
		return
	}
	s.gqStop = true
	s.gqCond.Broadcast()
	s.gqMu.Unlock()
	<-s.gqDone
}
