package storage

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/poexec/poe/internal/types"
)

func groupRec(seq types.SeqNum) *types.ExecRecord {
	return &types.ExecRecord{Seq: seq, Batch: types.Batch{Requests: []types.Request{
		{Txn: types.Transaction{Client: types.ClientIDBase, Seq: uint64(seq)}},
	}}}
}

// TestGroupCommitBatchesRecords: a burst of async appends lands in fewer
// groups than records, in order, and Flush makes them all durable.
func TestGroupCommitBatchesRecords(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	// Stall the committer so the whole burst accumulates into one group.
	hold := make(chan struct{})
	st.gqMu.Lock()
	st.gqHold = hold
	st.gqMu.Unlock()

	const n = 16
	var acked atomic.Int64
	for seq := types.SeqNum(1); seq <= n; seq++ {
		st.AppendAsync(groupRec(seq), func(err error) {
			if err != nil {
				t.Errorf("append: %v", err)
			}
			acked.Add(1)
		})
	}
	st.gqMu.Lock()
	st.gqHold = nil
	st.gqMu.Unlock()
	close(hold)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := acked.Load(); got != n {
		t.Fatalf("acked %d records, want %d", got, n)
	}
	groups, recs := st.GroupStats()
	if recs != n {
		t.Fatalf("grouped %d records, want %d", recs, n)
	}
	if groups >= n {
		t.Fatalf("wrote %d groups for %d records: no batching happened", groups, n)
	}
	if st.LastSeq() != n {
		t.Fatalf("LastSeq = %d, want %d", st.LastSeq(), n)
	}
	st.Close()

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Recovered().LastSeq != n {
		t.Fatalf("recovered LastSeq = %d, want %d", st2.Recovered().LastSeq, n)
	}
}

// TestGroupCommitCrashLosesUnackedTail pins the crash-consistency contract:
// records queued but not yet group-committed are lost by a crash — and that
// is fine, because their durability callbacks never fired, so the replica
// never answered the clients. Records acknowledged before the crash are
// recovered in full.
func TestGroupCommitCrashLosesUnackedTail(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: two records committed and acknowledged.
	for seq := types.SeqNum(1); seq <= 2; seq++ {
		st.AppendAsync(groupRec(seq), nil)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: stall the committer — the crash window between execute and
	// group-sync — and queue three more records. Their callbacks must not
	// fire while the group is un-synced.
	hold := make(chan struct{})
	st.gqMu.Lock()
	st.gqHold = hold
	st.gqMu.Unlock()
	var acked atomic.Int64
	for seq := types.SeqNum(3); seq <= 5; seq++ {
		st.AppendAsync(groupRec(seq), func(error) { acked.Add(1) })
	}
	time.Sleep(20 * time.Millisecond)
	if got := acked.Load(); got != 0 {
		t.Fatalf("%d records acknowledged before their group was written", got)
	}

	// Crash: recover the directory as a fresh process would, with the tail
	// still trapped in the queue. Only the acknowledged prefix survives.
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Recovered().LastSeq; got != 2 {
		t.Fatalf("recovered LastSeq = %d, want 2 (the acknowledged prefix)", got)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	// Release the stalled committer so the first store shuts down cleanly;
	// the test's point — unacked tail lost, acked prefix kept — is already
	// made.
	st.gqMu.Lock()
	st.gqHold = nil
	st.gqMu.Unlock()
	close(hold)
	st.Close()
}

// TestGroupCommitTruncateDrainsQueue: a rollback truncation drains queued
// appends first, so the cut is total — nothing queued can land after it.
func TestGroupCommitTruncateDrainsQueue(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for seq := types.SeqNum(1); seq <= 6; seq++ {
		st.AppendAsync(groupRec(seq), nil)
	}
	if err := st.Truncate(3); err != nil {
		t.Fatal(err)
	}
	if st.LastSeq() != 3 {
		t.Fatalf("LastSeq = %d after truncate, want 3", st.LastSeq())
	}
	// Appends continue past the cut.
	st.AppendAsync(groupRec(4), nil)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if st.LastSeq() != 4 {
		t.Fatalf("LastSeq = %d, want 4", st.LastSeq())
	}
}

// TestGroupCommitAllocs guards the pooled encode path: once the buffer pool
// is warm, appending a record must not allocate a fresh encode buffer per
// record. The bound is deliberately loose (map/index bookkeeping varies).
func TestGroupCommitAllocs(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	seq := types.SeqNum(0)
	// Warm the pool and the file.
	for i := 0; i < 8; i++ {
		seq++
		r := testRecord(seq)
		if err := s.Append(&r); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		seq++
		r := testRecord(seq)
		r.Batch.MemoizeDigests()
		if err := s.Append(&r); err != nil {
			t.Fatal(err)
		}
	})
	// testRecord itself allocates (batch, request, digest memo); the append
	// path on top of it must stay within a handful of allocations — no
	// per-record encode buffer.
	if avg > 25 {
		t.Fatalf("Append allocates %.1f objects per record; encode buffers are not pooled", avg)
	}
}

// BenchmarkGroupCommitEncode measures the framed-append path the committer
// runs per group: with pooled buffers and the in-place wire encoder it
// reports zero allocations per record at steady state.
func BenchmarkGroupCommitEncode(b *testing.B) {
	rec := testRecord(1)
	rec.Batch.MemoizeDigests()
	buf := appendFramedRecord(nil, &rec)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendFramedRecord(buf[:0], &rec)
	}
}
