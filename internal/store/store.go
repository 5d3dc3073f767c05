// Package store implements the deterministic execution substrate the
// protocols order transactions for: a key-value table (the paper's YCSB
// table, §IV) with an undo log that supports the safe rollbacks PoE's
// speculative execution requires (ingredient I2).
//
// All mutating operations are deterministic: on identical inputs applied in
// identical order, every replica produces identical results and identical
// state digests (the paper's non-faulty replica determinism assumption,
// §II-A). Determinism is also what makes crash recovery exact: replaying
// the same batches against a table restored from a checkpoint snapshot
// (SnapshotAt/Restore) reproduces the pre-crash state digest bit for bit.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"

	"github.com/poexec/poe/internal/types"
)

// KV is a deterministic key-value store with sequence-number-granular undo.
//
// Apply executes a batch at a sequence number and records undo information;
// Rollback reverts every batch applied after a given sequence number;
// Checkpoint discards undo information up to a stable sequence number.
//
// KV is safe for concurrent use. The state digest is maintained
// incrementally as an XOR of per-entry hashes (a set-homomorphic hash), so
// checkpoint digests are O(1) regardless of table size; this substitutes for
// hashing a full state snapshot and preserves the property that equal states
// have equal digests.
type KV struct {
	mu    sync.RWMutex
	data  map[string][]byte
	marks []seqMark
	undo  []undoEntry
	last  types.SeqNum // highest applied sequence number; 0 = none (seq starts at 1)
	state [32]byte     // incremental state digest

	// zeroWork is the per-operation dummy work for zero-payload execution.
	zeroWork int
}

type undoEntry struct {
	key     string
	prev    []byte
	existed bool
}

type seqMark struct {
	seq   types.SeqNum
	start int // index into undo of this batch's first entry
}

// ZeroWork is the per-operation dummy-instruction count of zero-payload and
// no-op execution. The internal/exec measurement reference replicates exactly
// this amount of work per operation so its timed cost matches Apply's.
const ZeroWork = 64

// New creates an empty store.
func New() *KV {
	return &KV{data: make(map[string][]byte), zeroWork: ZeroWork}
}

// Load bulk-loads initial records without recording undo information or
// advancing the applied sequence number. Used to pre-populate the YCSB table
// identically on every replica before the experiment starts.
func (kv *KV) Load(records map[string][]byte) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	for k, v := range records {
		old, existed := kv.data[k]
		kv.state = xorDigest(kv.state, entryHash(k, old, existed))
		val := append([]byte(nil), v...)
		kv.data[k] = val
		kv.state = xorDigest(kv.state, entryHash(k, val, true))
	}
}

// Len returns the number of keys.
func (kv *KV) Len() int {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return len(kv.data)
}

// Get reads a key outside any transaction (for tests and tooling).
func (kv *KV) Get(key string) ([]byte, bool) {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	v, ok := kv.data[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// LastApplied returns the highest applied sequence number (0 if none).
func (kv *KV) LastApplied() types.SeqNum {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return kv.last
}

// ErrOutOfOrder is returned when a batch is applied at a sequence number that
// is not exactly LastApplied()+1.
type ErrOutOfOrder struct {
	Want, Got types.SeqNum
}

func (e *ErrOutOfOrder) Error() string {
	return fmt.Sprintf("store: apply out of order: want seq %d, got %d", e.Want, e.Got)
}

// Apply executes batch as the seq-th batch. Sequence numbers start at 1 and
// must be applied consecutively; replicas enforce ordered execution before
// calling Apply (Fig 3, Line 20 of the paper).
func (kv *KV) Apply(seq types.SeqNum, batch *types.Batch) ([]types.Result, error) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if seq != kv.last+1 {
		return nil, &ErrOutOfOrder{Want: kv.last + 1, Got: seq}
	}
	kv.marks = append(kv.marks, seqMark{seq: seq, start: len(kv.undo)})
	kv.last = seq

	if batch.ZeroPayload {
		// The paper's zero-payload mode: execute dummy instructions, touch
		// no state. Results are still produced so clients receive INFORMs.
		var scratch [8]byte
		for i := 0; i < batch.ZeroCount; i++ {
			for j := 0; j < kv.zeroWork; j++ {
				binary.BigEndian.PutUint64(scratch[:], uint64(i)^uint64(j))
			}
		}
		_ = scratch
		results := make([]types.Result, len(batch.Requests))
		for i := range batch.Requests {
			results[i] = types.Result{Client: batch.Requests[i].Txn.Client, Seq: batch.Requests[i].Txn.Seq}
		}
		return results, nil
	}

	results := make([]types.Result, len(batch.Requests))
	for i := range batch.Requests {
		txn := &batch.Requests[i].Txn
		res := types.Result{Client: txn.Client, Seq: txn.Seq}
		for _, op := range txn.Ops {
			switch op.Kind {
			case types.OpRead:
				v, ok := kv.data[op.Key]
				if ok {
					res.Values = append(res.Values, append([]byte(nil), v...))
				} else {
					res.Values = append(res.Values, nil)
				}
			case types.OpWrite:
				old, existed := kv.data[op.Key]
				kv.undo = append(kv.undo, undoEntry{key: op.Key, prev: old, existed: existed})
				kv.state = xorDigest(kv.state, entryHash(op.Key, old, existed))
				val := append([]byte(nil), op.Value...)
				kv.data[op.Key] = val
				kv.state = xorDigest(kv.state, entryHash(op.Key, val, true))
				res.Values = append(res.Values, nil)
			case types.OpNoop:
				var scratch [8]byte
				for j := 0; j < kv.zeroWork; j++ {
					binary.BigEndian.PutUint64(scratch[:], uint64(j))
				}
				res.Values = append(res.Values, nil)
			}
		}
		results[i] = res
	}
	return results, nil
}

// Rollback reverts every batch applied with sequence number greater than
// toSeq. It is the paper's "rollback any executed transactions not in
// NV-PROPOSE" (Fig 5, Line 14). Rolling back below the last checkpoint is an
// error: undo information before a checkpoint has been discarded.
func (kv *KV) Rollback(toSeq types.SeqNum) error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if toSeq >= kv.last {
		return nil
	}
	// Find the first mark with seq > toSeq.
	idx := len(kv.marks)
	for i, m := range kv.marks {
		if m.seq > toSeq {
			idx = i
			break
		}
	}
	if idx == len(kv.marks) {
		// kv.last > toSeq but no retained mark exceeds toSeq: the undo
		// information was discarded by a checkpoint.
		return fmt.Errorf("store: cannot rollback to seq %d: undo log truncated by checkpoint", toSeq)
	}
	if kv.marks[idx].seq != toSeq+1 {
		// A checkpoint discarded the batches immediately above toSeq; the
		// retained suffix is not contiguous with toSeq.
		return fmt.Errorf("store: cannot rollback to seq %d: oldest undo mark is seq %d", toSeq, kv.marks[idx].seq)
	}
	cut := len(kv.undo)
	if idx < len(kv.marks) {
		cut = kv.marks[idx].start
	}
	for i := len(kv.undo) - 1; i >= cut; i-- {
		e := kv.undo[i]
		cur, curExisted := kv.data[e.key]
		kv.state = xorDigest(kv.state, entryHash(e.key, cur, curExisted))
		if e.existed {
			kv.data[e.key] = e.prev
			kv.state = xorDigest(kv.state, entryHash(e.key, e.prev, true))
		} else {
			delete(kv.data, e.key)
		}
	}
	kv.undo = kv.undo[:cut]
	kv.marks = kv.marks[:idx]
	kv.last = toSeq
	return nil
}

// Checkpoint declares every batch up to and including seq stable and
// discards their undo information (the paper's periodic checkpoint protocol,
// §II-D). After Checkpoint(seq), Rollback below seq fails.
func (kv *KV) Checkpoint(seq types.SeqNum) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	idx := len(kv.marks)
	for i, m := range kv.marks {
		if m.seq > seq {
			idx = i
			break
		}
	}
	if idx == 0 {
		return
	}
	cut := len(kv.undo)
	if idx < len(kv.marks) {
		cut = kv.marks[idx].start
	}
	kv.undo = append([]undoEntry(nil), kv.undo[cut:]...)
	kv.marks = append([]seqMark(nil), kv.marks[idx:]...)
	for i := range kv.marks {
		kv.marks[i].start -= cut
	}
}

// SnapshotAt returns a copy of the table exactly as of seq: writes from
// batches applied above seq are rewound through the undo log, without
// touching the live state. It powers durable checkpoint snapshots — the
// store may already have executed speculatively past the stable checkpoint,
// and persisting that speculative suffix would let a crash resurrect state
// the cluster later rolled back. Call it before Checkpoint(seq) discards the
// undo entries it needs.
func (kv *KV) SnapshotAt(seq types.SeqNum) (map[string][]byte, error) {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	if seq > kv.last {
		return nil, fmt.Errorf("store: snapshot at seq %d beyond last applied %d", seq, kv.last)
	}
	data := make(map[string][]byte, len(kv.data))
	for k, v := range kv.data {
		data[k] = append([]byte(nil), v...)
	}
	if seq == kv.last {
		return data, nil
	}
	idx := len(kv.marks)
	for i, m := range kv.marks {
		if m.seq > seq {
			idx = i
			break
		}
	}
	if idx == len(kv.marks) || kv.marks[idx].seq != seq+1 {
		return nil, fmt.Errorf("store: cannot snapshot at seq %d: undo log truncated by checkpoint", seq)
	}
	for i := len(kv.undo) - 1; i >= kv.marks[idx].start; i-- {
		e := kv.undo[i]
		if e.existed {
			data[e.key] = append([]byte(nil), e.prev...)
		} else {
			delete(data, e.key)
		}
	}
	return data, nil
}

// Restore replaces the store's contents with a snapshot taken by SnapshotAt:
// the table is loaded, the applied sequence number is set to seq, and the
// incremental state digest is recomputed, so a restored replica reports the
// same StateDigest the snapshotting replica did at seq. The undo log starts
// empty — everything at or below a durable snapshot is stable by definition.
func (kv *KV) Restore(records map[string][]byte, seq types.SeqNum) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.data = make(map[string][]byte, len(records))
	kv.state = [32]byte{}
	for k, v := range records {
		val := append([]byte(nil), v...)
		kv.data[k] = val
		kv.state = xorDigest(kv.state, entryHash(k, val, true))
	}
	kv.undo = nil
	kv.marks = nil
	kv.last = seq
}

// --- prepared-install support (internal/exec) ---
//
// The internal/exec engine, which only the bench command runs, computes a
// batch's effects — read results, write effects with their preimages, and
// the net state-digest delta — on a worker pool against a frozen view of the
// table, then installs them here in sequence order. InstallPrepared must
// leave the store bit-identical to an Apply of the same batch: same data,
// same undo entries in the same order, same incremental digest, so Rollback
// and SnapshotAt work unchanged over prepared-installed history.

// WriteEffect is one write precomputed by the parallel execution engine:
// the value to install (an owned copy, exactly as Apply would have made) and
// the value it overwrites (the undo preimage, shared — values are immutable
// once installed).
type WriteEffect struct {
	Key         string
	Val         []byte
	Prev        []byte
	PrevExisted bool
}

// EntryDelta returns the incremental state-digest contribution of
// overwriting key's previous value with val — the XOR Apply folds into the
// running digest per write. Engine workers call it in parallel; XOR is
// commutative and associative, so per-write deltas combine into a batch
// delta in any order.
func EntryDelta(key string, prev []byte, prevExisted bool, val []byte) [32]byte {
	return xorDigest(entryHash(key, prev, prevExisted), entryHash(key, val, true))
}

// Preimage returns the live value of key without copying. Callers (engine
// workers) must treat the returned slice as immutable; installed values are
// never mutated in place, so the reference stays valid across installs.
func (kv *KV) Preimage(key string) ([]byte, bool) {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	v, ok := kv.data[key]
	return v, ok
}

// InstallPrepared applies one batch's precomputed write effects as the
// seq-th batch. writes must be in the batch's serial operation order with
// preimages as of serial execution, and delta their combined digest
// contribution; the engine guarantees both. Like Apply, sequence numbers
// must be installed consecutively.
func (kv *KV) InstallPrepared(seq types.SeqNum, writes []WriteEffect, delta [32]byte) error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if seq != kv.last+1 {
		return &ErrOutOfOrder{Want: kv.last + 1, Got: seq}
	}
	kv.marks = append(kv.marks, seqMark{seq: seq, start: len(kv.undo)})
	kv.last = seq
	for i := range writes {
		w := &writes[i]
		kv.undo = append(kv.undo, undoEntry{key: w.Key, prev: w.Prev, existed: w.PrevExisted})
		kv.data[w.Key] = w.Val
	}
	kv.state = xorDigest(kv.state, delta)
	return nil
}

// DigestOf computes the state digest a replica would report after restoring
// the given table at seq, without touching any live store. State-transfer
// fetchers use it to check a received snapshot against checkpoint-certificate
// digests before installing it.
func DigestOf(records map[string][]byte, seq types.SeqNum) types.Digest {
	var state [32]byte
	for k, v := range records {
		state = xorDigest(state, entryHash(k, v, true))
	}
	var buf [40]byte
	copy(buf[:32], state[:])
	binary.BigEndian.PutUint64(buf[32:], uint64(seq))
	return sha256.Sum256(buf[:])
}

// UndoLen returns the number of pending undo entries (for the checkpoint
// ablation benchmark).
func (kv *KV) UndoLen() int {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return len(kv.undo)
}

// StateDigest returns the incremental digest of the current table state
// combined with the last applied sequence number. Two replicas with equal
// digests have applied the same writes.
func (kv *KV) StateDigest() types.Digest {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	var buf [40]byte
	copy(buf[:32], kv.state[:])
	binary.BigEndian.PutUint64(buf[32:], uint64(kv.last))
	return sha256.Sum256(buf[:])
}

func entryHash(key string, val []byte, existed bool) [32]byte {
	if !existed {
		return [32]byte{} // absent entries contribute nothing
	}
	h := sha256.New()
	var lenBuf [8]byte
	binary.BigEndian.PutUint64(lenBuf[:], uint64(len(key)))
	h.Write(lenBuf[:])
	h.Write([]byte(key))
	h.Write(val)
	var d [32]byte
	h.Sum(d[:0])
	return d
}

func xorDigest(a, b [32]byte) [32]byte {
	var out [32]byte
	for i := range a {
		out[i] = a[i] ^ b[i]
	}
	return out
}
