package protocol

import (
	"fmt"
	"sort"
	"sync"

	"github.com/poexec/poe/internal/ledger"
	"github.com/poexec/poe/internal/storage"
	"github.com/poexec/poe/internal/store"
	"github.com/poexec/poe/internal/types"
)

// Executor is the execute-stage of the replica pipeline (Fig 6 of the
// paper): it accepts batches that the protocol has decided (view-committed,
// prepared, certified — whatever the protocol's rule is) in any order, and
// executes them strictly in sequence order against the store, appending a
// block per batch to the ledger.
//
// For speculative protocols, Rollback reverts the suffix of executed batches
// above a sequence number (store undo log + ledger truncation), implementing
// the paper's ingredient I2.
//
// Executor also performs deterministic client-level deduplication: a
// transaction whose client-local sequence number is not newer than the last
// executed one from that client is skipped (its ops are not re-applied).
// Because the skip decision depends only on executed history, all non-faulty
// replicas skip identically.
type Executor struct {
	mu      sync.Mutex
	kv      *store.KV
	chain   *ledger.Chain
	pending map[types.SeqNum]*decided
	log     map[types.SeqNum]*types.ExecRecord // executed, above the stable checkpoint
	lastCli map[types.ClientID]uint64

	// digests records, per executed sequence number, the (state, ledger-head)
	// digest pair exactly as of that sequence number. Checkpoint votes must
	// quote the digests at the checkpoint boundary — not at broadcast time,
	// when the executor may already have drained past it — or two honest
	// replicas that drained differently would vote different digests for the
	// same checkpoint. Pruned alongside log.
	digests map[types.SeqNum]digestPair

	// cliJournal is the undo log for lastCli, one entry per raised client
	// sequence number, in execution order. Rollback reverts the exact
	// entries above the rollback point, and durable checkpoints use it to
	// reconstruct the dedup history as of the checkpoint sequence number
	// even when execution has speculatively run ahead.
	cliJournal []cliMark

	// wal, when attached, persists every executed batch before the replica
	// replies and writes a checkpoint snapshot when the checkpoint
	// stabilizes. Appends go through the store's group-commit queue: the
	// record is queued here (preserving execution order) and onDurable fires
	// from the committer once its group is on disk, which is what releases
	// the batch's client replies. A durable replica that cannot persist must
	// stop rather than answer clients from volatile state, so persistence
	// failures panic (crash-stop, the fault model replicas already assume).
	wal *storage.Store

	// onDurable is invoked (on the storage committer goroutine) when seq's
	// WAL group has been committed; onRollback when Rollback discarded the
	// suffix above toSeq. Both are set by NewRuntime to drive the reply
	// durability gate.
	onDurable  func(seq types.SeqNum)
	onRollback func(toSeq types.SeqNum)

	// afterRollback fires at the very END of a successful Rollback, once the
	// store, ledger, and dedup history are rewound — the hook the read path
	// uses to re-answer speculative reads served off the discarded suffix.
	// It runs under the executor lock: the hook must not call back into
	// Executor methods (the store's own lock is fine).
	afterRollback func(toSeq types.SeqNum)

	stable types.SeqNum // last stable checkpoint

	// RetainSlack keeps execution records for this many sequence numbers
	// below the stable checkpoint so replicas left in the dark can still
	// catch up via Fetch after the checkpoint stabilized without them.
	// (Deeper darkness would need snapshot transfer, which real systems
	// layer on top of checkpoints.)
	RetainSlack types.SeqNum
}

// Executed reports one batch execution to the replica, which sends INFORMs,
// counts throughput, and triggers checkpoints.
type Executed struct {
	Rec     *types.ExecRecord
	Results []types.Result
}

type decided struct {
	view  types.View
	batch types.Batch
	proof []byte
}

// digestPair is the checkpoint digest material at one sequence number.
type digestPair struct {
	state  types.Digest
	ledger types.Digest
}

// cliMark records that executing seq raised a client's dedup sequence
// number from prev (0 = client unseen before).
type cliMark struct {
	seq    types.SeqNum
	client types.ClientID
	prev   uint64
}

// NewExecutor creates an executor over a store and ledger.
func NewExecutor(kv *store.KV, chain *ledger.Chain) *Executor {
	return &Executor{
		kv:      kv,
		chain:   chain,
		pending: make(map[types.SeqNum]*decided),
		log:     make(map[types.SeqNum]*types.ExecRecord),
		lastCli: make(map[types.ClientID]uint64),
		digests: make(map[types.SeqNum]digestPair),
	}
}

// Store returns the underlying key-value store.
func (e *Executor) Store() *store.KV { return e.kv }

// Chain returns the underlying ledger.
func (e *Executor) Chain() *ledger.Chain { return e.chain }

// LastExecuted returns the highest executed sequence number.
func (e *Executor) LastExecuted() types.SeqNum {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.kv.LastApplied()
}

// StableCheckpointSeq returns the last stable checkpoint sequence number.
func (e *Executor) StableCheckpointSeq() types.SeqNum {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stable
}

// Commit schedules the batch decided for seq in view view. Batches execute
// as soon as all their predecessors have executed (Fig 3, Line 20). Commit
// is idempotent: re-deciding an already scheduled or executed sequence
// number is a no-op. It returns the executions (possibly several, possibly
// none) this decision unblocked, in order.
func (e *Executor) Commit(seq types.SeqNum, view types.View, batch types.Batch, proof []byte) []Executed {
	e.mu.Lock()
	defer e.mu.Unlock()
	if seq <= e.kv.LastApplied() {
		return nil
	}
	if _, dup := e.pending[seq]; dup {
		return nil
	}
	e.pending[seq] = &decided{view: view, batch: batch, proof: proof}
	return e.drainLocked()
}

// drainLocked executes contiguous pending batches in sequence order.
func (e *Executor) drainLocked() []Executed {
	var events []Executed
	for {
		next := e.kv.LastApplied() + 1
		d, ok := e.pending[next]
		if !ok {
			return events
		}
		delete(e.pending, next)
		events = append(events, e.executeLocked(next, d))
	}
}

func (e *Executor) executeLocked(seq types.SeqNum, d *decided) Executed {
	effective := e.dedupLocked(&d.batch)
	results, err := e.kv.Apply(seq, effective)
	if err != nil {
		// Apply can only fail on ordering violations, which drainLocked
		// rules out; treat as a programming error.
		panic(fmt.Sprintf("protocol: executor apply seq %d: %v", seq, err))
	}
	e.journalDedupLocked(seq, effective)
	return e.finishExecLocked(seq, d, results)
}

// journalDedupLocked raises the per-client dedup sequence numbers for an
// effective batch, journaling each raise for rollback.
func (e *Executor) journalDedupLocked(seq types.SeqNum, effective *types.Batch) {
	for i := range effective.Requests {
		txn := &effective.Requests[i].Txn
		if dedupExempt(txn) {
			continue
		}
		if txn.Seq > e.lastCli[txn.Client] {
			e.cliJournal = append(e.cliJournal, cliMark{seq: seq, client: txn.Client, prev: e.lastCli[txn.Client]})
			e.lastCli[txn.Client] = txn.Seq
		}
	}
}

// dedupExempt reports whether a transaction is outside the per-client dedup
// history: fallback-ordered fast-path reads use a client-local sequence space
// of their own (the read counter), so comparing their Seq against the write
// watermark would either starve the read or — worse — poison the watermark
// and suppress legitimate writes. Reads are idempotent; re-executing a
// duplicate is harmless.
func dedupExempt(txn *types.Transaction) bool {
	return txn.Consistency != types.ConsistencyOrdered && txn.ReadOnly()
}

// finishExecLocked records one executed batch — ledger append, execution
// log, checkpoint digests, WAL append — and builds its Executed event. The
// store must already hold the batch's effects.
func (e *Executor) finishExecLocked(seq types.SeqNum, d *decided, results []types.Result) Executed {
	digest := d.batch.Digest()
	if _, err := e.chain.Append(seq, digest, d.view, d.proof); err != nil {
		panic(fmt.Sprintf("protocol: ledger append seq %d: %v", seq, err))
	}
	rec := &types.ExecRecord{Seq: seq, View: d.view, Digest: digest, Proof: d.proof, Batch: d.batch}
	e.log[seq] = rec
	head := e.chain.Head()
	e.digests[seq] = digestPair{state: e.kv.StateDigest(), ledger: head.Hash()}
	// Log before reply: the record enters the group-commit queue inside
	// Commit, in execution order, before the replica sees the Executed
	// event. The replies themselves are held by the runtime's durability
	// gate until onDurable reports the record's group committed, so every
	// acknowledged execution survives a crash — at one (amortized) fsync per
	// group instead of one per record. The record is immutable from here on,
	// so the committer can encode it concurrently with the event loop.
	if e.wal != nil {
		notify := e.onDurable
		e.wal.AppendAsync(rec, func(err error) {
			if err != nil {
				panic(fmt.Sprintf("protocol: wal append seq %d: %v", seq, err))
			}
			if notify != nil {
				notify(seq)
			}
		})
	}
	return Executed{Rec: rec, Results: results}
}

// Gap reports whether decided batches are waiting on missing predecessors:
// the executor has pending decisions but cannot execute the next sequence
// number. Replicas use it to trigger state transfer (Fetch).
func (e *Executor) Gap() (after types.SeqNum, waiting int, gapped bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.pending) == 0 {
		return 0, 0, false
	}
	next := e.kv.LastApplied() + 1
	if _, ok := e.pending[next]; ok {
		return 0, len(e.pending), false
	}
	return e.kv.LastApplied(), len(e.pending), true
}

// dedupLocked filters out transactions already executed for their client.
// Zero-payload batches pass through untouched.
func (e *Executor) dedupLocked(b *types.Batch) *types.Batch {
	if b.ZeroPayload {
		return b
	}
	keep := -1
	for i := range b.Requests {
		txn := &b.Requests[i].Txn
		if !dedupExempt(txn) && txn.Seq <= e.lastCli[txn.Client] {
			keep = i
			break
		}
	}
	if keep == -1 {
		return b
	}
	eff := &types.Batch{Requests: make([]types.Request, 0, len(b.Requests))}
	for i := range b.Requests {
		txn := &b.Requests[i].Txn
		if dedupExempt(txn) || txn.Seq > e.lastCli[txn.Client] {
			eff.Requests = append(eff.Requests, b.Requests[i])
		}
	}
	return eff
}

// AlreadyExecuted reports whether a transaction with the given client-local
// sequence number (or a newer one from the same client) has executed.
// Rotating-leader protocols use it to avoid re-proposing satisfied requests.
func (e *Executor) AlreadyExecuted(client types.ClientID, seq uint64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return seq <= e.lastCli[client]
}

// DropPendingBefore discards the decisions of views before view that are
// still waiting for a predecessor. A view change adopts executed history
// only and re-decides every sequence number above it, so a batch an older
// view decided that never ran here must not run once the new view fills the
// gap below it: the new view may have given its sequence number to another
// batch.
func (e *Executor) DropPendingBefore(view types.View) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for seq, d := range e.pending {
		if d.view < view {
			delete(e.pending, seq)
		}
	}
}

// Rollback reverts all executed batches above toSeq and discards pending
// decisions above it. The deduplication history is rebuilt from the
// remaining execution log so that rolled-back transactions can execute again.
func (e *Executor) Rollback(toSeq types.SeqNum) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if toSeq < e.stable {
		return fmt.Errorf("protocol: rollback to %d below stable checkpoint %d", toSeq, e.stable)
	}
	// Replies for the doomed suffix that are still gated on durability must
	// never go out: drop them before the flush inside Truncate would release
	// them ("lose the reply, keep the durability").
	if e.onRollback != nil {
		e.onRollback(toSeq)
	}
	// Cut the durable log first: if the process dies between the two, a
	// too-short WAL merely recovers a shorter prefix (the re-decided suffix
	// arrives via Fetch), whereas a too-long one would durably resurrect
	// batches the cluster abandoned — silent divergence. Truncate drains the
	// group-commit queue before cutting, so no queued append can land after
	// the cut.
	if e.wal != nil {
		if err := e.wal.Truncate(toSeq); err != nil {
			panic(fmt.Sprintf("protocol: wal truncate to %d: %v", toSeq, err))
		}
		// The flush inside Truncate advanced the durability watermark past
		// the cut; pull it back so replies of re-executed sequence numbers
		// gate on their own groups, not the abandoned ones.
		if e.onRollback != nil {
			e.onRollback(toSeq)
		}
	}
	if err := e.kv.Rollback(toSeq); err != nil {
		return err
	}
	if err := e.chain.TruncateAfter(toSeq); err != nil {
		return err
	}
	for seq := range e.pending {
		if seq > toSeq {
			delete(e.pending, seq)
		}
	}
	for seq := range e.log {
		if seq > toSeq {
			delete(e.log, seq)
		}
	}
	for seq := range e.digests {
		if seq > toSeq {
			delete(e.digests, seq)
		}
	}
	// Revert the client dedup history through its undo journal: entries
	// from rolled-back batches must not suppress re-execution, while
	// history from surviving batches — including batches older than the
	// retained execution log — must keep suppressing duplicates.
	cut := len(e.cliJournal)
	for i := len(e.cliJournal) - 1; i >= 0; i-- {
		m := e.cliJournal[i]
		if m.seq <= toSeq {
			break
		}
		if m.prev == 0 {
			delete(e.lastCli, m.client)
		} else {
			e.lastCli[m.client] = m.prev
		}
		cut = i
	}
	e.cliJournal = e.cliJournal[:cut]
	if e.afterRollback != nil {
		e.afterRollback(toSeq)
	}
	return nil
}

// MarkStable records a stable checkpoint at seq: undo information below it
// is discarded and the ledger prefix is frozen. With storage attached, the
// checkpoint is first made durable — a snapshot of the state exactly at seq
// plus a rotated WAL carrying the still-speculative suffix — before the
// in-memory undo information is released.
func (e *Executor) MarkStable(seq types.SeqNum) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if seq <= e.stable {
		return
	}
	// Runtime.OnCheckpoint only stabilizes a checkpoint this replica has
	// executed; a direct caller naming one it has not reached gets no
	// snapshot of state it does not have, and the WAL keeps the full prefix
	// recoverable until the next checkpoint it reaches.
	if e.wal != nil && seq <= e.kv.LastApplied() {
		if err := e.persistCheckpointLocked(seq); err != nil {
			panic(fmt.Sprintf("protocol: persist checkpoint seq %d: %v", seq, err))
		}
	}
	e.stable = seq
	e.kv.Checkpoint(seq)
	e.chain.MarkStable(seq)
	// Drop journal entries frozen by the checkpoint; rollback can no longer
	// reach below seq.
	idx := len(e.cliJournal)
	for i, m := range e.cliJournal {
		if m.seq > seq {
			idx = i
			break
		}
	}
	e.cliJournal = append([]cliMark(nil), e.cliJournal[idx:]...)
	cut := types.SeqNum(0)
	if seq > e.RetainSlack {
		cut = seq - e.RetainSlack
	}
	for s := range e.log {
		if s <= cut {
			delete(e.log, s)
		}
	}
	for s := range e.digests {
		if s <= cut {
			delete(e.digests, s)
		}
	}
}

// DigestsAt returns the (state, ledger-head) digest pair recorded when seq
// executed, the material a checkpoint vote for seq must quote. ok is false
// when seq has not executed or its digests were pruned with the record log.
func (e *Executor) DigestsAt(seq types.SeqNum) (state, ledgerHead types.Digest, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	p, ok := e.digests[seq]
	return p.state, p.ledger, ok
}

// persistCheckpointLocked snapshots the executed state as of seq and rotates
// the WAL. It must run before kv.Checkpoint(seq): rewinding the table to seq
// and reconstructing the dedup history both consume undo information the
// checkpoint is about to discard.
//
// The table copy, encode, and file I/O all happen under e.mu, pausing
// execution for the duration of the snapshot once per checkpoint interval.
// That is deliberate for now — appends must not interleave with the WAL
// rotation — and amortizes to noise at the default interval; if it ever
// shows up in profiles, the copy can be taken under the lock and the
// encode/write moved off it.
func (e *Executor) persistCheckpointLocked(seq types.SeqNum) error {
	snap, err := e.snapshotAtLocked(seq)
	if err != nil {
		return err
	}
	var tail []types.ExecRecord
	for s, rec := range e.log {
		if s > seq {
			tail = append(tail, *rec)
		}
	}
	sort.Slice(tail, func(i, j int) bool { return tail[i].Seq < tail[j].Seq })
	return e.wal.WriteSnapshot(snap, tail)
}

// snapshotAtLocked assembles the checkpoint snapshot exactly as of seq: the
// table rewound through the undo log, the ledger block at seq, and the client
// dedup history rewound through the journal.
func (e *Executor) snapshotAtLocked(seq types.SeqNum) (*storage.Snapshot, error) {
	data, err := e.kv.SnapshotAt(seq)
	if err != nil {
		return nil, err
	}
	head, ok := e.chain.Get(seq)
	if !ok {
		return nil, fmt.Errorf("ledger block at %d not retained", seq)
	}
	lastCli := make(map[types.ClientID]uint64, len(e.lastCli))
	for c, s := range e.lastCli {
		lastCli[c] = s
	}
	for i := len(e.cliJournal) - 1; i >= 0; i-- {
		m := e.cliJournal[i]
		if m.seq <= seq {
			break
		}
		if m.prev == 0 {
			delete(lastCli, m.client)
		} else {
			lastCli[m.client] = m.prev
		}
	}
	return &storage.Snapshot{Seq: seq, Head: head, Data: data, LastCli: lastCli}, nil
}

// BuildSnapshot assembles a snapshot of the current stable checkpoint for
// state transfer to a lagging peer. It fails when the replica has no stable
// checkpoint yet, or is itself lagging (stabilized on others' votes without
// having executed to the checkpoint).
func (e *Executor) BuildSnapshot() (*storage.Snapshot, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stable == 0 {
		return nil, fmt.Errorf("protocol: no stable checkpoint to snapshot")
	}
	if e.stable > e.kv.LastApplied() {
		return nil, fmt.Errorf("protocol: stable checkpoint %d beyond executed head %d", e.stable, e.kv.LastApplied())
	}
	return e.snapshotAtLocked(e.stable)
}

// InstallSnapshot replaces the executor's state with a verified checkpoint
// snapshot received from a peer, exactly as if the replica had taken it
// locally: it is persisted first (snapshot file + rotated WAL), then the
// store, ledger, dedup history, and stable checkpoint jump to the snapshot.
// Pending decisions above the snapshot are drained afterwards, so executions
// they unblock are returned like any Commit. The caller must have verified
// the snapshot against a checkpoint certificate before installing.
func (e *Executor) InstallSnapshot(snap *storage.Snapshot) ([]Executed, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	// A replica can have stabilized seq on others' votes without the state in
	// hand (stable == snap.Seq, LastApplied < snap.Seq); installing is then
	// exactly what it needs. Only installs that go backwards are rejected.
	if snap.Seq <= e.kv.LastApplied() || snap.Seq < e.stable {
		return nil, fmt.Errorf("protocol: snapshot at %d not ahead of executed %d / stable %d",
			snap.Seq, e.kv.LastApplied(), e.stable)
	}
	if snap.Head.Seq != snap.Seq {
		return nil, fmt.Errorf("protocol: snapshot head seq %d != snapshot seq %d", snap.Head.Seq, snap.Seq)
	}
	if e.wal != nil {
		// Durability first, mirroring a local checkpoint: if the install
		// lands, a crash recovers from the installed snapshot; if the write
		// fails, volatile state is untouched.
		if err := e.wal.WriteSnapshot(snap, nil); err != nil {
			return nil, err
		}
	}
	e.kv.Restore(snap.Data, snap.Seq)
	e.chain.Reset(snap.Head)
	e.lastCli = make(map[types.ClientID]uint64, len(snap.LastCli))
	for c, s := range snap.LastCli {
		e.lastCli[c] = s
	}
	e.cliJournal = nil
	e.stable = snap.Seq
	for s := range e.log {
		delete(e.log, s)
	}
	for s := range e.digests {
		delete(e.digests, s)
	}
	for s := range e.pending {
		if s <= snap.Seq {
			delete(e.pending, s)
		}
	}
	return e.drainLocked(), nil
}

// ExecutedRange returns one page of executed records for a Fetch: contiguous
// records starting at after+1, bounded by maxCount and (approximately)
// maxBytes — at least one record is returned if after+1 is retained,
// whatever its size. head is the server's last executed sequence number, so
// the fetcher can tell a short page from the end of history and re-request
// from its new head. An empty page means the records just above after are no
// longer retained and the fetcher needs snapshot state transfer instead.
func (e *Executor) ExecutedRange(after types.SeqNum, maxCount, maxBytes int) (recs []types.ExecRecord, head types.SeqNum) {
	e.mu.Lock()
	defer e.mu.Unlock()
	head = e.kv.LastApplied()
	bytes := 0
	for seq := after + 1; seq <= head; seq++ {
		rec, ok := e.log[seq]
		if !ok {
			break
		}
		recs = append(recs, *rec)
		bytes += recordSizeEstimate(rec)
		if (maxCount > 0 && len(recs) >= maxCount) || bytes >= maxBytes {
			break
		}
	}
	return recs, head
}

// recordSizeEstimate approximates one record's wire size cheaply (framing
// overhead is rounded up; payload lengths are exact), for the fetch page
// byte cap.
func recordSizeEstimate(rec *types.ExecRecord) int {
	n := 64 + len(rec.Proof)
	for i := range rec.Batch.Requests {
		req := &rec.Batch.Requests[i]
		n += 32 + len(req.Sig)
		for _, op := range req.Txn.Ops {
			n += 16 + len(op.Key) + len(op.Value)
		}
	}
	return n
}

// AttachStorage arms the executor with a durable store: subsequent
// executions append to its WAL and stable checkpoints write snapshots. The
// caller must first replay the store's recovered state (Restore + Commit of
// the recovered records), so the WAL's next expected sequence number lines
// up with the executor's.
func (e *Executor) AttachStorage(st *storage.Store) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.wal = st
}

// Restore primes a freshly built executor with the durable checkpoint state
// recovered from disk: the stable checkpoint sequence number and the client
// dedup history as of that checkpoint. The store and chain passed to
// NewExecutor must already hold the snapshot state; WAL records above it are
// then replayed through Commit.
func (e *Executor) Restore(stable types.SeqNum, lastCli map[types.ClientID]uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stable = stable
	e.lastCli = make(map[types.ClientID]uint64, len(lastCli))
	for c, s := range lastCli {
		e.lastCli[c] = s
	}
}

// ExecutedSince returns the executed records with sequence numbers in
// (after, lastExecuted], in order. Used to build VC-REQUEST messages and to
// answer Fetch state transfers.
func (e *Executor) ExecutedSince(after types.SeqNum) []types.ExecRecord {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []types.ExecRecord
	for seq, rec := range e.log {
		if seq > after {
			out = append(out, *rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Record returns the execution record at seq, if it is still retained.
func (e *Executor) Record(seq types.SeqNum) (types.ExecRecord, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	rec, ok := e.log[seq]
	if !ok {
		return types.ExecRecord{}, false
	}
	return *rec, true
}

// StateDigest returns the store's state digest (for checkpoints).
func (e *Executor) StateDigest() types.Digest {
	return e.kv.StateDigest()
}
