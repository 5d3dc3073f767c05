package protocol

import (
	"sort"
	"sync/atomic"
	"time"

	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/storage"
	"github.com/poexec/poe/internal/types"
)

// This file is the replica machine shared by the four primary-backup
// protocols (PoE, PBFT, SBFT, Zyzzyva): sequencing and the propose loop,
// request intake and the common message dispatch, the STRONG-read gate, and
// the view-change state machine and failure detector of §II-C (Fig 5):
//
//  1. Failure detection: a replica that suspects the primary (outstanding
//     work older than the current timeout, or f+1 VC-REQUESTs from others —
//     the join rule) halts the normal case and broadcasts VC-REQUEST(v, E).
//  2. New-view proposal: the next primary collects nf valid VC-REQUESTs and
//     broadcasts them in NV-PROPOSE.
//  3. Move to the new view: each replica derives the new view's state from
//     the nf requests (Rules.NewViewState) and enters the view.
//
// A protocol differs from its siblings only in its ordering rounds and in
// its Rules.

// Rules is what distinguishes one primary-backup protocol from another. All
// methods run on the event loop.
type Rules interface {
	// VCEntries returns what this replica's VC-REQUEST carries above its
	// stable checkpoint, given the records it executed there.
	VCEntries(executed []types.ExecRecord) []types.ExecRecord
	// ValidEntries reports whether a request's entries are acceptable; the
	// sender and signature have already been checked.
	ValidEntries(m *VCRequest) bool
	// NewViewState turns a validated NV-PROPOSE into the new view's state:
	// it derives the agreed order from the nf requests, repairs the local
	// execution to match, calls EnterView, and then handles whatever that
	// executed.
	NewViewState(nv *NVPropose)
	// ResetSlots discards the old view's per-slot state; EnterView calls it
	// before anything is proposed or forwarded in the new view.
	ResetSlots()
	// Propose builds, sends and handles one proposal of batch at seq in the
	// current view. ProposeReady has already allocated seq, so Propose may
	// re-enter ProposeReady (a self-handled proposal that executes at once).
	Propose(seq types.SeqNum, batch types.Batch)
	// Handle dispatches one authenticated inbound message: the protocol's
	// own messages, everything else to Skeleton.Dispatch. Deliver calls it.
	Handle(env network.Envelope)
}

// ViewBound is a normal-case message of one view: a proposal or a vote on
// one. Deliver parks those of the next view.
type ViewBound interface{ InView() types.View }

type status int

const (
	statusNormal status = iota
	statusViewChange
)

type pendingReq struct {
	req   types.Request
	since time.Time
}

// Skeleton is one replica's view, sequencing, read gate, failure detector
// and view-change state. Protocol replicas embed it. Event-loop owned.
type Skeleton struct {
	rt    *Runtime
	rules Rules

	// Now is the clock, injectable by tests. Defaults to time.Now.
	Now func() time.Time

	// view is atomic only so tests may read View while the loop runs.
	view   atomic.Uint64
	status status

	// nextPropose is the sequence number the primary proposes next.
	nextPropose types.SeqNum

	// strongQ holds STRONG reads the primary deferred because its executed
	// head still trailed its proposals; drained after every execution burst
	// and on the tick, with a bounded wait before falling back to ordering.
	strongQ StrongReads

	// Failure detection: requests this replica knows are outstanding, slots
	// it knows are open (each with the time it first saw them), the last
	// time anything progressed, and the current (backed-off) timeout.
	pendingReqs  map[types.Digest]pendingReq
	slotSince    map[types.SeqNum]time.Time
	lastProgress time.Time
	curTimeout   time.Duration

	// execHigh is the highest executed client sequence number per client.
	// Pipelined clients retry by broadcast, and a retry of an already
	// executed request can reach a backup after NoteExecuted cleared that
	// request's pending entry — without this watermark the late copy would
	// be tracked as pending forever, age past curTimeout once load stops,
	// and drive spurious view changes until the stale set drains. The reply
	// cache cannot stand in for it: it keeps only the latest replies per
	// client, so retries of older in-flight sequences miss it.
	execHigh map[types.ClientID]uint64

	vcTarget   types.View // view we are trying to move to while view-changing
	vcStarted  time.Time
	vcResent   time.Time
	vcExecMark types.SeqNum // last executed seq when the view change started
	vcVotes    map[types.View]map[types.ReplicaID]*VCRequest
	sentVC     map[types.View]bool
	lastNV     *NVPropose // cached by the new primary for late joiners

	// parked holds normal-case messages of the next view that arrived before
	// this replica entered it; they are replayed once it has.
	parked []network.Envelope

	// catchup marks a replica restarted from durable state: the first tick
	// proactively fetches past the recovered prefix.
	catchup bool
}

// NewSkeleton builds the shared state machine for one replica. A replica
// recovered from durable state rejoins in the view of its last durably
// executed batch — the cluster may have moved further, but the ordinary
// view-change catch-up handles that, exactly as it does for a replica that
// missed a view change in the dark — and fetches on its first tick, so it
// closes the gap to the live cluster even if no new proposals arrive to
// reveal it.
func NewSkeleton(rt *Runtime, rules Rules) *Skeleton {
	s := &Skeleton{
		rt:           rt,
		rules:        rules,
		Now:          time.Now,
		nextPropose:  rt.Exec.LastExecuted() + 1,
		pendingReqs:  make(map[types.Digest]pendingReq),
		slotSince:    make(map[types.SeqNum]time.Time),
		execHigh:     make(map[types.ClientID]uint64),
		lastProgress: time.Now(),
		curTimeout:   rt.Cfg.ViewTimeout,
		vcVotes:      make(map[types.View]map[types.ReplicaID]*VCRequest),
		sentVC:       make(map[types.View]bool),
	}
	if rt.RecoveredSeq > 0 {
		s.view.Store(uint64(rt.Exec.Chain().Head().View))
		s.catchup = true
	}
	if rt.Store != nil {
		// Durable (re)start — including a wiped rejoin that recovered
		// nothing: ask peers whether a snapshot is needed rather than wait
		// for checkpoint votes an idle cluster will never emit.
		rt.Sync.Probe()
	}
	return s
}

// View returns the current view.
func (s *Skeleton) View() types.View { return types.View(s.view.Load()) }

// Normal reports whether the normal case is running (no view change pending).
func (s *Skeleton) Normal() bool { return s.status == statusNormal }

// Active reports whether the normal case is running in view v. Deferred
// continuations re-check it: they run later than the handler that queued
// them, and a view change may have abandoned their slot in between.
func (s *Skeleton) Active(v types.View) bool { return s.status == statusNormal && s.View() == v }

// Primary returns the current view's primary.
func (s *Skeleton) Primary() types.ReplicaID { return s.rt.Cfg.Primary(s.View()) }

// IsPrimary reports whether this replica leads the current view.
func (s *Skeleton) IsPrimary() bool { return s.rt.Cfg.IsPrimary(s.View()) }

// InWindow reports whether seq lies in the window of slots a replica keeps
// state for: above its executed head, and at most 8·Window beyond it (the
// paper's active-set watermarks, §II-F). A slot at or below the head is
// looked up, never created: its batch is executed and its late quorum
// messages complete nothing.
func (s *Skeleton) InWindow(seq types.SeqNum) bool {
	lastExec := s.rt.Exec.LastExecuted()
	return seq > lastExec && seq <= lastExec+types.SeqNum(8*s.rt.Cfg.Window)
}

// --- sequencing ---

// ProposeReady proposes as many batches as the batcher and the out-of-order
// window allow; with force a lingering partial batch goes out too. A no-op
// unless this replica is the primary in normal status.
func (s *Skeleton) ProposeReady(force bool) {
	if !s.IsPrimary() || s.status != statusNormal {
		return
	}
	lastExec := s.rt.Exec.LastExecuted()
	for s.nextPropose <= lastExec+types.SeqNum(s.rt.Cfg.Window) {
		batch, ok := s.rt.Batcher.Take(force)
		if !ok {
			return
		}
		seq := s.nextPropose
		s.nextPropose++
		s.rt.Metrics.ProposedBatches.Add(1)
		s.rules.Propose(seq, batch)
	}
}

// Deliver is the replica's inbound dispatch. A normal-case message of the
// next view — the one this replica is changing into, or the one after its
// current view — is parked instead of handled: the replicas enter a new view
// within a few milliseconds of each other, and a vote of the new view that
// reaches one still changing views would otherwise be dropped. With a
// replica down that vote may be one of exactly nf, and the slot would wedge.
// The park is bounded (a replica's window of slots for each peer); the new
// view's messages are replayed once its state is in place, the rest dropped.
// Everything else goes straight to Rules.Handle.
func (s *Skeleton) Deliver(env network.Envelope) {
	if m, ok := env.Msg.(ViewBound); ok && m.InView() > s.View() {
		next := s.View() + 1
		if s.status == statusViewChange {
			next = s.vcTarget
		}
		if m.InView() == next && len(s.parked) < s.rt.Cfg.N*s.rt.Cfg.Window {
			s.parked = append(s.parked, env)
		}
		return
	}
	s.rules.Handle(env)
}

// newViewState applies a validated NV-PROPOSE and then replays the messages
// parked for the view it entered.
func (s *Skeleton) newViewState(nv *NVPropose) {
	s.rules.NewViewState(nv)
	parked := s.parked
	s.parked = nil
	for _, env := range parked {
		if env.Msg.(ViewBound).InView() == s.View() {
			s.Deliver(env)
		}
	}
}

// Dispatch handles the messages every primary-backup protocol treats alike.
// A protocol's Handle handles its own messages and falls through to it. By
// default a tiered read is ordered like any other request — it is
// dedup-exempt end to end, so its separate client-local sequence space
// cannot collide with writes — and a lease grant is dropped; protocols that
// serve reads locally intercept both.
func (s *Skeleton) Dispatch(env network.Envelope) {
	switch m := env.Msg.(type) {
	case *ClientRequest:
		s.OnClientRequest(env.From, &m.Req)
	case *ForwardRequest:
		s.OnForwardRequest(&m.Req)
	case *ReadRequest:
		s.FallbackRead(&m.Req)
	case *Checkpoint:
		s.rt.OnCheckpoint(m)
	case *Fetch:
		s.rt.HandleFetch(m)
	case *SnapshotRequest:
		s.rt.HandleSnapshotRequest(m)
	case *SnapshotOffer:
		s.rt.Sync.OnOffer(m)
	case *SnapshotChunk:
		s.rt.Sync.OnChunk(m)
	case *VCRequest:
		s.OnVCRequest(m)
	case *NVPropose:
		s.OnNVPropose(env.From, m)
	}
}

// --- request intake ---

// OnClientRequest handles a client request whose origin and signature the
// inbound check has checked.
func (s *Skeleton) OnClientRequest(from types.NodeID, req *types.Request) {
	if !from.IsClient() || req.Txn.Client != from.Client() {
		return
	}
	if s.rt.ReplayReply(req) {
		return
	}
	if s.status != statusNormal {
		// Remember the request; it is re-forwarded once the new view starts.
		s.trackPending(req)
		return
	}
	if s.IsPrimary() {
		s.rt.Batcher.Add(*req)
		s.ProposeReady(false)
		return
	}
	// A client only contacts a backup when it suspects the primary: forward
	// the request and start the failure-detection timer (§II-B).
	s.trackPending(req)
	s.rt.SendReplica(s.Primary(), &ForwardRequest{Req: *req})
}

// OnForwardRequest handles a request a backup forwarded to this primary.
func (s *Skeleton) OnForwardRequest(req *types.Request) {
	if s.status != statusNormal || !s.IsPrimary() {
		return
	}
	if s.rt.ReplayReply(req) {
		return
	}
	s.rt.Batcher.Add(*req)
	s.ProposeReady(false)
}

// FallbackRead routes a tiered read through the ordering pipeline: the
// primary batches it like any write; a backup forwards it. Fallback reads are
// dedup-exempt end to end (they use their own client-local sequence space),
// so they pass the batcher watermark, the executor's dedup, and the reply
// ring without colliding with writes.
//
// The pipeline may have accepted the read on its MAC tag alone, which is
// enough to serve it locally but not to propose it: the primary checks the
// signature here (memoised; the one client-signature check on the event
// loop, paid only by reads that miss the fast path), and a forwarded read is
// checked by the primary's pipeline like any ForwardRequest.
func (s *Skeleton) FallbackRead(req *types.Request) {
	s.rt.Metrics.ReadFallbacks.Add(1)
	if s.IsPrimary() && s.status == statusNormal {
		if !s.rt.VerifyClientRequest(req) {
			return
		}
		s.rt.Batcher.Add(*req)
		s.ProposeReady(false)
		return
	}
	s.rt.SendReplica(s.Primary(), &ForwardRequest{Req: *req})
}

// --- the STRONG-read gate ---

// OnReadRequest serves a tiered read-only request without ordering when the
// tier's precondition holds, and falls back to the ordering pipeline
// otherwise. The inbound check already checked the client's authenticator
// and that the transaction is read-only with a non-ordered tier.
func (s *Skeleton) OnReadRequest(req *types.Request) {
	switch req.Txn.Consistency {
	case types.ConsistencySpeculative:
		// Any replica answers from its executed prefix, in any status: the
		// reply is tagged with the serving (seq, state digest) and, where the
		// protocol can roll back, re-answered through the repair path if a
		// rollback truncates it.
		s.rt.ServeLocalRead(req, types.ConsistencySpeculative, s.View())
	case types.ConsistencyStrong:
		if s.tryServeStrong(req) {
			return
		}
		if s.IsPrimary() && s.status == statusNormal {
			// Lease held but the executed head trails the proposals (or the
			// lease is one renewal short): park the read; TendReads serves
			// it the moment the head catches up.
			s.strongQ.Defer(req, s.Now())
			return
		}
		s.FallbackRead(req)
	default:
		s.FallbackRead(req)
	}
}

// tryServeStrong answers a STRONG read from the local executed prefix iff
// this replica is the primary, holds a quorum read lease, and is caught up
// (executed head == proposal head, so every write it has acknowledged is in
// the answered prefix). Under a valid lease no view change can assemble a
// quorum — every grantor promised not to join a higher view — so no
// conflicting write can commit elsewhere while the serve is current; when
// the lease cannot be validated the read simply pays for ordering, so
// linearizability never rests on clock synchronization.
func (s *Skeleton) tryServeStrong(req *types.Request) bool {
	if !s.IsPrimary() || s.status != statusNormal {
		return false
	}
	if s.rt.Exec.LastExecuted()+1 != s.nextPropose {
		return false
	}
	if !s.rt.Lease.HolderValid(s.View()) {
		return false
	}
	s.rt.ServeLocalRead(req, types.ConsistencyStrong, s.View())
	return true
}

// TendReads renews this replica's read-lease grant and retries deferred
// STRONG reads, ordering any that waited longer than half a lease duration.
// Protocols that serve reads call it after every execution burst — the
// under-load lease carrier, and the moment deferred reads may have caught
// up — and on every tick with Tick's verdict. A replica stops renewing once
// its failure detector would fire within one LeaseDuration: the promise has
// then lapsed by the time suspicion fires, and the view change starts on
// that tick instead of waiting the promise out. Withholding a grant is
// always safe; the primary merely orders its STRONG reads.
func (s *Skeleton) TendReads(now time.Time, suspecting bool) {
	if s.status != statusNormal {
		return
	}
	s.rt.MaybeGrantLease(s.View(), suspecting || s.suspectPrimary(now.Add(s.rt.Cfg.LeaseDuration)))
	if s.strongQ.Len() > 0 {
		s.strongQ.Drain(now, s.rt.Cfg.LeaseDuration/2, s.tryServeStrong, s.FallbackRead)
	}
}

func (s *Skeleton) trackPending(req *types.Request) {
	if req.Txn.Seq <= s.execHigh[req.Txn.Client] {
		// Late retry of an already executed request (clients propose their
		// sequences in order over FIFO links, so the watermark is exact).
		return
	}
	d := req.Digest()
	if _, ok := s.pendingReqs[d]; !ok {
		s.pendingReqs[d] = pendingReq{req: *req, since: s.Now()}
	}
}

// --- progress the protocol reports ---

// NoteSlot records that the slot at seq is open: the primary proposed it, or
// part of its quorum arrived. An open slot that stays unexecuted beyond the
// timeout is evidence against the primary.
func (s *Skeleton) NoteSlot(seq types.SeqNum) {
	if _, ok := s.slotSince[seq]; !ok && seq > s.rt.Exec.LastExecuted() {
		s.slotSince[seq] = s.Now()
	}
}

// Progress records that the normal case advanced (a quorum formed).
func (s *Skeleton) Progress() { s.lastProgress = s.Now() }

// NoteExecuted accounts for one executed batch: metrics, the progress clock,
// and pruning of the failure-detection state its requests occupied.
func (s *Skeleton) NoteExecuted(rec *types.ExecRecord) {
	s.lastProgress = s.Now()
	s.rt.Metrics.ExecutedBatches.Add(1)
	s.rt.Metrics.ExecutedTxns.Add(int64(rec.Batch.Size()))
	for i := range rec.Batch.Requests {
		txn := &rec.Batch.Requests[i].Txn
		if txn.Seq > s.execHigh[txn.Client] {
			s.execHigh[txn.Client] = txn.Seq
		}
		delete(s.pendingReqs, rec.Batch.Requests[i].Digest())
	}
	delete(s.slotSince, rec.Seq)
}

// Installed is the shared half of resuming around an installed snapshot:
// sequencing and the view jump forward with the snapshot and the failure
// detector starts over. Requests executed inside the snapshot prefix never
// pass through NoteExecuted here, so their pending entries would go stale
// and feed the failure detector. They are all dropped: clients retry
// anything genuinely outstanding, which re-tracks it with a fresh timer.
func (s *Skeleton) Installed(snap *storage.Snapshot) {
	s.nextPropose = max(s.nextPropose, snap.Seq+1)
	if snap.Head.View > s.View() {
		s.view.Store(uint64(snap.Head.View))
		s.status = statusNormal
	}
	s.lastProgress = s.Now()
	s.curTimeout = s.rt.Cfg.ViewTimeout
	s.pendingReqs = make(map[types.Digest]pendingReq)
	for seq := range s.slotSince {
		if seq <= snap.Seq {
			delete(s.slotSince, seq)
		}
	}
}

// --- housekeeping ---

// Tick runs the shared housekeeping: catch-up fetches, state sync, the
// linger flush, failure detection, and view-change retransmission and
// escalation. It reports whether this replica currently suspects the
// primary, for TendReads.
func (s *Skeleton) Tick(now time.Time) (suspecting bool) {
	if s.catchup {
		s.catchup = false
		s.rt.FetchFrom(s.rt.Exec.LastExecuted())
	}
	// Snapshot state transfer runs in every status: a replica too far behind
	// for Fetch needs it exactly when it cannot follow the normal case.
	s.rt.Sync.Tick(now)
	// Keep catching up during a view change too: fetched records are
	// committed in any status.
	s.maybeFetch()
	if s.status == statusNormal {
		if s.IsPrimary() && s.rt.Batcher.Ripe(now) {
			s.ProposeReady(true)
		}
		if !s.suspectPrimary(now) {
			return false
		}
		s.startViewChange(s.View() + 1)
		return true
	}
	lonely := len(s.vcVotes[s.vcTarget]) < s.rt.Cfg.FPlus1()
	switch {
	case lonely && s.rt.Exec.LastExecuted() > s.vcExecMark:
		// Un-suspect: execution progressed past where it was when we
		// suspected the primary and nobody joined our view change, so the
		// current view is demonstrably live — we were merely in the dark.
		// Rejoin it instead of stalling in a lonely view change.
		s.resumeNormal(now)
		s.curTimeout = s.rt.Cfg.ViewTimeout
	case lonely && now.Sub(s.vcStarted) > s.curTimeout:
		// Lonely view change timed out: not even f other replicas suspect
		// the primary, so at least one non-faulty replica is content with
		// the current view — our own suspicion was spurious. Escalating
		// would strand this replica dropping every message of a live view
		// (fatal when it is needed for quorum). Return to normal —
		// curTimeout stays doubled, so repeated spurious suspicion decays —
		// and fetch: any slot we were suspicious about may have committed
		// without us while we were view-changing (our share was already
		// spent, so only the executed record can close it now).
		s.resumeNormal(now)
		s.rt.FetchFrom(s.rt.Exec.LastExecuted())
	case now.Sub(s.vcStarted) > s.curTimeout:
		// The view change itself failed (the next primary is also faulty or
		// unreachable): move one view further with a doubled timeout
		// (exponential backoff, Theorem 7).
		s.startViewChange(s.vcTarget + 1)
	case now.Sub(s.vcResent) > s.rt.Cfg.ViewTimeout:
		s.broadcastVC(s.vcTarget)
		s.maybeProposeNewView(s.vcTarget)
	}
	return false
}

// resumeNormal abandons a pending view change and rejoins the current view.
// The failure-detection clock restarts from scratch: outstanding work gets a
// fresh full timeout of observation in normal status before it can justify
// suspicion again — without this the still-stale marks re-trigger the view
// change on the very next tick, leaving only a tick-wide window to actually
// process messages.
func (s *Skeleton) resumeNormal(now time.Time) {
	s.status = statusNormal
	s.lastProgress = now
	for d, p := range s.pendingReqs {
		p.since = now
		s.pendingReqs[d] = p
	}
	for seq := range s.slotSince {
		s.slotSince[seq] = now
	}
}

// suspectPrimary reports whether outstanding work has been stuck beyond the
// current timeout. The item itself must be older than the timeout, not just
// lastProgress: after an idle period lastProgress is arbitrarily stale, and
// work that arrives into that lull (the first proposal after a quiet spell,
// a request forwarded to a freshly elected primary) must get a full timeout
// of grace before it counts as evidence of a faulty primary. Without the
// per-item age check the primary proposes into the lull and the very next
// tick view-changes — before the quorum for that proposal can possibly have
// formed — stranding it in a lonely view change.
func (s *Skeleton) suspectPrimary(now time.Time) bool {
	if now.Sub(s.lastProgress) <= s.curTimeout {
		return false
	}
	for _, p := range s.pendingReqs {
		if now.Sub(p.since) > s.curTimeout {
			return true
		}
	}
	lastExec := s.rt.Exec.LastExecuted()
	for seq, since := range s.slotSince {
		if seq > lastExec && now.Sub(since) > s.curTimeout {
			return true
		}
	}
	_, _, gapped := s.rt.Exec.Gap()
	return gapped
}

// maybeFetch requests state transfer when decided batches are stuck behind
// missing predecessors (a replica left in the dark, §II-D).
func (s *Skeleton) maybeFetch() {
	if after, _, gapped := s.rt.Exec.Gap(); gapped {
		s.rt.FetchFrom(after)
	}
}

// --- view change ---

// Suspect starts a view change on evidence the protocol found itself (a
// proposal that proves the primary faulty).
func (s *Skeleton) Suspect() { s.startViewChange(s.View() + 1) }

// startViewChange halts normal processing and requests a move to target.
func (s *Skeleton) startViewChange(target types.View) {
	if target <= s.View() {
		return
	}
	if s.status == statusViewChange && target <= s.vcTarget {
		return
	}
	if !s.rt.Lease.CanAdvanceView(target) {
		// An outstanding read-lease promise forbids joining a higher view
		// until it expires (at most one LeaseDuration). Every initiation path
		// retries — the tick re-suspects, VC-REQUESTs are retransmitted — so
		// the view change is delayed, never lost. Entering a view through a
		// completed NV-PROPOSE is never gated: nf replicas advancing proves
		// the lease quorum already drained.
		return
	}
	now := s.Now()
	s.status = statusViewChange
	s.vcTarget = target
	s.vcStarted = now
	s.vcExecMark = s.rt.Exec.LastExecuted()
	s.curTimeout *= 2 // exponential backoff (Theorem 7)
	s.rt.Metrics.ViewChanges.Add(1)
	if s.sentVC[target] {
		return
	}
	s.sentVC[target] = true
	s.broadcastVC(target)
	s.maybeProposeNewView(target)
}

// broadcastVC signs and broadcasts this replica's view-change request for
// target. Called on entry and then periodically while the view change is
// pending: VC-REQUESTs lost to a partition are not otherwise retransmitted,
// and the new-view primary cannot assemble its quorum without them.
func (s *Skeleton) broadcastVC(target types.View) {
	s.vcResent = s.Now()
	stable := s.rt.Exec.StableCheckpointSeq()
	req := &VCRequest{
		From:      s.rt.Cfg.ID,
		View:      target - 1,
		StableSeq: stable,
		Entries:   s.rules.VCEntries(s.rt.Exec.ExecutedSince(stable)),
	}
	req.Sig = s.rt.Keys.Sign(req.SignedPayload())
	s.recordVCVote(req)
	s.rt.Broadcast(req)
}

func (s *Skeleton) recordVCVote(m *VCRequest) {
	target := m.View + 1
	votes, ok := s.vcVotes[target]
	if !ok {
		votes = make(map[types.ReplicaID]*VCRequest)
		s.vcVotes[target] = votes
	}
	if _, dup := votes[m.From]; !dup {
		votes[m.From] = m
	}
}

// validateVCRequest checks the sender, the signature, and — by the
// protocol's rule — the entries.
func (s *Skeleton) validateVCRequest(m *VCRequest) bool {
	if m.From < 0 || int(m.From) >= s.rt.Cfg.N {
		return false
	}
	if !s.rt.Keys.VerifyFrom(types.ReplicaNode(m.From), m.SignedPayload(), m.Sig) {
		return false
	}
	return s.rules.ValidEntries(m)
}

// OnVCRequest handles another replica's view-change request.
func (s *Skeleton) OnVCRequest(m *VCRequest) {
	target := m.View + 1
	if target <= s.View() {
		// A lagging replica asking for a view we already left (or are in):
		// if we are the primary that installed it, replay the cached
		// NV-PROPOSE so the straggler can catch up.
		if s.lastNV != nil && s.lastNV.NewView >= target && s.rt.Cfg.IsPrimary(s.lastNV.NewView) {
			s.rt.SendReplica(m.From, s.lastNV)
		}
		return
	}
	if !s.validateVCRequest(m) {
		return
	}
	s.recordVCVote(m)
	// Join rule: f+1 distinct requests mean at least one non-faulty replica
	// detected a failure (Fig 5, Line 8).
	if len(s.vcVotes[target]) >= s.rt.Cfg.FPlus1() {
		if s.status == statusNormal || s.vcTarget < target {
			s.startViewChange(target)
		}
	}
	s.joinDivergedViewChange()
	s.maybeProposeNewView(target)
}

// joinDivergedViewChange applies the Castro-Liskov liveness rule: when f+1
// distinct replicas are view-changing to views beyond this replica's own
// target, at least one of them is honest — adopt the smallest such view
// immediately instead of waiting out the (exponentially backed-off) local
// timer. Without it a storm of staggered leader failures can strand the
// replicas on pairwise-different targets, none of which ever gathers a
// quorum.
func (s *Skeleton) joinDivergedViewChange() {
	cur := s.View()
	if s.status == statusViewChange && s.vcTarget > cur {
		cur = s.vcTarget
	}
	voters := make(map[types.ReplicaID]types.View)
	for target, votes := range s.vcVotes {
		if target <= cur {
			continue
		}
		for id := range votes {
			if t, ok := voters[id]; !ok || target < t {
				voters[id] = target
			}
		}
	}
	if len(voters) < s.rt.Cfg.FPlus1() {
		return
	}
	join := types.View(0)
	for _, target := range voters {
		if join == 0 || target < join {
			join = target
		}
	}
	s.startViewChange(join)
	s.maybeProposeNewView(join)
}

// maybeProposeNewView broadcasts NV-PROPOSE once this replica is the next
// primary and holds nf valid view-change requests (Fig 5, Line 18). The
// requests of the nf lowest replica ids go in, so the choice does not depend
// on arrival order.
func (s *Skeleton) maybeProposeNewView(target types.View) {
	cfg := s.rt.Cfg
	if !cfg.IsPrimary(target) || s.status != statusViewChange || s.vcTarget != target {
		return
	}
	if s.lastNV != nil && s.lastNV.NewView >= target {
		return
	}
	votes := s.vcVotes[target]
	if len(votes) < cfg.NF() {
		return
	}
	ids := make([]types.ReplicaID, 0, len(votes))
	for id := range votes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	nv := &NVPropose{NewView: target}
	for _, id := range ids[:cfg.NF()] {
		nv.Requests = append(nv.Requests, *votes[id])
	}
	s.lastNV = nv
	s.rt.Broadcast(nv)
	s.newViewState(nv)
}

// OnNVPropose handles the new primary's new-view proposal.
func (s *Skeleton) OnNVPropose(from types.NodeID, m *NVPropose) {
	if !from.IsReplica() || from.Replica() != s.rt.Cfg.Primary(m.NewView) {
		return
	}
	if v := s.View(); m.NewView < v || (m.NewView == v && s.status == statusNormal) {
		return
	}
	if !s.validateNVPropose(m) {
		// An invalid proposal exposes the new primary as faulty: move on
		// (Fig 5's "otherwise, replicas detect failure of P′").
		s.startViewChange(m.NewView + 1)
		return
	}
	s.newViewState(m)
}

// validateNVPropose re-runs the checks the new primary performed when
// creating the proposal (Fig 5, Line 12).
func (s *Skeleton) validateNVPropose(m *NVPropose) bool {
	if len(m.Requests) < s.rt.Cfg.NF() {
		return false
	}
	seen := make(map[types.ReplicaID]bool, len(m.Requests))
	for i := range m.Requests {
		req := &m.Requests[i]
		if req.View != m.NewView-1 || seen[req.From] {
			return false
		}
		seen[req.From] = true
		if !s.validateVCRequest(req) {
			return false
		}
	}
	return true
}

// EnterView switches to view v with the order finalized through kmax: the
// shared half of entering a view. Rules.NewViewState calls it once the local
// execution matches the new view's state.
func (s *Skeleton) EnterView(v types.View, kmax types.SeqNum) {
	s.view.Store(uint64(v))
	s.status = statusNormal
	s.curTimeout = s.rt.Cfg.ViewTimeout
	s.lastProgress = s.Now()
	s.rt.Metrics.ViewChangesDone.Add(1)
	// Grants from the old view must never validate a lease in the new one.
	s.rt.Lease.ResetHolder(v)
	// Every open slot, and every share payload in the pipeline's digest
	// table, belongs to the old view.
	s.slotSince = make(map[types.SeqNum]time.Time)
	s.rt.Pipeline.Reset()
	for target := range s.vcVotes {
		if target <= v {
			delete(s.vcVotes, target)
		}
	}
	for target := range s.sentVC {
		if target <= v {
			delete(s.sentVC, target)
		}
	}
	s.rules.ResetSlots()
	// The new view proposes from kmax+1 (Fig 5, §II-C3), or past whatever
	// this replica already executed beyond it.
	s.nextPropose = max(kmax, s.rt.Exec.LastExecuted()) + 1
	// Reads the old primary parked can no longer be lease-served.
	s.strongQ.FlushAll(s.FallbackRead)
	if s.IsPrimary() {
		// The new primary's batching dedup history is rebuilt from the
		// new-view state, so the proposed-map is reset and pending requests
		// re-enter the queue.
		s.rt.Batcher.ResetProposed()
		for _, p := range s.pendingReqs {
			s.rt.Batcher.Add(p.req)
		}
		s.ProposeReady(true)
		return
	}
	// Re-forward outstanding requests to the new primary; their
	// failure-detection timers keep running.
	for _, p := range s.pendingReqs {
		s.rt.SendReplica(s.Primary(), &ForwardRequest{Req: p.req})
	}
}

// --- new-view state shared by the longest-prefix protocols ---

// CertifiedRecord reports whether a record's digest matches its batch and
// its proof certifies the proposal digest D(k||v||D(batch)) — the check for
// any executed record received from a peer.
func (rt *Runtime) CertifiedRecord(rec *types.ExecRecord) bool {
	if rec.Digest != rec.Batch.Digest() {
		return false
	}
	h := types.ProposalDigest(rec.Seq, rec.View, rec.Digest)
	return rt.TS.Verify(h[:], rec.Proof)
}

// CertifiedPrefix is the entry rule of protocols whose VC-REQUEST is an
// executed prefix: consecutive from the stable checkpoint, every entry
// certified.
func (rt *Runtime) CertifiedPrefix(m *VCRequest) bool {
	for i := range m.Entries {
		e := &m.Entries[i]
		if e.Seq != m.StableSeq+types.SeqNum(i)+1 || !rt.CertifiedRecord(e) {
			return false
		}
	}
	return true
}

// LongestPrefix picks E′: the request with the longest consecutive sequence
// of executed batches. Ties break deterministically — higher stable
// checkpoint, then lower sender — so every replica derives the same state
// whatever order the requests are listed in.
func LongestPrefix(reqs []VCRequest) *VCRequest {
	best := &reqs[0]
	for i := 1; i < len(reqs); i++ {
		req := &reqs[i]
		switch {
		case req.End() != best.End():
			if req.End() > best.End() {
				best = req
			}
		case req.StableSeq != best.StableSeq:
			if req.StableSeq > best.StableSeq {
				best = req
			}
		case req.From < best.From:
			best = req
		}
	}
	return best
}

// AdoptLongestPrefix makes the local execution match E′ = LongestPrefix(reqs):
// it rolls back any speculative suffix that diverges from E′ or runs past its
// end kmax (Fig 5, Line 14; Proposition 5 guarantees no client-visible
// transaction is in such a suffix) and executes the batches of E′ this
// replica is missing. It returns kmax, what it executed, and the rollback's
// error if the executor refused it — which means rewinding below a stable
// checkpoint, impossible for certified entries with n > 3f (Proposition 2).
func (rt *Runtime) AdoptLongestPrefix(reqs []VCRequest) (kmax types.SeqNum, events []Executed, err error) {
	best := LongestPrefix(reqs)
	kmax = best.End()
	myLast := rt.Exec.LastExecuted()
	rollbackTo := min(myLast, kmax)
	for i := range best.Entries {
		e := &best.Entries[i]
		if e.Seq > rollbackTo {
			break
		}
		if rec, ok := rt.Exec.Record(e.Seq); ok && rec.Digest != e.Digest {
			// Divergent speculative execution below kmax; revert from the
			// first mismatch on.
			rollbackTo = e.Seq - 1
			break
		}
	}
	if rollbackTo < myLast {
		if err = rt.Exec.Rollback(rollbackTo); err == nil {
			rt.Metrics.Rollbacks.Add(1)
		}
	}
	for i := range best.Entries {
		e := &best.Entries[i]
		if e.Seq > rt.Exec.LastExecuted() {
			events = append(events, rt.Exec.Commit(e.Seq, e.View, e.Batch, e.Proof)...)
		}
	}
	return kmax, events, err
}
