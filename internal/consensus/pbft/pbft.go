// Package pbft implements the Practical Byzantine Fault Tolerance protocol
// (Castro & Liskov, OSDI'99) as the paper's primary baseline (§IV-A): three
// phases — PRE-PREPARE from the primary, then two all-to-all quadratic
// phases PREPARE and COMMIT — with out-of-order processing. Replicas execute
// only committed-local batches; clients wait for f+1 identical replies.
//
// To make view-change messages verifiable by third parties, PREPARE and
// COMMIT messages carry threshold-style shares over the proposal digest (the
// same crypto.Share machinery PoE uses): a replica holding nf prepare shares
// has a compact *prepared certificate*. Under the MAC scheme the shares are
// HMACs, so the cost profile matches the paper's MAC-based PBFT
// (BFTSmart-style with ResilientDB's pipelining).
//
// View change runs on the shared protocol.Skeleton. PBFT's rules: a
// VIEW-CHANGE carries every prepared entry above the stable checkpoint,
// executed or not; the new view re-orders, per sequence number, the entry
// prepared in the highest view and fills gaps with no-ops; nothing is ever
// rolled back.
package pbft

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/storage"
	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/wire"
)

// PrePrepare is the primary's ordering proposal.
type PrePrepare struct {
	View  types.View
	Seq   types.SeqNum
	Batch types.Batch
	Auth  [][]byte
}

// SignedPayload returns the bytes covered by the authenticator.
func (m *PrePrepare) SignedPayload() []byte {
	bd := m.Batch.Digest()
	d := types.ProposalDigest(m.Seq, m.View, bd)
	return d[:]
}

// SetAuth stores the broadcast authenticator (protocol.SignedProposal).
func (m *PrePrepare) SetAuth(auth [][]byte) { m.Auth = auth }

// Prepare is the first all-to-all phase: agreement on the proposal digest.
// The share doubles as authentication and as view-change evidence.
type Prepare struct {
	View  types.View
	Seq   types.SeqNum
	Share crypto.Share
}

// Commit is the second all-to-all phase.
type Commit struct {
	View  types.View
	Seq   types.SeqNum
	Share crypto.Share
}

// commitDigest derives the distinct digest signed in Commit shares, so
// prepare and commit shares cannot be confused.
func commitDigest(h types.Digest) types.Digest {
	return types.DigestConcat([]byte("pbft-commit"), h[:])
}

// InView places each normal-case message in its view (protocol.ViewBound).
func (m *PrePrepare) InView() types.View { return m.View }
func (m *Prepare) InView() types.View    { return m.View }
func (m *Commit) InView() types.View     { return m.View }

func init() {
	wire.Register(func() wire.Message { return &PrePrepare{} })
	wire.Register(func() wire.Message { return &Prepare{} })
	wire.Register(func() wire.Message { return &Commit{} })
}

// Options configure a PBFT replica.
type Options struct {
	protocol.RuntimeOptions
	// Adversary makes this replica a Byzantine primary per the shared
	// cross-protocol spec: equivocating or suppressed PRE-PREPAREs toward
	// the listed backups, re-signed with this replica's real keys so honest
	// verifiers accept them. Nil means honest.
	Adversary *protocol.AdversarySpec
}

// Replica is one PBFT replica. Sequencing, request intake, the read gate,
// the view-change skeleton and the failure detector are the embedded
// protocol.Skeleton's; the rules PBFT gives it are at the end of this file.
type Replica struct {
	*protocol.Skeleton
	rt  *protocol.Runtime
	adv *protocol.AdversarySpec

	slots map[types.SeqNum]*slot
}

type slot struct {
	view          types.View
	haveBatch     bool
	batch         types.Batch
	digest        types.Digest  // h = D(k||v||D(batch))
	prepares      crypto.Quorum // over h
	commits       crypto.Quorum // over commitDigest(h)
	preparedCert  []byte        // nf prepare shares combined
	committedCert []byte
	committed     bool
}

// New creates a PBFT replica.
func New(cfg protocol.Config, ring *crypto.KeyRing, net network.Transport, opts Options) (*Replica, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rt := protocol.NewRuntime(cfg, ring, net, opts.RuntimeOptions)
	r := &Replica{
		rt:    rt,
		adv:   opts.Adversary,
		slots: make(map[types.SeqNum]*slot),
	}
	r.Skeleton = protocol.NewSkeleton(rt, r)
	rt.Sync.AfterInstall = r.afterInstall
	return r, nil
}

// Runtime exposes the replica runtime for the harness and tests.
func (r *Replica) Runtime() *protocol.Runtime { return r.rt }

// Run processes messages until ctx is cancelled.
func (r *Replica) Run(ctx context.Context) {
	r.rt.Run(ctx, r.verifyInbound, r.Deliver, r.onTick)
}

// Handle implements protocol.Rules.
func (r *Replica) Handle(env network.Envelope) {
	switch m := env.Msg.(type) {
	case *PrePrepare:
		if env.From.IsReplica() {
			r.handlePrePrepare(env.From.Replica(), m)
		}
	case *Prepare:
		if env.From.IsReplica() {
			r.onPrepare(env.From.Replica(), m)
		}
	case *Commit:
		if env.From.IsReplica() {
			r.onCommit(env.From.Replica(), m)
		}
	case *protocol.FetchReply:
		r.onFetchReply(m)
	case *protocol.ReadRequest:
		// PBFT executes only committed-local batches and never rolls back,
		// so its SPECULATIVE serves are final; the (seq, state digest) tag
		// still lets the client audit the prefix against checkpoints.
		r.OnReadRequest(&m.Req)
	case *protocol.LeaseGrant:
		r.rt.Lease.OnGrant(m)
	default:
		r.Dispatch(env)
	}
}

// --- normal case ---

// Propose implements protocol.Rules.
func (r *Replica) Propose(seq types.SeqNum, batch types.Batch) {
	m := &PrePrepare{View: r.View(), Seq: seq, Batch: batch}
	r.rt.FanOut(m, r.adv, func() protocol.SignedProposal {
		v := *m
		v.Batch = r.adv.Variant(m.Batch)
		return &v
	})
	r.handlePrePrepare(r.rt.Cfg.ID, m)
}

// slot returns seq's slot, creating it only inside the window; nil outside.
// Late PREPAREs and COMMITs for an executed slot are dropped: its batch and
// prepared certificate live on in the execution record, which is what a
// VIEW-CHANGE carries for it.
func (r *Replica) slot(seq types.SeqNum) *slot {
	s, ok := r.slots[seq]
	if !ok && r.InWindow(seq) {
		s = &slot{
			prepares: crypto.NewQuorum(r.rt.TS, r.rt.Cfg.ID),
			commits:  crypto.NewQuorum(r.rt.TS, r.rt.Cfg.ID),
		}
		r.slots[seq] = s
		r.NoteSlot(seq)
	}
	return s
}

func (r *Replica) handlePrePrepare(from types.ReplicaID, m *PrePrepare) {
	cfg := r.rt.Cfg
	if !r.Active(m.View) || from != r.Primary() || !r.InWindow(m.Seq) {
		return
	}
	s := r.slot(m.Seq)
	if s.haveBatch {
		return
	}
	// Broadcast authenticator and client signatures were verified by the
	// inbound check before dispatch.
	s.view = m.View
	s.haveBatch = true
	s.batch = m.Batch
	s.digest = types.ProposalDigest(m.Seq, m.View, m.Batch.Digest())
	// Register both phase payloads so the inbound check verifies prepare and
	// commit shares for this slot off the event loop, and validate the
	// shares that arrived before this pre-prepare fixed them.
	cd := commitDigest(s.digest)
	r.rt.Pipeline.NoteDigest(kindPrepare, m.View, m.Seq, s.digest[:])
	r.rt.Pipeline.NoteDigest(kindCommit, m.View, m.Seq, cd[:])
	s.prepares.Fix(s.digest[:])
	s.commits.Fix(cd[:])
	// Broadcast PREPARE and count our own: the share is signed on the
	// egress loop; the self-vote loops back onto the event loop afterwards,
	// re-checking view/status since the slot may have been abandoned.
	p := &Prepare{View: m.View, Seq: m.Seq}
	digest := s.digest
	view := m.View
	r.rt.Egress.Enqueue(
		func() { p.Share = r.rt.TS.Share(digest[:]) },
		func() { r.rt.Broadcast(p) },
		func() {
			if r.Active(view) {
				r.addPrepare(cfg.ID, p, s)
			}
		})
}

func (r *Replica) onPrepare(from types.ReplicaID, m *Prepare) {
	if !r.Active(m.View) {
		return
	}
	if s := r.slot(m.Seq); s != nil {
		r.addPrepare(from, m, s)
	}
}

func (r *Replica) addPrepare(from types.ReplicaID, m *Prepare, s *slot) {
	if s.preparedCert == nil && s.prepares.Add(from, m.Share) {
		r.tryPrepared(m.Seq, s)
	}
}

// tryPrepared fires once the slot has the batch and nf prepare shares: the
// replica is "prepared" and broadcasts COMMIT.
func (r *Replica) tryPrepared(seq types.SeqNum, s *slot) {
	if s.preparedCert != nil || !s.haveBatch || s.prepares.Len() < r.rt.Cfg.NF() {
		return
	}
	cert, err := s.prepares.Combine()
	if err != nil {
		return
	}
	s.preparedCert = cert
	r.Progress()
	cd := commitDigest(s.digest)
	c := &Commit{View: s.view, Seq: seq}
	view := s.view
	r.rt.Egress.Enqueue(
		func() { c.Share = r.rt.TS.Share(cd[:]) },
		func() { r.rt.Broadcast(c) },
		func() {
			if r.Active(view) {
				r.addCommit(r.rt.Cfg.ID, c, s)
			}
		})
}

func (r *Replica) onCommit(from types.ReplicaID, m *Commit) {
	if !r.Active(m.View) {
		return
	}
	if s := r.slot(m.Seq); s != nil {
		r.addCommit(from, m, s)
	}
}

func (r *Replica) addCommit(from types.ReplicaID, m *Commit, s *slot) {
	if !s.committed && s.commits.Add(from, m.Share) {
		r.tryCommitted(m.Seq, s)
	}
}

// tryCommitted fires once the replica is prepared and holds nf commit
// shares: the batch is committed-local and scheduled for execution.
func (r *Replica) tryCommitted(seq types.SeqNum, s *slot) {
	if s.committed || s.preparedCert == nil || s.commits.Len() < r.rt.Cfg.NF() {
		return
	}
	cert, err := s.commits.Combine()
	if err != nil {
		return
	}
	s.committedCert = cert
	s.committed = true
	r.Progress()
	// The execution record stores the prepared certificate: it is what the
	// view-change protocol needs to carry the batch across views.
	events := r.rt.Exec.Commit(seq, s.view, s.batch, s.preparedCert)
	r.afterExecution(events)
}

func (r *Replica) afterExecution(events []protocol.Executed) {
	if len(events) == 0 {
		return
	}
	for _, ev := range events {
		r.NoteExecuted(ev.Rec)
		r.rt.InformBatch(ev.Rec, ev.Results, true, nil, nil)
		delete(r.slots, ev.Rec.Seq)
		r.rt.Pipeline.ForgetDigests(ev.Rec.View, ev.Rec.Seq)
		r.rt.MaybeCheckpoint(ev.Rec.Seq)
	}
	r.ProposeReady(false)
	r.TendReads(r.Now(), false)
}

// --- housekeeping ---

func (r *Replica) onTick(now time.Time) { r.TendReads(now, r.Tick(now)) }

// afterInstall resumes the protocol around an installed snapshot: per-slot
// state the snapshot superseded is discarded, sequencing and view jump
// forward, and the ordinary record fetch bridges snapshot → live head.
func (r *Replica) afterInstall(snap *storage.Snapshot, events []protocol.Executed) {
	for seq := range r.slots {
		if seq <= snap.Seq {
			delete(r.slots, seq)
		}
	}
	r.Installed(snap)
	r.afterExecution(events)
	r.rt.FetchFrom(r.rt.Exec.LastExecuted())
}

func (r *Replica) onFetchReply(m *protocol.FetchReply) {
	for i := range m.Records {
		rec := &m.Records[i]
		if !validEntry(r.rt, rec) {
			continue
		}
		r.afterExecution(r.rt.Exec.Commit(rec.Seq, rec.View, rec.Batch, rec.Proof))
	}
	// Paginated transfer: a server whose head is still ahead has more pages.
	r.rt.FetchContinue(m.Head)
}

// --- view-change rules (protocol.Rules) ---
//
// PBFT's VIEW-CHANGE carries the sender's prepared entries (batch + prepared
// certificate) above its stable checkpoint, whether executed or not:
// carrying prepared — not merely executed — entries is what makes the f+1
// client quorum safe across view changes. The new view re-orders, for every
// sequence number up to the highest prepared one, the entry prepared in the
// highest view, and fills the gaps with no-op batches (PBFT's null requests).
// PBFT executes only committed-local batches, so it never rolls back.

// VCEntries implements protocol.Rules: executed batches (their record keeps
// the prepared certificate) plus in-flight slots that reached prepared.
func (r *Replica) VCEntries(executed []types.ExecRecord) []types.ExecRecord {
	lastExec := r.rt.Exec.LastExecuted()
	first := len(executed)
	for seq, s := range r.slots {
		if seq > lastExec && s.preparedCert != nil {
			executed = append(executed, types.ExecRecord{
				Seq: seq, View: s.view, Digest: s.batch.Digest(), Proof: s.preparedCert, Batch: s.batch,
			})
		}
	}
	extra := executed[first:]
	sort.Slice(extra, func(i, j int) bool { return extra[i].Seq < extra[j].Seq })
	return executed
}

// ValidEntries implements protocol.Rules: entries ascend above the stable
// checkpoint but need not be consecutive (a replica can prepare out of
// order).
func (r *Replica) ValidEntries(m *protocol.VCRequest) bool {
	last := m.StableSeq
	for i := range m.Entries {
		e := &m.Entries[i]
		if e.Seq <= last || !validEntry(r.rt, e) {
			return false
		}
		last = e.Seq
	}
	return true
}

// validEntry accepts a record that carries its prepared certificate — over
// h = D(k||v||D(batch)), the digest prepare shares sign — or is a no-op gap
// filler, which a previous view change installed without one.
func validEntry(rt *protocol.Runtime, e *types.ExecRecord) bool {
	if isNullEntry(e) {
		return e.Digest == e.Batch.Digest()
	}
	return rt.CertifiedRecord(e)
}

// isNullEntry reports whether the entry is a no-op gap filler: an empty
// batch with no certificate.
func isNullEntry(e *types.ExecRecord) bool {
	return len(e.Proof) == 0 && len(e.Batch.Requests) == 0 && !e.Batch.ZeroPayload
}

// NewViewState implements protocol.Rules.
func (r *Replica) NewViewState(nv *protocol.NVPropose) {
	base := types.SeqNum(0)
	maxSeq := types.SeqNum(0)
	for i := range nv.Requests {
		req := &nv.Requests[i]
		base = max(base, req.StableSeq)
		for j := range req.Entries {
			maxSeq = max(maxSeq, req.Entries[j].Seq)
		}
	}
	chosen := make(map[types.SeqNum]*types.ExecRecord)
	for i := range nv.Requests {
		req := &nv.Requests[i]
		for j := range req.Entries {
			e := &req.Entries[j]
			if e.Seq <= base {
				continue
			}
			cur, ok := chosen[e.Seq]
			switch {
			case !ok:
				chosen[e.Seq] = e
			case isNullEntry(cur) != isNullEntry(e):
				// A proven entry always beats an unproven no-op filler: a
				// byzantine replica must not be able to erase a prepared
				// batch by advertising a fake high-view null.
				if isNullEntry(cur) {
					chosen[e.Seq] = e
				}
			case e.View > cur.View:
				chosen[e.Seq] = e
			}
		}
	}

	var events []protocol.Executed
	myLast := r.rt.Exec.LastExecuted()
	for seq := base + 1; seq <= maxSeq; seq++ {
		e, ok := chosen[seq]
		switch {
		case seq <= myLast:
			// Committed-local batches must agree with the new view's choice
			// (quorum intersection guarantees it for genuinely committed
			// entries).
			if rec, have := r.rt.Exec.Record(seq); ok && have && rec.Digest != e.Digest {
				panic(fmt.Sprintf("pbft: new-view conflicts with committed seq %d", seq))
			}
		case !ok:
			// Gap: fill with a no-op batch so execution stays consecutive.
			events = append(events, r.rt.Exec.Commit(seq, nv.NewView, types.Batch{}, nil)...)
		default:
			events = append(events, r.rt.Exec.Commit(e.Seq, e.View, e.Batch, e.Proof)...)
		}
	}

	r.EnterView(nv.NewView, maxSeq)
	r.afterExecution(events)
}

// ResetSlots implements protocol.Rules.
func (r *Replica) ResetSlots() { r.slots = make(map[types.SeqNum]*slot) }
