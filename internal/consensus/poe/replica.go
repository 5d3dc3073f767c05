package poe

import (
	"context"
	"fmt"
	"time"

	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/storage"
	"github.com/poexec/poe/internal/types"
)

// Options configure a PoE replica.
type Options struct {
	protocol.RuntimeOptions
	// Adversary makes this replica a Byzantine primary per the shared
	// cross-protocol spec (equivocating PROPOSE variants, selective
	// silence, withheld CERTIFY broadcasts). Nil means honest.
	Adversary *protocol.AdversarySpec
}

// Replica is one PoE replica: the backup role of Fig 3 plus, when
// id = v mod n, the primary role. Sequencing, request intake, the read gate,
// the view-change algorithm of Fig 5 and the failure detector are the
// embedded skeleton's; the rules PoE gives it are at the end of this file.
// All state is confined to the Run goroutine.
type Replica struct {
	*protocol.Skeleton
	rt  *protocol.Runtime
	adv *protocol.AdversarySpec

	slots map[types.SeqNum]*slot
}

type slot struct {
	view        types.View
	haveBatch   bool
	batch       types.Batch
	digest      types.Digest // h = D(k||v||D(batch))
	supported   bool
	shares      crypto.Quorum // SUPPORT shares toward the certificate
	committed   bool
	pendingCert *Certify // certify that arrived before the proposal
}

// New creates a PoE replica bound to a transport. Call Run to start it.
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

// Runtime exposes the replica's runtime for inspection by tests and the
// harness (metrics, executor state). The returned value must be treated as
// read-mostly while the replica runs.
func (r *Replica) Runtime() *protocol.Runtime { return r.rt }

// Run processes messages until the context is cancelled.
func (r *Replica) Run(ctx context.Context) {
	r.rt.Run(ctx, r.verifyInbound, r.Deliver, r.onTick)
}

// Handle implements protocol.Rules.
func (r *Replica) Handle(env network.Envelope) {
	switch m := env.Msg.(type) {
	case *Propose:
		r.onPropose(env.From, m)
	case *Support:
		r.onSupport(env.From, m)
	case *Certify:
		r.onCertify(env.From, m)
	case *protocol.FetchReply:
		r.onFetchReply(m)
	case *protocol.ReadRequest:
		r.OnReadRequest(&m.Req)
	case *protocol.LeaseGrant:
		r.rt.Lease.OnGrant(m)
	default:
		r.Dispatch(env)
	}
}

// --- primary: propose ---

// Propose implements protocol.Rules.
func (r *Replica) Propose(seq types.SeqNum, batch types.Batch) {
	m := &Propose{View: r.View(), Seq: seq, Batch: batch}
	r.rt.FanOut(m, r.adv, func() protocol.SignedProposal {
		v := *m
		v.Batch = r.adv.Variant(m.Batch)
		return &v
	})
	r.handlePropose(r.rt.Cfg.ID, m)
}

// --- backup: support ---

func (r *Replica) onPropose(from types.NodeID, m *Propose) {
	if !from.IsReplica() {
		return
	}
	r.handlePropose(from.Replica(), m)
}

func (r *Replica) handlePropose(from types.ReplicaID, m *Propose) {
	cfg := r.rt.Cfg
	if !r.Active(m.View) || from != r.Primary() || !r.InWindow(m.Seq) {
		return
	}
	s := r.slot(m.Seq)
	if s.haveBatch {
		return // only the first k-th proposal in a view is supported (Fig 3, Line 12)
	}
	// Broadcast authenticator and per-request client signatures were already
	// verified by the inbound check (verify.go); an invalid
	// proposal never reaches this point.
	s.view = m.View
	s.haveBatch = true
	s.batch = m.Batch
	s.digest = types.ProposalDigest(m.Seq, m.View, m.Batch.Digest())
	// Register the SUPPORT payload so the inbound check verifies incoming shares
	// for this slot off the event loop.
	r.rt.Pipeline.NoteDigest(kindSupport, m.View, m.Seq, s.digest[:])
	s.supported = true
	// The SUPPORT share is this replica's signature over the slot digest:
	// computed on the egress loop, released to the wire in order, and —
	// when this replica collects certificates itself — looped back onto the
	// event loop to count toward the slot's quorum. The loop-back re-checks
	// view and status: it runs later than this handler, and the slot may
	// have been abandoned by a view change in between.
	sup := &Support{View: m.View, Seq: m.Seq}
	digest := s.digest
	macMode := cfg.Scheme == crypto.SchemeMAC || cfg.Scheme == crypto.SchemeNone
	toPrimary := !macMode && !r.IsPrimary()
	primary := r.Primary()
	collector := macMode || r.IsPrimary()
	view := m.View
	var local func()
	if collector {
		local = func() {
			if r.Active(view) {
				r.addSupport(cfg.ID, sup, s)
			}
		}
	}
	r.rt.Egress.Enqueue(
		func() { sup.Share = r.rt.TS.Share(digest[:]) },
		func() {
			if macMode {
				// MAC instantiation (Appendix A): SUPPORT is broadcast
				// all-to-all and every replica assembles the certificate.
				r.rt.Broadcast(sup)
			} else if toPrimary {
				// TS instantiation: SUPPORT goes to the primary only.
				r.rt.SendReplica(primary, sup)
			}
		},
		local)
	if s.pendingCert != nil {
		cert := s.pendingCert
		s.pendingCert = nil
		r.handleCertify(cert, s)
	}
	// Shares stashed by onSupport before this proposal fixed the digest are
	// validated now; the survivors may already reach the threshold.
	s.shares.Fix(s.digest[:])
	r.trySupported(m.Seq, s)
}

// slot returns seq's slot, creating it only inside the window; nil outside.
func (r *Replica) slot(seq types.SeqNum) *slot {
	s, ok := r.slots[seq]
	if !ok && r.InWindow(seq) {
		s = &slot{shares: crypto.NewQuorum(r.rt.TS, r.rt.Cfg.ID)}
		r.slots[seq] = s
		r.NoteSlot(seq)
	}
	return s
}

func (r *Replica) onSupport(from types.NodeID, m *Support) {
	if !from.IsReplica() || !r.Active(m.View) {
		return
	}
	cfg := r.rt.Cfg
	collector := cfg.Scheme == crypto.SchemeMAC || cfg.Scheme == crypto.SchemeNone || r.IsPrimary()
	if !collector {
		return
	}
	// The slot is created even when the proposal has not arrived yet:
	// SUPPORTs arrive on the other backups' connections and can overtake a
	// large proposal, and supports are sent exactly once — dropping an early
	// one permanently costs a share. With a replica down the collector holds
	// exactly nf live shares, so one dropped share wedges the slot forever
	// (the stall the process-level kill/restart battery exposed).
	if s := r.slot(m.Seq); s != nil {
		r.addSupport(from.Replica(), m, s)
	}
}

// addSupport counts a share toward the slot's certificate. The quorum
// validates each share once (the inbound check usually proved it already, making
// the check a memo hit), so a Byzantine share never occupies the slot and
// never makes the honest shares pay for another verification.
func (r *Replica) addSupport(from types.ReplicaID, m *Support, s *slot) {
	if !s.committed && s.shares.Add(from, m.Share) {
		r.trySupported(m.Seq, s)
	}
}

// trySupported fires once the slot has the batch, this replica has
// transmitted its own SUPPORT (Fig 3 requires it before view-committing),
// and nf validated shares are collected.
func (r *Replica) trySupported(seq types.SeqNum, s *slot) {
	if s.committed || !s.haveBatch || !s.supported || s.shares.Len() < r.rt.Cfg.NF() {
		return
	}
	cert, err := s.shares.Combine()
	if err != nil {
		return
	}
	switch r.rt.Cfg.Scheme {
	case crypto.SchemeMAC, crypto.SchemeNone:
		// Every replica reached the certificate locally; commit directly.
		r.commitSlot(seq, s, cert)
	default:
		// TS mode: the primary distributes the certificate.
		if !r.adv.SilenceCert(seq) {
			r.rt.Broadcast(&Certify{View: r.View(), Seq: seq, Digest: s.digest, Cert: cert})
		}
		r.commitSlot(seq, s, cert)
	}
}

func (r *Replica) onCertify(from types.NodeID, m *Certify) {
	if !from.IsReplica() || !r.Active(m.View) || from.Replica() != r.Primary() || m.Seq <= r.rt.Exec.LastExecuted() {
		return
	}
	r.handleCertify(m, r.slot(m.Seq))
}

// handleCertify handles a certificate for a slot, nil beyond the window.
func (r *Replica) handleCertify(m *Certify, s *slot) {
	if s != nil && s.committed {
		return
	}
	if s == nil || !s.haveBatch || !s.supported {
		// The proposal may still be in flight; remember the certificate
		// (Fig 3 requires the replica to have transmitted SUPPORT before
		// view-committing). A valid certificate also proves the decision
		// happened without us — the malicious primary may be keeping this
		// replica in the dark (Example 3(2)) — so start state transfer.
		if s != nil {
			s.pendingCert = m
		}
		if r.rt.TS.Verify(m.Digest[:], m.Cert) {
			r.rt.FetchFrom(r.rt.Exec.LastExecuted())
		}
		return
	}
	if s.digest != m.Digest || !r.rt.TS.Verify(m.Digest[:], m.Cert) {
		return
	}
	r.commitSlot(m.Seq, s, m.Cert)
}

// commitSlot logs VCommitR (Fig 3, Line 18) and schedules speculative
// execution.
func (r *Replica) commitSlot(seq types.SeqNum, s *slot, cert []byte) {
	if s.committed {
		return
	}
	s.committed = true
	r.Progress()
	events := r.rt.Exec.Commit(seq, s.view, s.batch, cert)
	r.afterExecution(events)
}

// afterExecution handles executor events: INFORM the clients (Fig 3,
// Line 23), update metrics, trigger checkpoints, clear failure-detection
// state, discard retired slots, let the primary propose into the freed
// window, and tend the read gate.
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

func (r *Replica) onFetchReply(m *protocol.FetchReply) {
	for i := range m.Records {
		rec := &m.Records[i]
		if !r.rt.CertifiedRecord(rec) {
			continue
		}
		r.afterExecution(r.rt.Exec.Commit(rec.Seq, rec.View, rec.Batch, rec.Proof))
	}
	// Paginated transfer: a server whose head is still ahead has more pages.
	r.rt.FetchContinue(m.Head)
}

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

// --- view-change rules (protocol.Rules) ---
//
// A PoE VC-REQUEST carries the sender's execution summary E — every batch
// executed after its stable checkpoint, each justified by its certificate.
// The new view starts from E′, the longest such summary among the nf
// requests: replicas roll back any speculatively executed batch not in E′,
// execute the ones they miss, and continue at kmax+1 (Fig 5).

// VCEntries implements protocol.Rules.
func (r *Replica) VCEntries(executed []types.ExecRecord) []types.ExecRecord { return executed }

// ValidEntries implements protocol.Rules.
func (r *Replica) ValidEntries(m *protocol.VCRequest) bool { return r.rt.CertifiedPrefix(m) }

// NewViewState implements protocol.Rules.
func (r *Replica) NewViewState(nv *protocol.NVPropose) {
	kmax, events, err := r.rt.AdoptLongestPrefix(nv.Requests)
	if err != nil {
		// nf replicas certified conflicting histories: a broken invariant.
		panic(fmt.Sprintf("poe: view change rollback: %v", err))
	}
	r.EnterView(nv.NewView, kmax)
	r.afterExecution(events)
}

// ResetSlots implements protocol.Rules.
func (r *Replica) ResetSlots() { r.slots = make(map[types.SeqNum]*slot) }
