// Package sbft implements SBFT (Gueta et al., DSN'19) as evaluated in the
// paper (§IV-A): a linearized, threshold-signature-based protocol with five
// linear phases and designated collector and executor roles.
//
// Normal case:
//
//  1. PRE-PREPARE: the primary proposes a batch.
//  2. SIGN-SHARE: every replica sends a signature share to the collector.
//  3. FULL-COMMIT-PROOF: the collector distributes the combined certificate.
//     The fast path requires shares from ALL n replicas; if any share is
//     missing when the collector's timer fires, the slow path inserts two
//     additional linear phases (PREPARE2 / SHARE2) before the proof goes
//     out — this timer-driven fallback is why a single crashed backup
//     degrades SBFT in the paper's Fig 9(a).
//  4. SIGN-STATE: replicas execute the committed batch and send a share over
//     the resulting ledger position to the executor.
//  5. EXECUTE-ACK: the executor combines nf shares and sends the aggregated
//     certificate with the results to the clients and all replicas, sparing
//     clients the need to collect reply quorums (what PoE's ingredient I4
//     deliberately avoids paying for).
//
// View change runs on the shared protocol.Skeleton with PoE's rules: a
// request carries the executed batches with their full-commit certificates,
// and the new view starts from the longest certified prefix. The executor
// waits for nf (rather than f+1) state shares so that a client-visible
// execution implies f+1 non-faulty replicas hold the commit certificate,
// which is what makes that rule safe here (see DESIGN.md §3).
package sbft

import (
	"context"
	"fmt"
	"time"

	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/storage"
	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/wire"
)

// PrePrepare is the primary's proposal.
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

// SignShare carries a replica's signature share to the collector.
type SignShare struct {
	View  types.View
	Seq   types.SeqNum
	Share crypto.Share
}

// Prepare2 opens the slow path: the collector distributes the nf-share
// certificate it has and asks for second-round shares.
type Prepare2 struct {
	View   types.View
	Seq    types.SeqNum
	Digest types.Digest
	Cert   []byte
}

// Share2 is the second-round share of the slow path.
type Share2 struct {
	View  types.View
	Seq   types.SeqNum
	Share crypto.Share
}

// FullCommitProof distributes the commit certificate; replicas execute on
// receiving it.
type FullCommitProof struct {
	View   types.View
	Seq    types.SeqNum
	Digest types.Digest // h
	Cert   []byte
}

// SignState carries a replica's post-execution share to the executor.
type SignState struct {
	View  types.View
	Seq   types.SeqNum
	Share crypto.Share
}

// ExecuteAck is the executor's aggregated acknowledgement, broadcast to
// replicas; clients receive the same certificate inside their Inform.Cert.
type ExecuteAck struct {
	View types.View
	Seq  types.SeqNum
	Head types.Digest // ledger block hash at Seq
	Cert []byte
}

// execPayload is the payload state shares sign: position + ledger block
// hash, which transitively binds the whole executed prefix.
func execPayload(seq types.SeqNum, head types.Digest) []byte {
	d := types.DigestConcat([]byte("sbft-exec"), types.U64(uint64(seq)), head[:])
	return d[:]
}

// CertifiedReply is SBFT's client reply check: one Inform completes a
// request when it carries the executor's certificate, nf state shares over
// its position and ledger head. ring, nf and scheme are the cluster's.
func CertifiedReply(ring *crypto.KeyRing, nf int, scheme crypto.Scheme) func(m *protocol.Inform) bool {
	v := crypto.NewVerifier(ring, nf, scheme == crypto.SchemeTS || scheme == crypto.SchemeED)
	return func(m *protocol.Inform) bool {
		return len(m.Cert) > 0 && v.Verify(execPayload(m.Seq, m.OrderProof), m.Cert)
	}
}

// InView places each normal-case message in its view (protocol.ViewBound).
func (m *PrePrepare) InView() types.View      { return m.View }
func (m *SignShare) InView() types.View       { return m.View }
func (m *Prepare2) InView() types.View        { return m.View }
func (m *Share2) InView() types.View          { return m.View }
func (m *FullCommitProof) InView() types.View { return m.View }
func (m *SignState) InView() types.View       { return m.View }

func init() {
	wire.Register(func() wire.Message { return &PrePrepare{} })
	wire.Register(func() wire.Message { return &SignShare{} })
	wire.Register(func() wire.Message { return &Prepare2{} })
	wire.Register(func() wire.Message { return &Share2{} })
	wire.Register(func() wire.Message { return &FullCommitProof{} })
	wire.Register(func() wire.Message { return &SignState{} })
	wire.Register(func() wire.Message { return &ExecuteAck{} })
}

// Collector returns the collector replica of view v (the primary, per the
// paper's note that the primary can play both roles).
func Collector(cfg protocol.Config, v types.View) types.ReplicaID { return cfg.Primary(v) }

// Executor returns the executor replica of view v: the replica after the
// primary, so the two roles are distinct (as SBFT suggests for the fast
// path).
func Executor(cfg protocol.Config, v types.View) types.ReplicaID {
	return types.ReplicaID((uint64(v) + 1) % uint64(cfg.N))
}

// collectorWait is how long the collector waits for all n shares before
// falling back to the slow path (the paper's replica-side timeout, chosen
// small in §IV-D).
const collectorWait = 40 * time.Millisecond

// Replica is one SBFT replica. Sequencing, request intake, the view-change
// skeleton and the failure detector are the embedded protocol.Skeleton's;
// the rules SBFT gives it are at the end of this file.
type Replica struct {
	*protocol.Skeleton
	rt  *protocol.Runtime
	adv *protocol.AdversarySpec

	slots map[types.SeqNum]*slot

	collTimeout time.Duration
}

type slot struct {
	view       types.View
	haveBatch  bool
	batch      types.Batch
	digest     types.Digest  // h
	shares     crypto.Quorum // SIGN-SHARE, over h
	firstShare time.Time
	slowPath   bool
	shares2    crypto.Quorum // SHARE2, over share2Digest(h)
	proofSent  bool
	committed  bool
	// executor-side, kept by the executor only
	stateShares crypto.Quorum // SIGN-STATE, over execPayload
	ackSent     bool
	execHead    types.Digest
	results     []types.Result
	rec         *types.ExecRecord
}

// New creates an SBFT replica.
// opts.Adversary makes the replica a Byzantine primary/collector per the
// shared cross-protocol spec: equivocating or suppressed PRE-PREPAREs toward
// the listed backups, and — with SilenceCertificates — a collector that
// withholds FULL-COMMIT-PROOF so backups sign-share but never commit.
func New(cfg protocol.Config, ring *crypto.KeyRing, net network.Transport, opts protocol.Options) (*Replica, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rt := protocol.NewRuntime(cfg, ring, net, opts.RuntimeOptions)
	r := &Replica{
		rt:          rt,
		adv:         opts.Adversary,
		slots:       make(map[types.SeqNum]*slot),
		collTimeout: collectorWait,
	}
	r.Skeleton = protocol.NewSkeleton(rt, r)
	rt.Sync.AfterInstall = r.afterInstall
	return r, nil
}

// Runtime exposes the replica runtime.
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
	case *SignShare:
		if env.From.IsReplica() {
			r.onSignShare(env.From.Replica(), m)
		}
	case *Prepare2:
		if env.From.IsReplica() {
			r.onPrepare2(env.From.Replica(), m)
		}
	case *Share2:
		if env.From.IsReplica() {
			r.onShare2(env.From.Replica(), m)
		}
	case *FullCommitProof:
		r.onFullCommitProof(m)
	case *SignState:
		if env.From.IsReplica() {
			r.onSignState(env.From.Replica(), m)
		}
	case *ExecuteAck:
		// Replicas learn the execution is client-visible; nothing further
		// to do in this implementation (the record is already durable).
	case *protocol.FetchReply:
		r.onFetchReply(m)
	default:
		r.Dispatch(env)
	}
}

func (r *Replica) isCollector() bool { return Collector(r.rt.Cfg, r.View()) == r.rt.Cfg.ID }
func (r *Replica) isExecutor() bool  { return Executor(r.rt.Cfg, r.View()) == r.rt.Cfg.ID }

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
// A backup drops its slot when it executes the batch: the late shares and
// proofs for it complete nothing. The executor keeps its slot until
// EXECUTE-ACK, and from then on drops the late SIGN-STATEs too — the
// certificate they would join has already gone out.
func (r *Replica) slot(seq types.SeqNum) *slot {
	s, ok := r.slots[seq]
	if !ok && r.InWindow(seq) {
		s = r.newSlot(seq)
	}
	return s
}

func (r *Replica) newSlot(seq types.SeqNum) *slot {
	ts, self := r.rt.TS, r.rt.Cfg.ID
	s := &slot{
		shares:      crypto.NewQuorum(ts, self),
		shares2:     crypto.NewQuorum(ts, self),
		stateShares: crypto.NewQuorum(ts, self),
	}
	r.slots[seq] = s
	r.NoteSlot(seq)
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
	// Register the share payloads (first round and the slow path's second
	// round) so the inbound check verifies arriving shares off the event loop.
	// Shares stashed by onSignShare before this pre-prepare fixed the digest
	// are validated now; the collector's own share still has to loop back
	// before the fast path can complete, so no threshold re-check is needed.
	d2 := share2Digest(s.digest)
	r.rt.Pipeline.NoteDigest(kindSign, m.View, m.Seq, s.digest[:])
	r.rt.Pipeline.NoteDigest(kindShare2, m.View, m.Seq, d2[:])
	s.shares.Fix(s.digest[:])
	s.shares2.Fix(d2[:])
	// The SIGN-SHARE is signed on the egress loop; the collector's own share
	// loops back onto the event loop, re-checking view/status.
	ss := &SignShare{View: m.View, Seq: m.Seq}
	digest := s.digest
	view := m.View
	coll := Collector(cfg, r.View())
	isColl := coll == cfg.ID
	var local func()
	if isColl {
		local = func() {
			if r.Active(view) {
				r.addSignShare(cfg.ID, ss, s)
			}
		}
	}
	r.rt.Egress.Enqueue(
		func() { ss.Share = r.rt.TS.Share(digest[:]) },
		func() {
			if !isColl {
				r.rt.SendReplica(coll, ss)
			}
		},
		local)
}

func (r *Replica) onSignShare(from types.ReplicaID, m *SignShare) {
	if !r.Active(m.View) || !r.isCollector() || !r.InWindow(m.Seq) {
		return
	}
	// The slot is created even when the pre-prepare has not arrived yet:
	// SIGN-SHAREs arrive on the other replicas' connections and can overtake
	// a large proposal, and shares are sent exactly once — dropping an early
	// one permanently costs a share, which here means the fast path (all n shares) can never
	// complete and every such slot pays the collector-timeout slow path.
	s := r.slot(m.Seq)
	if s.proofSent {
		return
	}
	r.addSignShare(from, m, s)
}

func (r *Replica) addSignShare(from types.ReplicaID, m *SignShare, s *slot) {
	if s.proofSent || s.slowPath {
		return
	}
	first := s.shares.Len() == 0
	if !s.shares.Add(from, m.Share) {
		return
	}
	if first {
		s.firstShare = time.Now()
	}
	// Fast path: all n replicas answered (only decidable once the digest is
	// fixed — stashed shares cannot combine against a zero digest).
	if s.haveBatch && s.shares.Len() == r.rt.Cfg.N {
		r.sendProof(m.Seq, s)
	}
}

// sendProof combines the first-round shares and distributes the full commit
// proof. The slow path's proof carries the first-round certificate too (the
// second round's proves liveness of the fallback quorum, and both commit
// the same digest).
func (r *Replica) sendProof(seq types.SeqNum, s *slot) {
	cert, err := s.shares.Combine()
	if err != nil {
		return
	}
	s.proofSent = true
	if !r.adv.SilenceCert(seq) {
		proof := &FullCommitProof{View: s.view, Seq: seq, Digest: s.digest, Cert: cert}
		r.rt.Broadcast(proof)
	}
	r.commit(seq, s, cert)
}

// startSlowPath runs the two extra linear phases after the collector's
// timer fires with at least nf (but not all n) shares.
func (r *Replica) startSlowPath(seq types.SeqNum, s *slot) {
	cert, err := s.shares.Combine()
	if err != nil {
		return
	}
	s.slowPath = true
	p2 := &Prepare2{View: s.view, Seq: seq, Digest: s.digest, Cert: cert}
	r.rt.Broadcast(p2)
	r.onPrepare2(r.rt.Cfg.ID, p2)
}

func share2Digest(h types.Digest) types.Digest {
	return types.DigestConcat([]byte("sbft-share2"), h[:])
}

func (r *Replica) onPrepare2(from types.ReplicaID, m *Prepare2) {
	if !r.Active(m.View) || from != Collector(r.rt.Cfg, r.View()) {
		return
	}
	s := r.slot(m.Seq)
	if s == nil || !s.haveBatch || s.digest != m.Digest || !r.rt.TS.Verify(m.Digest[:], m.Cert) {
		return
	}
	d2 := share2Digest(s.digest)
	sh := &Share2{View: m.View, Seq: m.Seq}
	view := m.View
	coll := Collector(r.rt.Cfg, r.View())
	isColl := coll == r.rt.Cfg.ID
	var local func()
	if isColl {
		local = func() {
			if r.Active(view) {
				r.addShare2(r.rt.Cfg.ID, sh, s)
			}
		}
	}
	r.rt.Egress.Enqueue(
		func() { sh.Share = r.rt.TS.Share(d2[:]) },
		func() {
			if !isColl {
				r.rt.SendReplica(coll, sh)
			}
		},
		local)
}

func (r *Replica) onShare2(from types.ReplicaID, m *Share2) {
	if !r.Active(m.View) || !r.isCollector() {
		return
	}
	// No pre-proposal stash needed here, unlike onSignShare: second-round
	// shares only answer a Prepare2 this collector itself sent, which it can
	// only have done after the pre-prepare fixed the slot's batch and digest.
	s, ok := r.slots[m.Seq]
	if !ok || !s.haveBatch || s.proofSent {
		return
	}
	r.addShare2(from, m, s)
}

func (r *Replica) addShare2(from types.ReplicaID, m *Share2, s *slot) {
	if !s.proofSent && s.shares2.Add(from, m.Share) && s.shares2.Len() >= r.rt.Cfg.NF() {
		// The slow path completed.
		r.sendProof(m.Seq, s)
	}
}

func (r *Replica) onFullCommitProof(m *FullCommitProof) {
	if !r.Active(m.View) {
		return
	}
	s := r.slot(m.Seq)
	if s == nil || s.committed || !s.haveBatch {
		return
	}
	if s.digest != m.Digest || !r.rt.TS.Verify(m.Digest[:], m.Cert) {
		return
	}
	r.commit(m.Seq, s, m.Cert)
}

// commit schedules execution; after executing, replicas send SIGN-STATE to
// the executor (phase 4).
func (r *Replica) commit(seq types.SeqNum, s *slot, cert []byte) {
	if s.committed {
		return
	}
	s.committed = true
	r.Progress()
	events := r.rt.Exec.Commit(seq, s.view, s.batch, cert)
	r.afterExecution(events)
}

func (r *Replica) afterExecution(events []protocol.Executed) {
	if len(events) == 0 {
		return
	}
	view := r.View()
	exec := Executor(r.rt.Cfg, view)
	isExec := exec == r.rt.Cfg.ID
	for _, ev := range events {
		r.NoteExecuted(ev.Rec)
		head, _ := r.rt.Exec.Chain().Get(ev.Rec.Seq)
		headHash := head.Hash()
		if isExec {
			r.noteExecution(ev, headHash)
		} else {
			delete(r.slots, ev.Rec.Seq)
			r.rt.Pipeline.ForgetDigests(ev.Rec.View, ev.Rec.Seq)
		}
		// The SIGN-STATE share is signed on the egress loop; the executor
		// replica's own share loops back onto the event loop.
		payload := execPayload(ev.Rec.Seq, headHash)
		ss := &SignState{View: view, Seq: ev.Rec.Seq}
		var local func()
		if isExec {
			local = func() {
				if r.Active(view) {
					r.addSignState(r.rt.Cfg.ID, ss)
				}
			}
		}
		r.rt.Egress.Enqueue(
			func() { ss.Share = r.rt.TS.Share(payload) },
			func() {
				if !isExec {
					r.rt.SendReplica(exec, ss)
				}
			},
			local)
		r.rt.MaybeCheckpoint(ev.Rec.Seq)
	}
	r.ProposeReady(false)
}

// noteExecution retains the executor-side context needed to answer clients
// once the state certificate forms, and registers the state-share payload so
// the inbound check verifies arriving SIGN-STATE shares off the event loop. The
// slot is created even though its batch has just executed: the executor
// holds it until EXECUTE-ACK.
func (r *Replica) noteExecution(ev protocol.Executed, headHash types.Digest) {
	s, ok := r.slots[ev.Rec.Seq]
	if !ok {
		s = r.newSlot(ev.Rec.Seq)
	}
	s.execHead = headHash
	s.results = ev.Results
	s.rec = ev.Rec
	payload := execPayload(ev.Rec.Seq, headHash)
	r.rt.Pipeline.NoteDigest(kindState, r.View(), ev.Rec.Seq, payload)
	// State shares that arrived before this replica executed are validated
	// now.
	s.stateShares.Fix(payload)
}

func (r *Replica) onSignState(from types.ReplicaID, m *SignState) {
	if !r.Active(m.View) || !r.isExecutor() {
		return
	}
	r.addSignState(from, m)
}

func (r *Replica) addSignState(from types.ReplicaID, m *SignState) {
	if s := r.slot(m.Seq); s != nil && !s.ackSent && s.stateShares.Add(from, m.Share) {
		r.tryAck(m.Seq, s)
	}
}

// tryAck fires once the executor has executed seq itself and holds nf state
// shares: phase 5, EXECUTE-ACK to replicas and the aggregated reply to
// clients.
func (r *Replica) tryAck(seq types.SeqNum, s *slot) {
	if s.ackSent || s.rec == nil || s.stateShares.Len() < r.rt.Cfg.NF() {
		return
	}
	cert, err := s.stateShares.Combine()
	if err != nil {
		return
	}
	s.ackSent = true
	r.rt.Broadcast(&ExecuteAck{View: r.View(), Seq: seq, Head: s.execHead, Cert: cert})
	// Aggregated replies to the clients: one message each, carrying the
	// certificate (the paper's executor role).
	head := s.execHead
	r.rt.InformBatch(s.rec, s.results, false, nil, func(m *protocol.Inform) { m.OrderProof, m.Cert = head, cert })
	delete(r.slots, seq)
	r.rt.Pipeline.ForgetDigests(s.view, seq)
	r.rt.Pipeline.ForgetDigests(r.View(), seq)
}

// --- housekeeping ---

func (r *Replica) onTick(now time.Time) {
	r.Tick(now)
	if r.Normal() && r.isCollector() {
		r.checkCollectorTimeouts(now)
	}
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

// checkCollectorTimeouts moves stalled fast-path slots to the slow path. A
// slot that holds only stashed pre-proposal shares (no batch yet) cannot
// start the slow path: there is no digest to combine against.
func (r *Replica) checkCollectorTimeouts(now time.Time) {
	for seq, s := range r.slots {
		if !s.haveBatch || s.proofSent || s.slowPath || s.shares.Len() == 0 {
			continue
		}
		if s.shares.Len() >= r.rt.Cfg.NF() && now.Sub(s.firstShare) > r.collTimeout {
			r.startSlowPath(seq, s)
		}
	}
}

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

// --- view-change rules (protocol.Rules) ---
//
// SBFT's view change follows the PoE-style longest-certified-prefix scheme:
// every executed batch carries its full-commit certificate, so view-change
// requests are third-party verifiable (see the package comment for why the
// executor's nf-share rule makes this safe).

// VCEntries implements protocol.Rules.
func (r *Replica) VCEntries(executed []types.ExecRecord) []types.ExecRecord { return executed }

// ValidEntries implements protocol.Rules.
func (r *Replica) ValidEntries(m *protocol.VCRequest) bool { return r.rt.CertifiedPrefix(m) }

// NewViewState implements protocol.Rules.
func (r *Replica) NewViewState(nv *protocol.NVPropose) {
	kmax, events, err := r.rt.AdoptLongestPrefix(nv)
	if err != nil {
		// nf replicas certified conflicting histories: a broken invariant.
		panic(fmt.Sprintf("sbft: view change rollback: %v", err))
	}
	r.EnterView(nv.NewView, kmax)
	r.afterExecution(events)
}

// ResetSlots implements protocol.Rules.
func (r *Replica) ResetSlots() { r.slots = make(map[types.SeqNum]*slot) }
