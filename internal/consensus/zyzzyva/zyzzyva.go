// Package zyzzyva implements Zyzzyva (Kotla et al., SOSP'07), the paper's
// speculative twin-path baseline (§IV-A): in the fast path the primary
// orders a request with a single ORDER-REQ message, replicas execute it
// immediately — before any agreement — and reply to the client, which
// completes only when all n replies match. Even one crashed replica breaks
// the fast path: the client times out, assembles a commit certificate from
// nf = n − f matching speculative responses, and runs the slow path
// (COMMIT / LOCAL-COMMIT) for every request, which is what collapses
// Zyzzyva's throughput in the paper's single-failure experiments.
//
// View change runs on the shared protocol.Skeleton with PoE's longest-history
// rule but, true to the original protocol (and to the paper's Fig 1 "unsafe"
// annotation and [10]), speculative histories carry no certificates, so a
// faulty replica can lie about its history during a view change. We
// reproduce the protocol as evaluated, not a corrected variant.
package zyzzyva

import (
	"context"
	"time"

	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/ledger"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/storage"
	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/wire"
)

// historyDigest is the history digest h_k a batch produces at seq in view
// when chained onto prev: the hash of the ledger block it will become.
func historyDigest(seq types.SeqNum, view types.View, batch types.Digest, prev types.Digest) types.Digest {
	b := ledger.Block{Seq: seq, Digest: batch, View: view, PrevHash: prev}
	return b.Hash()
}

// headHistory is the current speculative history digest: the ledger head's
// block hash.
func (r *Replica) headHistory() types.Digest {
	head := r.rt.Exec.Chain().Head()
	return head.Hash()
}

// OrderReq is the primary's ordering message: sequence number, batch, and
// the expected speculative history digest after executing it.
type OrderReq struct {
	View    types.View
	Seq     types.SeqNum
	History types.Digest // h_k = D(h_{k-1} || d_k)
	Batch   types.Batch
	Auth    [][]byte
}

// SignedPayload returns the bytes covered by the authenticator.
func (m *OrderReq) SignedPayload() []byte {
	bd := m.Batch.Digest()
	d := types.DigestConcat([]byte("zyz-order"), types.U64(uint64(m.View)), types.U64(uint64(m.Seq)), bd[:], m.History[:])
	return d[:]
}

// SetAuth stores the broadcast authenticator (protocol.SignedProposal).
func (m *OrderReq) SetAuth(auth [][]byte) { m.Auth = auth }

// InView places the proposal in its view (protocol.ViewBound).
func (m *OrderReq) InView() types.View { return m.View }

// specPayload is the payload replicas sign in speculative-response shares;
// nf of them form the client's commit certificate. The history digest is a
// ledger block hash, which already binds the batch digest and the whole
// prefix before it.
func specPayload(seq types.SeqNum, history types.Digest) []byte {
	d := types.DigestConcat([]byte("zyz-spec"), types.U64(uint64(seq)), history[:])
	return d[:]
}

// CommitReq is the client's slow-path message: a commit certificate of nf
// speculative-response shares proving that nf replicas speculatively
// executed the same history prefix.
type CommitReq struct {
	Client    types.ClientID
	ClientSeq uint64
	Seq       types.SeqNum
	History   types.Digest
	Shares    []crypto.Share
}

// LocalCommit is a replica's acknowledgement of a commit certificate.
type LocalCommit struct {
	From      types.ReplicaID
	ClientSeq uint64
	Seq       types.SeqNum
	Tag       []byte
}

// ForWrite names the write a LOCAL-COMMIT answers (client.Reply).
func (m *LocalCommit) ForWrite() uint64 { return m.ClientSeq }

// localCommitPayload is what a LOCAL-COMMIT's MAC covers.
func localCommitPayload(clientSeq uint64, seq types.SeqNum) types.Digest {
	return types.DigestConcat([]byte("zyz-lc"), types.U64(clientSeq), types.U64(uint64(seq)))
}

func init() {
	wire.Register(func() wire.Message { return &OrderReq{} })
	wire.Register(func() wire.Message { return &CommitReq{} })
	wire.Register(func() wire.Message { return &LocalCommit{} })
}

// Replica is one Zyzzyva replica. Sequencing, request intake, the
// view-change skeleton and the failure detector are the embedded
// protocol.Skeleton's; the rules Zyzzyva gives it are at the end of this
// file.
type Replica struct {
	*protocol.Skeleton
	rt  *protocol.Runtime
	adv *protocol.AdversarySpec

	orders map[types.SeqNum]*OrderReq

	// primaryHistories caches the primary's predicted history digests for
	// in-flight (proposed but not yet executed) sequence numbers. The
	// history digest of sequence number k is the ledger block hash at k, so
	// histories are identical on all non-faulty replicas by construction
	// and survive view changes and checkpoints.
	primaryHistories map[types.SeqNum]types.Digest

	committedStable types.SeqNum // highest seq covered by a commit certificate
}

// New creates a Zyzzyva replica.
// opts.Adversary makes the replica a Byzantine primary per the shared
// cross-protocol spec: targeted backups receive a conflicting ORDER-REQ
// variant whose history digest is re-derived for the variant batch — so
// victims speculatively execute it and genuinely diverge, the attack the
// rollback machinery of §III exists for — or no ORDER-REQ at all.
func New(cfg protocol.Config, ring *crypto.KeyRing, net network.Transport, opts protocol.Options) (*Replica, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rt := protocol.NewRuntime(cfg, ring, net, opts.RuntimeOptions)
	r := &Replica{
		rt:               rt,
		adv:              opts.Adversary,
		orders:           make(map[types.SeqNum]*OrderReq),
		primaryHistories: make(map[types.SeqNum]types.Digest),
		committedStable:  rt.Exec.StableCheckpointSeq(),
	}
	r.Skeleton = protocol.NewSkeleton(rt, r)
	rt.Sync.AfterInstall = r.afterInstall
	return r, nil
}

// Runtime exposes the replica runtime.
func (r *Replica) Runtime() *protocol.Runtime { return r.rt }

// Run processes messages until ctx is cancelled.
func (r *Replica) Run(ctx context.Context) {
	r.rt.Run(ctx, r.verifyInbound, r.Deliver, func(now time.Time) { r.Tick(now) })
}

// Handle implements protocol.Rules.
func (r *Replica) Handle(env network.Envelope) {
	switch m := env.Msg.(type) {
	case *OrderReq:
		if env.From.IsReplica() {
			r.handleOrderReq(env.From.Replica(), m)
		}
	case *CommitReq:
		if env.From.IsClient() {
			r.onCommitReq(m)
		}
	case *protocol.Fetch:
		// Fetch and FetchReply are deliberately unhandled: records carry no
		// certificates here, so there is no record-fetch bridge, and the
		// skeleton's catch-up fetches go unanswered.
	default:
		r.Dispatch(env)
	}
}

// --- normal case (fast path) ---

// Propose implements protocol.Rules. The history digest for seq is the
// ledger block hash the batch will produce; the primary predicts it for
// in-flight proposals. An equivocation variant carries a different batch
// and the matching re-derived history digest, so its receivers
// speculatively execute it — Zyzzyva's replicas diverge until the view
// change rolls the losers back.
func (r *Replica) Propose(seq types.SeqNum, batch types.Batch) {
	prev := r.prevHistory(seq)
	m := &OrderReq{View: r.View(), Seq: seq, Batch: batch}
	m.History = historyDigest(seq, m.View, m.Batch.Digest(), prev)
	r.primaryHistories[seq] = m.History
	r.rt.FanOut(m, r.adv, func() protocol.SignedProposal {
		v := *m
		v.Batch = r.adv.Variant(m.Batch)
		v.History = historyDigest(seq, m.View, v.Batch.Digest(), prev)
		return &v
	})
	r.handleOrderReq(r.rt.Cfg.ID, m)
}

// prevHistory returns the history digest a proposal at seq chains from:
// either a cached in-flight prediction or the executed ledger.
func (r *Replica) prevHistory(seq types.SeqNum) types.Digest {
	if h, ok := r.primaryHistories[seq-1]; ok {
		return h
	}
	if b, ok := r.rt.Exec.Chain().Get(seq - 1); ok {
		return b.Hash()
	}
	return r.headHistory()
}

func (r *Replica) handleOrderReq(from types.ReplicaID, m *OrderReq) {
	if !r.Active(m.View) || from != r.Primary() || !r.InWindow(m.Seq) {
		return
	}
	if _, dup := r.orders[m.Seq]; dup {
		return
	}
	// Authenticator and client signatures were verified by the
	// inbound check before dispatch.
	r.orders[m.Seq] = m
	r.NoteSlot(m.Seq)
	r.drainOrders()
}

// drainOrders speculatively executes buffered order requests in sequence
// order, verifying the history chain as it goes.
func (r *Replica) drainOrders() {
	for {
		next := r.rt.Exec.LastExecuted() + 1
		m, ok := r.orders[next]
		if !ok {
			return
		}
		delete(r.orders, next)
		if historyDigest(m.Seq, m.View, m.Batch.Digest(), r.headHistory()) != m.History {
			// The primary mis-chained the history: treat as failure.
			r.Suspect()
			return
		}
		events := r.rt.Exec.Commit(m.Seq, m.View, m.Batch, nil)
		r.afterExecution(events)
		r.ProposeReady(false)
	}
}

// afterExecution performs the per-event bookkeeping shared by the normal
// case, fetched records, and snapshot installs.
func (r *Replica) afterExecution(events []protocol.Executed) {
	for _, ev := range events {
		r.NoteExecuted(ev.Rec)
		r.informSpeculative(ev)
		delete(r.primaryHistories, ev.Rec.Seq)
		r.rt.MaybeCheckpoint(ev.Rec.Seq)
	}
}

// afterInstall resumes the protocol around an installed snapshot: buffered
// order requests the snapshot superseded are discarded, and sequencing and
// view jump forward. The history digest needs no explicit repair — it is
// derived from the ledger head, which InstallSnapshot re-rooted at the
// certified block. No record fetch bridges snapshot → live head: fetched
// records are uncertified speculative history, and adopting a suffix a peer
// later rolls back would leave this replica divergent if it misses that
// view change. Zyzzyva's own catch-up is the view change — the NV-PROPOSE
// carries the executed records a lagging replica is missing — which the
// order-gap suspicion timer reaches on its own.
func (r *Replica) afterInstall(snap *storage.Snapshot, events []protocol.Executed) {
	for seq := range r.orders {
		if seq <= snap.Seq {
			delete(r.orders, seq)
		}
	}
	for seq := range r.primaryHistories {
		if seq <= snap.Seq {
			delete(r.primaryHistories, seq)
		}
	}
	r.committedStable = max(r.committedStable, snap.Seq)
	r.Installed(snap)
	r.afterExecution(events)
	r.drainOrders()
}

// informSpeculative stages speculative responses carrying the history digest
// and this replica's share over the ordering (the client's commit
// certificate material). The history digest is fixed on the event loop; the
// threshold share — one Ed25519 sign per batch — and the per-reply MACs are
// computed on the egress loop, and on a durable replica the sends wait for
// the batch's WAL group.
func (r *Replica) informSpeculative(ev protocol.Executed) {
	hist := r.headHistory()
	payload := specPayload(ev.Rec.Seq, hist)
	var share crypto.Share
	r.rt.InformBatch(ev.Rec, ev.Results, false, func() { share = r.rt.TS.Share(payload) }, func(m *protocol.Inform) {
		m.Speculative, m.OrderProof, m.Share = true, hist, share
	})
}

// --- slow path ---

// certified reports whether a commit request carries nf distinct valid
// shares over the ordering it claims. The shares are relayed by the client,
// so none of them is taken unchecked, this replica's own included.
func certified(rt *protocol.Runtime, m *CommitReq) bool {
	q := crypto.NewQuorum(rt.TS, -1)
	q.Fix(specPayload(m.Seq, m.History))
	for _, sh := range m.Shares {
		q.Add(sh.Signer, sh)
	}
	return q.Len() >= rt.Cfg.NF()
}

// onCommitReq acknowledges a commit certificate; the authentication
// pipeline has proved it (certified).
func (r *Replica) onCommitReq(m *CommitReq) {
	if m.Seq > r.committedStable {
		r.committedStable = m.Seq
	}
	lc := &LocalCommit{From: r.rt.Cfg.ID, ClientSeq: m.ClientSeq, Seq: m.Seq}
	d := localCommitPayload(m.ClientSeq, m.Seq)
	lc.Tag = r.rt.Keys.MAC(types.ClientNode(m.Client), d[:])
	r.rt.Net.Send(types.ClientNode(m.Client), lc)
}

// --- view-change rules (protocol.Rules) ---
//
// Zyzzyva's view change follows the same longest-history scheme as PoE, but
// a replica's history is what it speculatively executed, and speculative
// execution produces no certificates: entries are only checked for shape, so
// a faulty replica can lie about its history — the root of the protocol's
// known unsafety [10], reproduced as evaluated. A restarted or lagging
// replica has no record fetch to lean on either (fetched records would be
// uncertified too): the NV-PROPOSE carries what it is missing.

// VCEntries implements protocol.Rules.
func (r *Replica) VCEntries(executed []types.ExecRecord) []types.ExecRecord { return executed }

// ValidEntries implements protocol.Rules.
func (r *Replica) ValidEntries(m *protocol.VCRequest) bool {
	for i := range m.Entries {
		e := &m.Entries[i]
		if e.Seq != m.StableSeq+types.SeqNum(i)+1 || e.Digest != e.Batch.Digest() {
			return false
		}
	}
	return true
}

// NewViewState implements protocol.Rules. A lying history can ask for a
// rollback below the stable checkpoint; the executor refuses it and the
// replica follows the rest of the new view's history from where it stands.
func (r *Replica) NewViewState(nv *protocol.NVPropose) {
	kmax, events, _ := r.rt.AdoptLongestPrefix(nv)
	r.EnterView(nv.NewView, kmax)
	r.afterExecution(events)
}

// ResetSlots implements protocol.Rules. Histories re-anchor on the ledger
// head the new view starts from.
func (r *Replica) ResetSlots() {
	r.orders = make(map[types.SeqNum]*OrderReq)
	r.primaryHistories = make(map[types.SeqNum]types.Digest)
}
