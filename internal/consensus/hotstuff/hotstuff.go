// Package hotstuff implements chained HotStuff (Yin et al., PODC'19) as the
// paper's rotating-leader baseline (§IV-A): the leader of round i proposes a
// node justified by a quorum certificate (QC) over its parent; replicas vote
// by sending threshold shares to the NEXT leader, which combines them into
// the next QC and proposes round i+1. A node commits once it heads a
// three-chain of consecutive rounds.
//
// The defining performance property the paper measures: consensus is
// sequential. Each leader must wait for the previous round's QC before
// proposing, so requests cannot be processed out-of-order (§II-F, Fig 9k/l);
// chaining pipelines the phases but not the decisions.
package hotstuff

import (
	"context"
	"sort"
	"time"

	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/storage"
	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/wire"
)

// QC is a quorum certificate: nf threshold shares over a node hash.
type QC struct {
	Round types.View
	Node  types.Digest
	Cert  []byte
}

// Node is one entry in the HotStuff chain.
type Node struct {
	Round      types.View
	ParentHash types.Digest
	Batch      types.Batch
	Justify    QC // certificate over the parent
}

// Hash identifies the node.
func (n *Node) Hash() types.Digest {
	bd := n.Batch.Digest()
	return types.DigestConcat([]byte("hs-node"), types.U64(uint64(n.Round)), n.ParentHash[:], bd[:], n.Justify.Node[:])
}

// Proposal is the round leader's broadcast.
type Proposal struct {
	Node Node
	Auth [][]byte
}

// SignedPayload returns the bytes covered by the proposal authenticator.
func (m *Proposal) SignedPayload() []byte {
	h := m.Node.Hash()
	return h[:]
}

// SetAuth stores the broadcast authenticator (protocol.SignedProposal).
func (m *Proposal) SetAuth(auth [][]byte) { m.Auth = auth }

// Vote is a replica's threshold share over the node hash, sent to the next
// leader.
type Vote struct {
	Round types.View
	Node  types.Digest
	Share crypto.Share
}

// NewView is the pacemaker message: on round timeout, replicas advance and
// hand the next leader their highest QC.
type NewView struct {
	From  types.ReplicaID
	Round types.View // the round being entered
	High  QC
}

// FetchNodes asks a peer for the ancestor chain of a node (catch-up).
type FetchNodes struct {
	From types.ReplicaID
	Hash types.Digest
	Max  int
}

// NodeBundle answers FetchNodes.
type NodeBundle struct {
	Nodes []Node
}

func init() {
	wire.Register(func() wire.Message { return &Proposal{} })
	wire.Register(func() wire.Message { return &Vote{} })
	wire.Register(func() wire.Message { return &NewView{} })
	wire.Register(func() wire.Message { return &FetchNodes{} })
	wire.Register(func() wire.Message { return &NodeBundle{} })
}

// Leader returns the leader of a round: the replica with id = round mod n.
func Leader(n int, round types.View) types.ReplicaID {
	return types.ReplicaID(uint64(round) % uint64(n))
}

// Replica is one chained-HotStuff replica.
type Replica struct {
	rt  *protocol.Runtime
	adv *protocol.AdversarySpec

	curRound  types.View
	nodes     map[types.Digest]*Node
	committed map[types.Digest]bool
	highQC    QC
	lockedQC  QC
	lastVoted types.View
	execSeq   types.SeqNum // decision counter driving the executor

	votes    map[types.View][]*nodeVotes // see onVote
	newViews *protocol.Claims[types.View, struct{}]

	// anchorRound is the round of the newest block executed outside the
	// live node chain — durable recovery or an installed snapshot. The
	// commit walk treats nodes at or below it as already executed: it stops
	// there instead of needing ancestry back to genesis.
	anchorRound types.View

	// lastFetch/lastFetchAt throttle ancestry fetches from the commit walk
	// so a burst of tryCommit calls asks for one gap once per timeout.
	lastFetch   types.Digest
	lastFetchAt time.Time

	// timedOut marks that the current disruption started with a round
	// expiry; the first commit after it counts as a completed view change.
	timedOut bool

	roundStart time.Time
	curTimeout time.Duration

	genesisHash types.Digest
}

// nodeVotes collects one round's votes for one node. A round holds more than
// one only under an equivocating leader.
type nodeVotes struct {
	node  types.Digest
	votes crypto.Quorum
}

// voteHorizon is how many rounds past its own a replica holds votes for. A
// vote for round R reaches the leader of R+1 about when the proposal of R
// does, so an honest vote runs ahead of its collector only by the proposals
// the collector has yet to process; a collector further behind catches up
// through proposals and NEW-VIEWs. Without the bound one Byzantine voter
// could add a table entry for every round it names.
const voteHorizon = 4

// New creates a HotStuff replica.
// opts.Adversary makes the replica a Byzantine leader per the shared
// cross-protocol spec: in rounds it leads, targeted replicas receive a
// conflicting (re-signed) proposal variant or no proposal at all. The vote
// split keeps either variant from forming a QC, so the round times out and
// the rotating pacemaker recovers on the next honest leader.
func New(cfg protocol.Config, ring *crypto.KeyRing, net network.Transport, opts protocol.Options) (*Replica, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rt := protocol.NewRuntime(cfg, ring, net, opts.RuntimeOptions)
	r := &Replica{
		rt:         rt,
		adv:        opts.Adversary,
		curRound:   1,
		nodes:      make(map[types.Digest]*Node),
		committed:  make(map[types.Digest]bool),
		votes:      make(map[types.View][]*nodeVotes),
		newViews:   protocol.NewViewClaims[struct{}](cfg),
		roundStart: time.Now(),
		curTimeout: cfg.ViewTimeout,
	}
	// The genesis node anchors the chain; its QC is implicit (round 0).
	genesis := &Node{Round: 0}
	r.genesisHash = genesis.Hash()
	r.nodes[r.genesisHash] = genesis
	r.committed[r.genesisHash] = true
	r.highQC = QC{Round: 0, Node: r.genesisHash}
	r.lockedQC = r.highQC
	rt.Sync.AfterInstall = r.afterInstall
	if rt.RecoveredSeq > 0 {
		// Crash-restart: the executor already holds the recovered prefix,
		// so new decisions continue at execSeq+1. The node chain itself is
		// not persisted — it is re-fetched from peers (FetchNodes) — and
		// the recovered head's round anchors the commit walk so it never
		// re-executes (or needs the ancestry of) the recovered prefix.
		// Rejoin one round past the last executed one; the pacemaker's
		// new-view synchronization covers the rest.
		r.execSeq = rt.Exec.LastExecuted()
		head := rt.Exec.Chain().Head()
		r.anchorRound = head.View
		r.curRound = head.View + 1
	}
	return r, nil
}

// Runtime exposes the replica runtime.
func (r *Replica) Runtime() *protocol.Runtime { return r.rt }

// Round returns the current round (racy while running; for tests).
func (r *Replica) Round() types.View { return r.curRound }

// Run processes messages until ctx is cancelled.
func (r *Replica) Run(ctx context.Context) {
	r.rt.Run(ctx, r.verifyInbound, r.dispatch, r.onTick)
}

func (r *Replica) dispatch(env network.Envelope) {
	switch m := env.Msg.(type) {
	case *protocol.ClientRequest:
		r.onClientRequest(env.From, &m.Req)
	case *protocol.ForwardRequest:
		// The request signature was verified by the inbound check.
		if !r.rt.ReplayReply(&m.Req) {
			r.enqueue(m.Req)
		}
	case *protocol.ReadRequest:
		// HotStuff does not serve reads locally: tiered reads are ordered
		// like any other request, skipping the executed-watermark check —
		// they run in their own client-local sequence space, which the
		// batcher and executor already exempt from dedup.
		r.rt.Metrics.ReadFallbacks.Add(1)
		r.rt.Batcher.Add(m.Req)
		r.maybePropose(false)
	case *protocol.LeaseGrant:
		// No lease machinery without the fast read path; grants are inert.
	case *Proposal:
		if env.From.IsReplica() {
			r.onProposal(env.From.Replica(), m)
		}
	case *Vote:
		if env.From.IsReplica() {
			r.onVote(env.From.Replica(), m)
		}
	case *NewView:
		// A NEW-VIEW counts for the replica that sent it, not for the one
		// its body names.
		if env.From.IsReplica() && env.From.Replica() == m.From {
			r.onNewView(m)
		}
	case *FetchNodes:
		r.onFetchNodes(m)
	case *NodeBundle:
		r.onNodeBundle(m)
	case *protocol.Checkpoint:
		r.rt.OnCheckpoint(m)
	case *protocol.SnapshotRequest:
		r.rt.HandleSnapshotRequest(m)
	case *protocol.SnapshotOffer:
		r.rt.Sync.OnOffer(m)
	case *protocol.SnapshotChunk:
		r.rt.Sync.OnChunk(m)
	}
}

// --- client requests ---

func (r *Replica) onClientRequest(from types.NodeID, req *types.Request) {
	if !from.IsClient() || req.Txn.Client != from.Client() {
		return
	}
	// The request signature was verified by the inbound check.
	if r.rt.ReplayReply(req) {
		return
	}
	r.enqueue(*req)
}

func (r *Replica) enqueue(req types.Request) {
	if r.rt.Exec.AlreadyExecuted(req.Txn.Client, req.Txn.Seq) {
		return
	}
	// A request may have been consumed into a proposal that was orphaned by
	// a round timeout (its QC never formed). The batcher's proposed-history
	// dedup would silently drop the client's retransmission and the request
	// would be lost forever, so unexecuted retransmissions re-enter the
	// queue; duplicate execution is prevented by the executor's dedup.
	r.rt.Batcher.Forget(req.Txn.Client)
	r.rt.Batcher.Add(req)
	r.maybePropose(false)
}

// --- proposing ---

// maybePropose lets the current round's leader propose once it holds the
// previous round's QC. This wait is HotStuff's sequential bottleneck.
func (r *Replica) maybePropose(force bool) {
	cfg := r.rt.Cfg
	if Leader(cfg.N, r.curRound) != cfg.ID {
		return
	}
	if r.highQC.Round != r.curRound-1 {
		// Not yet entitled: either the previous QC hasn't formed, or this
		// round was entered via timeouts and needs nf NewViews (onNewView
		// proposes then).
		return
	}
	batch, ok := r.rt.Batcher.Take(force)
	if !ok {
		// Propose an empty node only when needed to flush uncommitted
		// ancestors through the three-chain; otherwise wait for load.
		if !r.pendingUncommitted() {
			return
		}
		batch = types.Batch{}
	}
	r.propose(batch)
}

// pendingUncommitted reports whether the high-QC branch still has
// uncommitted non-empty nodes that an empty extension would help commit.
func (r *Replica) pendingUncommitted() bool {
	h := r.highQC.Node
	for i := 0; i < 3; i++ {
		node, ok := r.nodes[h]
		if !ok || r.committed[h] {
			return false
		}
		if node.Batch.Size() > 0 || len(node.Batch.Requests) > 0 {
			return true
		}
		h = node.ParentHash
	}
	return false
}

func (r *Replica) propose(batch types.Batch) {
	// Drop requests another leader already got executed (clients broadcast
	// to all replicas, so queues overlap across replicas).
	if len(batch.Requests) > 0 {
		kept := batch.Requests[:0]
		for i := range batch.Requests {
			txn := &batch.Requests[i].Txn
			if !r.rt.Exec.AlreadyExecuted(txn.Client, txn.Seq) {
				kept = append(kept, batch.Requests[i])
			}
		}
		batch.Requests = kept
		if batch.ZeroPayload {
			batch.ZeroCount = len(kept)
		}
		if len(kept) == 0 && !r.pendingUncommitted() {
			return
		}
	}
	r.rt.Metrics.ProposedBatches.Add(1)
	r.proposeNode(batch)
}

// proposeNode proposes batch on the high QC in the current round: to every
// other replica through the shared fan-out, and to this replica's handler.
func (r *Replica) proposeNode(batch types.Batch) {
	p := &Proposal{Node: Node{Round: r.curRound, ParentHash: r.highQC.Node, Batch: batch, Justify: r.highQC}}
	r.rt.FanOut(p, r.adv, func() protocol.SignedProposal {
		v := *p
		v.Node.Batch = r.adv.Variant(p.Node.Batch)
		return &v
	})
	r.onProposal(r.rt.Cfg.ID, p)
}

// --- voting ---

func (r *Replica) verifyQC(qc QC) bool {
	if qc.Round == 0 && qc.Node == r.genesisHash {
		return true
	}
	return r.rt.TS.Verify(qc.Node[:], qc.Cert)
}

func (r *Replica) onProposal(from types.ReplicaID, m *Proposal) {
	cfg := r.rt.Cfg
	node := m.Node
	if node.Round < r.curRound || Leader(cfg.N, node.Round) != from {
		return
	}
	// Authenticator and client signatures were verified by the
	// inbound check before dispatch; the QC re-check below is a
	// certificate-memo hit.
	if !r.verifyQC(node.Justify) || node.Justify.Node != node.ParentHash {
		return
	}
	h := node.Hash()
	if _, dup := r.nodes[h]; !dup {
		cp := node
		r.nodes[h] = &cp
	}
	// Seeing a valid QC advances the pacemaker.
	r.updateHighQC(node.Justify)
	if node.Round > r.curRound {
		r.advanceRound(node.Round)
	}
	if _, ok := r.nodes[node.ParentHash]; !ok && node.ParentHash != r.genesisHash {
		// Missing ancestry: catch up from the proposer before voting.
		r.rt.SendReplica(from, &FetchNodes{From: cfg.ID, Hash: node.ParentHash, Max: 64})
		return
	}
	r.tryCommit(&node)

	// safeNode: vote if the node extends the locked branch, or its justify
	// is fresher than the lock (liveness rule).
	if node.Round <= r.lastVoted {
		return
	}
	if !r.extendsLocked(&node) && node.Justify.Round <= r.lockedQC.Round {
		return
	}
	r.lastVoted = node.Round
	// The vote share is signed on the egress loop. When this replica leads
	// the next round, its own vote loops back onto the event loop; onVote's
	// own guards (round, leader) handle any staleness.
	vote := &Vote{Round: node.Round, Node: h}
	next := Leader(cfg.N, node.Round+1)
	if next == cfg.ID {
		r.rt.Egress.Enqueue(
			func() { vote.Share = r.rt.TS.Share(h[:]) },
			nil,
			func() { r.onVote(cfg.ID, vote) })
	} else {
		r.rt.Egress.Enqueue(
			func() { vote.Share = r.rt.TS.Share(h[:]) },
			func() { r.rt.SendReplica(next, vote) },
			nil)
	}
}

// extendsLocked walks the parent chain to check the node descends from the
// locked node.
func (r *Replica) extendsLocked(node *Node) bool {
	h := node.ParentHash
	for {
		if h == r.lockedQC.Node {
			return true
		}
		parent, ok := r.nodes[h]
		if !ok || parent.Round <= r.lockedQC.Round {
			return h == r.lockedQC.Node
		}
		h = parent.ParentHash
	}
}

// onVote counts a vote toward its node's QC. The vote table holds only the
// rounds whose QC this replica could still use — above the high QC, from the
// previous round up to voteHorizon ahead — and at most one vote per sender
// per round, so neither a long run nor a Byzantine voter grows it.
func (r *Replica) onVote(from types.ReplicaID, m *Vote) {
	cfg := r.rt.Cfg
	if Leader(cfg.N, m.Round+1) != cfg.ID || m.Round <= r.highQC.Round ||
		m.Round+1 < r.curRound || m.Round > r.curRound+voteHorizon {
		return
	}
	round := r.votes[m.Round]
	var nv *nodeVotes
	for _, v := range round {
		if v.votes.Has(from) {
			return
		}
		if v.node == m.Node {
			nv = v
		}
	}
	if nv == nil {
		nv = &nodeVotes{node: m.Node, votes: crypto.NewQuorum(r.rt.TS, cfg.ID)}
		nv.votes.Fix(nv.node[:])
		round = append(round, nv)
	}
	if !nv.votes.Add(from, m.Share) {
		return // a new node's entry is kept only once it holds a vote
	}
	r.votes[m.Round] = round
	if nv.votes.Len() < cfg.NF() {
		return
	}
	cert, err := nv.votes.Combine()
	if err != nil {
		return
	}
	delete(r.votes, m.Round)
	qc := QC{Round: m.Round, Node: m.Node, Cert: cert}
	r.updateHighQC(qc)
	r.advanceRound(m.Round + 1)
	r.maybePropose(true)
}

func (r *Replica) updateHighQC(qc QC) {
	if qc.Round > r.highQC.Round && r.verifyQC(qc) {
		r.highQC = qc
	}
	// Two-chain lock: lock the parent of the newest QC'd node.
	if node, ok := r.nodes[qc.Node]; ok {
		if parentQC := node.Justify; parentQC.Round > r.lockedQC.Round {
			r.lockedQC = parentQC
		}
	}
}

func (r *Replica) advanceRound(round types.View) {
	if round <= r.curRound {
		return
	}
	r.curRound = round
	r.roundStart = time.Now()
	r.curTimeout = r.rt.Cfg.ViewTimeout
	for rd := range r.votes {
		if rd+1 < round || rd <= r.highQC.Round {
			delete(r.votes, rd)
		}
	}
}

// --- commit rule ---

// tryCommit applies the two-chain commit rule: a node commits when its
// direct child is certified and the two have consecutive rounds. This is
// the rule the paper itself uses to model HotStuff ("the two rounds of
// HotStuff", §IV-I / Fig 11) and the one adopted by deployed descendants
// (Jolteon/DiemBFT). The original three-consecutive-round rule cannot make
// progress at n = 4 with one crashed replica under strict round-robin
// rotation — three consecutive live-leader rounds never occur — which the
// paper's single-failure HotStuff numbers show is not the behaviour of the
// evaluated implementation.
func (r *Replica) tryCommit(node *Node) {
	// node.Justify certifies b1; b1.Justify certifies b2 = b1's parent.
	// If their rounds are consecutive, b2 commits.
	b1, ok := r.nodes[node.Justify.Node]
	if !ok {
		return
	}
	b2, ok := r.nodes[b1.Justify.Node]
	if !ok {
		return
	}
	if b1.Round != b2.Round+1 {
		return
	}
	r.commitChain(b2)
}

// commitChain commits b3 and all its uncommitted ancestors, oldest first.
func (r *Replica) commitChain(tip *Node) {
	var chain []*Node
	h := tip.Hash()
	for {
		if r.committed[h] {
			break
		}
		node, ok := r.nodes[h]
		if !ok {
			// Cannot execute with missing ancestry: ask a rotating peer
			// for the gap (throttled — a bundle triggers many walks) and
			// retry when the bundle arrives.
			if h != r.lastFetch || time.Since(r.lastFetchAt) > r.curTimeout {
				r.lastFetch, r.lastFetchAt = h, time.Now()
				if peer, ok := r.rt.NextPeer(); ok {
					r.rt.SendReplica(peer, &FetchNodes{From: r.rt.Cfg.ID, Hash: h, Max: 256})
				}
			}
			return
		}
		if node.Round <= r.anchorRound {
			// At or below the anchor: executed via durable recovery or an
			// installed snapshot — the commit boundary, not a gap.
			r.committed[h] = true
			break
		}
		chain = append(chain, node)
		h = node.ParentHash
	}
	sort.Slice(chain, func(i, j int) bool { return chain[i].Round < chain[j].Round })
	for _, node := range chain {
		nh := node.Hash()
		r.committed[nh] = true
		r.execSeq++
		events := r.rt.Exec.Commit(r.execSeq, node.Round, node.Batch, node.Justify.Cert)
		for _, ev := range events {
			r.rt.Metrics.ExecutedBatches.Add(1)
			r.rt.Metrics.ExecutedTxns.Add(int64(ev.Rec.Batch.Size()))
			r.rt.InformBatch(ev.Rec, ev.Results, true, nil, nil)
			r.rt.MaybeCheckpoint(ev.Rec.Seq)
		}
	}
	if len(chain) > 0 && r.timedOut {
		// Progress resumed after a round expiry: the rotating pacemaker
		// completed its leader change.
		r.timedOut = false
		r.rt.Metrics.ViewChangesDone.Add(1)
	}
	r.pruneNodes()
}

// afterInstall resumes the protocol around an installed snapshot: the
// decision counter jumps to the snapshot sequence, the snapshot head's
// round becomes the commit-walk anchor (the live chain above it is fetched
// from peers on demand), and the pacemaker rejoins one round past it.
func (r *Replica) afterInstall(snap *storage.Snapshot, events []protocol.Executed) {
	r.execSeq = snap.Seq
	r.anchorRound = snap.Head.View
	if r.curRound <= r.anchorRound {
		r.curRound = r.anchorRound + 1
		r.roundStart = time.Now()
		r.curTimeout = r.rt.Cfg.ViewTimeout
	}
	for _, ev := range events {
		r.rt.Metrics.ExecutedBatches.Add(1)
		r.rt.Metrics.ExecutedTxns.Add(int64(ev.Rec.Batch.Size()))
		r.rt.InformBatch(ev.Rec, ev.Results, true, nil, nil)
		r.rt.MaybeCheckpoint(ev.Rec.Seq)
	}
}

// pruneNodes bounds the in-memory chain: committed nodes far behind the
// high QC are dropped (their effects live in the store and ledger).
func (r *Replica) pruneNodes() {
	// Retention mirrors the executor's record horizon: execution records
	// below stable-RetainSlack are discarded, so a peer that far behind can
	// only recover via snapshot transfer anyway — serving it the node chain
	// would replay batches whose records no longer exist. The ledger block
	// at the record cutoff maps that sequence horizon to a round cutoff.
	// The count cap below stays as a backstop for uncommitted clutter.
	if stable := r.rt.Exec.StableCheckpointSeq(); stable > r.rt.Exec.RetainSlack {
		if blk, ok := r.rt.Exec.Chain().Get(stable - r.rt.Exec.RetainSlack); ok {
			for h, node := range r.nodes {
				if node.Round > 0 && node.Round < blk.View && r.committed[h] {
					delete(r.nodes, h)
					delete(r.committed, h)
				}
			}
		}
	}
	if len(r.nodes) < 4096 {
		return
	}
	cutoff := r.highQC.Round
	if cutoff > 256 {
		cutoff -= 256
	} else {
		return
	}
	for h, node := range r.nodes {
		if node.Round > 0 && node.Round < cutoff && r.committed[h] {
			delete(r.nodes, h)
			delete(r.committed, h)
		}
	}
}

// --- pacemaker ---

func (r *Replica) onTick(now time.Time) {
	cfg := r.rt.Cfg
	// Snapshot state transfer runs on every tick: a replica whose node-chain
	// gap has been pruned by every peer needs it to rejoin at all.
	r.rt.Sync.Tick(now)
	if Leader(cfg.N, r.curRound) == cfg.ID && r.rt.Batcher.Ripe(now) {
		r.maybePropose(true)
	}
	if now.Sub(r.roundStart) > r.curTimeout {
		// Round expired: move on. NewView is broadcast to ALL replicas so
		// the pacemaker stays synchronized even when the next leader is
		// crashed (votes or point-to-point NewViews to it would vanish and
		// replicas would drift apart one round at a time).
		r.roundStart = now
		r.curTimeout *= 2
		r.timedOut = true
		r.rt.Metrics.ViewChanges.Add(1)
		r.broadcastNewView(r.curRound + 1)
	}
}

// broadcastNewView announces this replica's move to the given round.
func (r *Replica) broadcastNewView(round types.View) {
	if r.newViews.Has(r.rt.Cfg.ID, round) {
		return
	}
	if round > r.curRound {
		r.curRound = round
	}
	nv := &NewView{From: r.rt.Cfg.ID, Round: round, High: r.highQC}
	r.rt.Broadcast(nv)
	r.onNewView(nv)
}

func (r *Replica) onNewView(m *NewView) {
	cfg := r.rt.Cfg
	if m.Round < r.curRound {
		return
	}
	if !r.verifyQC(m.High) {
		return
	}
	r.updateHighQC(m.High)
	r.newViews.Put(m.From, m.Round, types.Digest{}, struct{}{})
	// f+1 replicas entered the round: at least one is honest, so join it
	// (keeps the pacemaker synchronized across skewed timeouts).
	if r.newViews.Count(m.Round, types.Digest{}) >= cfg.FPlus1() {
		r.broadcastNewView(m.Round)
	}
	if r.newViews.Count(m.Round, types.Digest{}) < cfg.NF() || Leader(cfg.N, m.Round) != cfg.ID {
		return
	}
	if m.Round > r.curRound {
		r.advanceRound(m.Round)
	} else {
		r.roundStart = time.Now()
		r.curTimeout = r.rt.Cfg.ViewTimeout
	}
	// Propose on the highest QC we learned, even with an empty batch, to
	// restore progress.
	batch, _ := r.rt.Batcher.Take(true)
	r.proposeNode(batch)
}

// --- catch-up ---

func (r *Replica) onFetchNodes(m *FetchNodes) {
	var out []Node
	h := m.Hash
	for len(out) < m.Max {
		node, ok := r.nodes[h]
		if !ok || node.Round == 0 {
			break
		}
		out = append(out, *node)
		h = node.ParentHash
	}
	if len(out) > 0 {
		r.rt.SendReplica(m.From, &NodeBundle{Nodes: out})
	}
}

func (r *Replica) onNodeBundle(m *NodeBundle) {
	for i := range m.Nodes {
		node := m.Nodes[i]
		if !r.verifyQC(node.Justify) || node.Justify.Node != node.ParentHash {
			continue
		}
		h := node.Hash()
		if _, dup := r.nodes[h]; !dup {
			cp := node
			r.nodes[h] = &cp
		}
		r.tryCommit(&node)
	}
}
