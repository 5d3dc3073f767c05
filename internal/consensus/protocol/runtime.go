package protocol

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/ledger"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/storage"
	"github.com/poexec/poe/internal/store"
	"github.com/poexec/poe/internal/types"
)

// Runtime bundles the pieces every protocol replica needs: configuration,
// keys, transport, the inbound authentication check, the ordered
// executor, the primary-side batcher, metrics, the reply cache, and the
// shared checkpoint sub-protocol. It corresponds to the per-replica fabric
// of §III that all five protocols are implemented on.
type Runtime struct {
	Cfg     Config
	Ring    *crypto.KeyRing
	Keys    *crypto.NodeKeys
	TS      crypto.ThresholdScheme
	Net     network.Transport
	Exec    *Executor
	Batcher *Batcher
	Metrics *Metrics

	// Pipeline is the replica's inbound authentication check, installed on
	// the transport when the replica's Run loop starts. Egress is its
	// outbound twin: the signing loop every normal-case send goes through
	// (inline until Run starts it).
	Pipeline *Verifier
	Egress   *Egress

	// Store is the durable store backing the executor's WAL, nil for a
	// volatile replica. The durability gate mirrors its group-commit stats
	// into Metrics on every committed group, which is what the harness
	// reads.
	Store *storage.Store

	// reqSeen remembers digests of client requests whose signature this
	// replica has already verified, so retransmissions and re-proposals
	// (view changes, rotating leaders) don't pay Ed25519 twice. The value is
	// the stable-checkpoint sequence number at verification time, which is
	// what lets PruneAtStable age entries out instead of leaking one per
	// request forever. Guarded by reqMu: the check runs on transport
	// goroutines.
	reqMu   sync.Mutex
	reqSeen map[types.Digest]types.SeqNum

	// stableSeq mirrors the executor's stable checkpoint for lock-free reads
	// from the inbound check (reqSeen stamping).
	stableSeq atomic.Int64

	// lastReply caches a small ring of recent Informs per client so
	// duplicates can be answered without re-execution — a ring rather than
	// depth-1, so a pipelined client's retry of an *older* in-flight
	// sequence is still answered from cache exactly. Guarded by replyMu:
	// replies are cached by the egress loop and read by the event loop.
	replyMu   sync.Mutex
	lastReply map[types.ClientID]*replyRing

	// Lease is the read-lease state machine (lease.go); specReads is the
	// registry of served speculative reads still exposed to rollback
	// (readpath.go). readMu guards the registry: repair fires from
	// Executor.Rollback under the executor lock.
	Lease     *Lease
	readMu    sync.Mutex
	specReads []specRead

	// Durability gate: with storage attached, client replies are held here
	// until the WAL group carrying their batch has been committed (and, in
	// Sync mode, fsynced). durWater is the highest group-durable sequence
	// number; durPending holds the release continuations of replies whose
	// batches are executed but not yet durable.
	durMu      sync.Mutex
	durable    bool
	durWater   types.SeqNum
	durPending map[types.SeqNum][]func()

	// checkpoint vote bookkeeping. The full signed votes are retained (not
	// just their digests): when a checkpoint stabilizes, the matching-digest
	// subset becomes stableCert — the self-contained proof a snapshot server
	// attaches to offers so a fetcher that never saw the votes can still
	// verify the state it installs.
	cpVotes       map[types.SeqNum]map[types.ReplicaID]*Checkpoint
	stableCert    []Checkpoint
	stableCertSeq types.SeqNum

	// snapCache caches the encoded snapshot last served for state transfer,
	// keyed by its checkpoint sequence number, so a burst of lagging peers
	// does not rebuild and re-encode the table per request. Event-loop owned.
	snapCache struct {
		seq  types.SeqNum
		data []byte
	}

	// fetchRound rotates record-fetch and snapshot requests across peers so
	// one slow or Byzantine server cannot wedge catch-up. Event-loop owned.
	fetchRound int

	// Sync is the snapshot state-transfer manager (statesync.go): it watches
	// checkpoint certificates for proof the cluster's stable checkpoint has
	// outrun Fetch's retention horizon and then drives chunked snapshot
	// transfer. Event-loop owned; protocols route its messages and tick it.
	Sync *StateSync

	// RecoveredSeq is the last sequence number rebuilt from durable state
	// (snapshot + WAL replay) at construction; 0 for a fresh replica.
	// Sequencing (the skeleton's next proposal, HotStuff's decision counter)
	// resumes past the recovered prefix instead of restarting at 1.
	RecoveredSeq types.SeqNum

	// peers is the fixed broadcast destination list (every replica but this
	// one), built once so the hot path hands the transport a ready-made
	// fan-out for its marshal-once Broadcast.
	peers []types.NodeID
}

// RuntimeOptions tune runtime construction.
type RuntimeOptions struct {
	// ZeroPayload puts the batcher in zero-payload mode.
	ZeroPayload bool
	// InitialTable pre-loads the store (identical on every replica). When
	// Storage recovers a snapshot, the snapshot supersedes it: the table
	// was loaded before the first executed batch and is part of the
	// snapshotted state.
	InitialTable map[string][]byte
	// Storage, when set, makes the replica durable: the state recovered
	// from its data directory (checkpoint snapshot + WAL replay) is
	// rebuilt into the executor at construction, every subsequent
	// execution is logged before the client is answered, and stable
	// checkpoints write snapshots. The replica catches up past its last
	// durable sequence number through the ordinary Fetch state transfer.
	Storage *storage.Store
}

// NewRuntime builds a runtime for one replica. With RuntimeOptions.Storage
// set, the store, ledger, and executor are rebuilt from the recovered
// durable state — snapshot restore followed by WAL replay through the
// ordinary Commit path — before the runtime is handed to the protocol.
func NewRuntime(cfg Config, ring *crypto.KeyRing, net network.Transport, opts RuntimeOptions) *Runtime {
	cfg = cfg.WithDefaults()
	var recovered *storage.Recovered
	if opts.Storage != nil {
		recovered = opts.Storage.Recovered()
	}
	kv := store.New()
	var chain *ledger.Chain
	if recovered != nil && recovered.Snapshot != nil {
		snap := recovered.Snapshot
		kv.Restore(snap.Data, snap.Seq)
		chain = ledger.Restore(snap.Head)
	} else {
		if opts.InitialTable != nil {
			kv.Load(opts.InitialTable)
		}
		chain = ledger.NewChain(cfg.Primary(0))
	}
	rt := &Runtime{
		Cfg:  cfg,
		Ring: ring,
		Keys: ring.NodeKeys(types.ReplicaNode(cfg.ID)),
		// The threshold scheme follows the authentication scheme: the
		// asymmetric schemes get unforgeable Ed25519 aggregation (the
		// paper's BLS role), the symmetric/none schemes get the cheap
		// HMAC construction.
		TS: crypto.NewThresholdScheme(ring, cfg.ID, cfg.NF(),
			cfg.Scheme == crypto.SchemeTS || cfg.Scheme == crypto.SchemeED),
		Net:        net,
		Exec:       NewExecutor(kv, chain),
		Batcher:    NewBatcher(cfg.BatchSize, cfg.BatchLinger, opts.ZeroPayload),
		Metrics:    &Metrics{},
		reqSeen:    make(map[types.Digest]types.SeqNum),
		lastReply:  make(map[types.ClientID]*replyRing),
		durPending: make(map[types.SeqNum][]func()),
		cpVotes:    make(map[types.SeqNum]map[types.ReplicaID]*Checkpoint),
	}
	rt.Sync = newStateSync(rt)
	rt.Lease = NewLease(cfg)
	for i := 0; i < cfg.N; i++ {
		if types.ReplicaID(i) != cfg.ID {
			rt.peers = append(rt.peers, types.ReplicaNode(types.ReplicaID(i)))
		}
	}
	// The check and the egress exist from construction so handlers may
	// register share payloads (NoteDigest) and enqueue sends
	// unconditionally; Run arms the check with the protocol's verify
	// function and starts the egress loop. Until then the egress runs
	// inline, preserving synchronous semantics for direct handler-driving
	// tests.
	rt.Pipeline = NewVerifier(nil, 0)
	rt.Egress = NewEgress(0, rt.Metrics)
	// Keep enough history beyond the stable checkpoint to serve state
	// transfer to replicas a malicious primary kept in the dark.
	rt.Exec.RetainSlack = 2 * cfg.CheckpointInterval
	if recovered != nil {
		if recovered.Snapshot != nil {
			rt.Exec.Restore(recovered.Snapshot.Seq, recovered.Snapshot.LastCli)
		}
		// Replay the WAL suffix through the ordinary commit path: the same
		// deterministic execution, dedup, and ledger appends as the first
		// time around, so the recovered replica lands on the same state
		// digest. The WAL is attached only afterwards — replayed records
		// are already on disk and must not be re-appended.
		for i := range recovered.Records {
			rec := &recovered.Records[i]
			rec.Batch.MemoizeDigests()
			rt.Exec.Commit(rec.Seq, rec.View, rec.Batch, rec.Proof)
		}
		rt.Exec.AttachStorage(opts.Storage)
		rt.RecoveredSeq = recovered.LastSeq
	}
	if opts.Storage != nil {
		// Arm the durability gate: replies release only once their batch's
		// WAL group is committed. Everything recovered is durable already.
		rt.durable = true
		rt.Store = opts.Storage
		rt.durWater = rt.Exec.LastExecuted()
		rt.Exec.onDurable = rt.noteDurable
	}
	rt.Exec.onRollback = rt.dropPendingReplies
	rt.Exec.afterRollback = rt.RepairSpecReads
	rt.stableSeq.Store(int64(rt.Exec.StableCheckpointSeq()))
	return rt
}

// --- durability gate ---

// GateOnDurable runs release once seq is group-durable: immediately when the
// replica is volatile or seq has already been committed to disk, otherwise
// from the storage committer's callback. release must therefore be safe to
// run off the event loop (the reply paths only touch internally synchronized
// state: the reply cache and the egress queue).
func (rt *Runtime) GateOnDurable(seq types.SeqNum, release func()) {
	if !rt.durable {
		release()
		return
	}
	rt.durMu.Lock()
	if seq <= rt.durWater {
		rt.durMu.Unlock()
		release()
		return
	}
	rt.durPending[seq] = append(rt.durPending[seq], release)
	rt.durMu.Unlock()
}

// noteDurable is the executor's durability callback: the WAL group carrying
// seq is on disk, so every reply gated at or below it may go out.
func (rt *Runtime) noteDurable(seq types.SeqNum) {
	rt.durMu.Lock()
	if seq > rt.durWater {
		rt.durWater = seq
	}
	var ready []func()
	if len(rt.durPending) > 0 {
		var seqs []types.SeqNum
		for s := range rt.durPending {
			if s <= rt.durWater {
				seqs = append(seqs, s)
			}
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for _, s := range seqs {
			ready = append(ready, rt.durPending[s]...)
			delete(rt.durPending, s)
		}
	}
	rt.durMu.Unlock()
	for _, release := range ready {
		release()
	}
	if rt.Store != nil {
		groups, recs := rt.Store.GroupStats()
		rt.Metrics.WALGroups.Store(groups)
		rt.Metrics.WALGroupedRecords.Store(recs)
	}
}

// dropPendingReplies discards gated replies above toSeq: their batches were
// rolled back (and the WAL truncated), so the replies must never be sent —
// the crash-consistency contract is "lose the reply, keep the durability".
func (rt *Runtime) dropPendingReplies(toSeq types.SeqNum) {
	rt.durMu.Lock()
	for s := range rt.durPending {
		if s > toSeq {
			delete(rt.durPending, s)
		}
	}
	if rt.durWater > toSeq {
		rt.durWater = toSeq
	}
	rt.durMu.Unlock()
}

// Broadcast sends msg to every replica except this one, through the
// transport's marshal-once fan-out: over TCP the message is encoded exactly
// once and the same bytes are written to every peer.
func (rt *Runtime) Broadcast(msg any) {
	rt.Net.Broadcast(rt.peers, msg)
}

// SendReplica sends msg to one replica.
func (rt *Runtime) SendReplica(to types.ReplicaID, msg any) {
	rt.Net.Send(types.ReplicaNode(to), msg)
}

// InformBatch stages an INFORM for every result of an executed batch. Once
// the batch clears the durability gate (immediately on a volatile replica),
// one egress job runs prep — protocols use it to compute a shared threshold
// share — then fill on every reply, for the protocol's Cert/Share/OrderProof
// material, computes the MACs off the event loop, caches the replies for
// duplicate suppression when cache is set, and releases the sends in
// submission order. prep and fill may be nil. Both run on the egress loop,
// so they may touch only the reply they are given and captured values that
// nothing mutates after this call.
func (rt *Runtime) InformBatch(rec *types.ExecRecord, results []types.Result, cache bool, prep func(), fill func(*Inform)) {
	type reply struct {
		client types.ClientID
		msg    *Inform
	}
	replies := make([]reply, 0, len(results))
	ri := 0
	for i := range rec.Batch.Requests {
		req := &rec.Batch.Requests[i]
		// Results are produced in batch order for the deduplicated effective
		// batch, so they zip against the requests with a single cursor.
		if ri >= len(results) || results[ri].Client != req.Txn.Client || results[ri].Seq != req.Txn.Seq {
			// Deduplicated away: answer from the reply cache instead.
			rt.ReplayReply(req)
			continue
		}
		res := results[ri]
		ri++
		replies = append(replies, reply{req.Txn.Client, &Inform{
			From:      rt.Cfg.ID,
			Digest:    req.Digest(),
			View:      rec.View,
			Seq:       rec.Seq,
			ClientSeq: req.Txn.Seq,
			Values:    res.Values,
		}})
	}
	if len(replies) == 0 {
		return
	}
	rt.GateOnDurable(rec.Seq, func() {
		rt.Egress.Enqueue(func() {
			if prep != nil {
				prep()
			}
			for _, rp := range replies {
				if fill != nil {
					fill(rp.msg)
				}
				key := rp.msg.Key()
				rp.msg.Tag = rt.Keys.MAC(types.ClientNode(rp.client), key.Digest[:])
			}
			if cache {
				// Cache only fully built replies: ReplayReply may re-send
				// them from another goroutine the moment they are visible.
				rt.replyMu.Lock()
				for _, rp := range replies {
					ring, ok := rt.lastReply[rp.client]
					if !ok {
						ring = &replyRing{}
						rt.lastReply[rp.client] = ring
					}
					ring.add(rp.msg)
				}
				rt.replyMu.Unlock()
			}
		}, func() {
			for _, rp := range replies {
				rt.Net.Send(types.ClientNode(rp.client), rp.msg)
			}
		}, nil)
	})
}

// replyRingSize is the number of recent replies cached per client. Sized to
// cover a pipelined client's realistic outstanding window: a retry of any of
// the last replyRingSize sequences is answered from cache exactly, instead
// of only the very latest one.
const replyRingSize = 8

// replyRing is a per-client ring of the most recent replies, newest-first
// lookup. Guarded by the runtime's replyMu.
type replyRing struct {
	replies [replyRingSize]*Inform
	next    int
}

// add records a reply, evicting the oldest when full.
func (r *replyRing) add(m *Inform) {
	r.replies[r.next] = m
	r.next = (r.next + 1) % replyRingSize
}

// find returns the cached reply matching a request exactly — same
// client-local sequence number AND same request digest — newest first (a
// pipelined client's retries skew recent). The digest match matters because
// tiered reads that fall back to ordering run in their own sequence space: a
// read's seq can collide with a write's, and replaying across that collision
// would answer one request with the other's reply.
func (r *replyRing) find(clientSeq uint64, digest types.Digest) *Inform {
	for i := 1; i <= replyRingSize; i++ {
		m := r.replies[(r.next-i+replyRingSize)%replyRingSize]
		if m == nil {
			return nil
		}
		if m.ClientSeq == clientSeq && m.Digest == digest {
			return m
		}
	}
	return nil
}

// newestSeq returns the global sequence number of the most recent cached
// reply (0 when empty) — the idleness signal stable-checkpoint pruning uses.
func (r *replyRing) newestSeq() types.SeqNum {
	m := r.replies[(r.next-1+replyRingSize)%replyRingSize]
	if m == nil {
		return 0
	}
	return m.Seq
}

// ReplayReply re-sends the cached reply for a duplicate request, if any.
// It returns true when a cached reply existed. Cached replies are durable by
// construction (they are cached only after their WAL group committed), so
// replaying never answers from volatile state.
func (rt *Runtime) ReplayReply(req *types.Request) bool {
	d := req.Digest()
	rt.replyMu.Lock()
	ring, ok := rt.lastReply[req.Txn.Client]
	var last *Inform
	if ok {
		last = ring.find(req.Txn.Seq, d)
	}
	rt.replyMu.Unlock()
	if last == nil {
		return false
	}
	rt.Net.Send(types.ClientNode(req.Txn.Client), last)
	return true
}

// Run is the event loop every replica runs until ctx is cancelled. It
// installs verify as the transport's inbound check, so messages are
// authenticated on the goroutine that reads or delivers them and invalid
// ones are dropped before they reach the inbox; the few envelopes that
// arrive unchecked — queued before Run, or looped back from this replica to
// itself — are checked here. Outbound messages leave unsigned through the
// egress loop, which computes authenticators off the event loop and sends
// in submission order; its Local channel carries the deferred self-votes
// (own shares, own checkpoint vote) back onto the loop. The replica state
// machine behind dispatch and onTick therefore performs no asymmetric
// crypto in either direction on the normal-case path, and is confined to
// this goroutine. verify runs concurrently on transport goroutines; see
// VerifyFunc for its constraints.
func (rt *Runtime) Run(ctx context.Context, verify VerifyFunc, dispatch func(network.Envelope), onTick func(now time.Time)) {
	ticker := time.NewTicker(rt.Cfg.Tick())
	defer ticker.Stop()
	rt.Egress.Start(ctx)
	rt.Pipeline.verify = verify
	rt.Net.SetCheck(rt.Pipeline.Check)
	inbox := rt.Net.Inbox()
	for {
		select {
		case <-ctx.Done():
			return
		case env, ok := <-inbox:
			if !ok {
				return
			}
			if !env.Checked && !rt.Pipeline.Check(&env) {
				continue
			}
			rt.Metrics.MessagesIn.Add(1)
			dispatch(env)
		case fn := <-rt.Egress.Local():
			fn()
		case <-ticker.C:
			onTick(time.Now())
		}
	}
}

// VerifyClientRequest checks the client's signature on a request — the check
// for anything that may enter this replica's batcher and so be proposed by
// it (see VerifyRequestForSelf for requests that cannot). With
// SchemeNone all authentication is disabled (Fig 8's "None" column). The
// caller must own the request (see types.Request): its digest is memoized
// as a side effect. A signature is Ed25519-verified at most once per
// replica; repeats (retransmissions, re-proposals after a view change,
// rotating-leader rebroadcasts) are memo lookups.
func (rt *Runtime) VerifyClientRequest(req *types.Request) bool {
	if rt.Cfg.Scheme == crypto.SchemeNone {
		return true
	}
	d := req.Digest()
	rt.reqMu.Lock()
	_, hit := rt.reqSeen[d]
	rt.reqMu.Unlock()
	if hit {
		return true
	}
	rt.Metrics.ClientSigVerifies.Add(1)
	if !rt.Keys.VerifyFrom(types.ClientNode(req.Txn.Client), d[:], req.Sig) {
		return false
	}
	rt.reqMu.Lock()
	if len(rt.reqSeen) >= 1<<17 {
		// Backstop against a burst outrunning checkpoint-time pruning.
		rt.reqSeen = make(map[types.Digest]types.SeqNum)
	}
	rt.reqSeen[d] = types.SeqNum(rt.stableSeq.Load())
	rt.reqMu.Unlock()
	return true
}

// VerifyBatch checks every client request in an owned batch another replica
// proposed, as VerifyRequestForSelf does, and memoizes all digests. The MAC
// tags are checked in one serial pass — each costs under a microsecond —
// and only the requests whose tag is missing or invalid fan out across the
// verification pool for their signatures. It runs in the inbound check, so
// the replica's event loop never verifies a proposal's requests.
func (rt *Runtime) VerifyBatch(b *types.Batch) bool {
	b.MemoizeDigests()
	if rt.Cfg.Scheme == crypto.SchemeNone {
		return true
	}
	var bySig []*types.Request
	for i := range b.Requests {
		if req := &b.Requests[i]; !rt.checkRequestTag(req) {
			bySig = append(bySig, req)
		}
	}
	return crypto.ParallelAll(len(bySig), func(i int) bool {
		return rt.VerifyClientRequest(bySig[i])
	})
}

// VerifyCommonInbound handles the message types shared by every protocol:
// client requests (signature checked, envelope rewritten to an owned clone),
// forwarded requests, and fetch replies and view-change messages (cloned so
// digest memoization stays replica-local; certificates are still validated
// by the handler through the memoized threshold scheme). It reports (keep, handled); handled false
// means the message is protocol-specific and the caller must classify it.
func (rt *Runtime) VerifyCommonInbound(env *network.Envelope) (keep, handled bool) {
	switch m := env.Msg.(type) {
	case *ClientRequest:
		// Wire-decoded (Owned) envelopes are exclusively ours; in-process
		// deliveries are cloned before digest memoization (see types.Request).
		cp := m
		if !env.Owned {
			cp = &ClientRequest{Req: types.CloneRequest(m.Req)}
			env.Msg = cp
		}
		if !env.From.IsClient() || cp.Req.Txn.Client != env.From.Client() {
			return false, true
		}
		if !rt.VerifyClientRequest(&cp.Req) {
			return false, true
		}
		return true, true
	case *ForwardRequest:
		// Only replicas forward: a client sending one would reach the
		// primary's batcher without the ClientRequest origin check.
		if !env.From.IsReplica() {
			return false, true
		}
		cp := m
		if !env.Owned {
			cp = &ForwardRequest{Req: types.CloneRequest(m.Req)}
			env.Msg = cp
		}
		if !rt.VerifyClientRequest(&cp.Req) {
			return false, true
		}
		return true, true
	case *FetchReply:
		cp := m
		if !env.Owned {
			cp = &FetchReply{From: m.From, Records: types.CloneRecords(m.Records)}
			env.Msg = cp
		}
		for i := range cp.Records {
			cp.Records[i].Batch.MemoizeDigests()
		}
		return true, true
	case *Checkpoint:
		// Signatures are verified by OnCheckpoint (rare path), which skips
		// the check for our own vote — so a network message claiming our
		// identity is a spoof and must not reach it.
		return m.From != rt.Cfg.ID, true
	case *ReadRequest:
		cp := m
		if !env.Owned {
			cp = &ReadRequest{Req: types.CloneRequest(m.Req)}
			env.Msg = cp
		}
		if !env.From.IsClient() || cp.Req.Txn.Client != env.From.Client() {
			return false, true
		}
		// Only read-only transactions with a non-ordered tier belong here;
		// anything else must pay for ordering and is dropped (the client's
		// ordered retransmission path still works).
		if !cp.Req.Txn.ReadOnly() || cp.Req.Txn.Consistency == types.ConsistencyOrdered {
			return false, true
		}
		// A read served locally convinces nobody but the serving replica;
		// one that is ordered instead is signature-checked where it enters
		// a batcher (Skeleton.FallbackRead).
		if !rt.VerifyRequestForSelf(&cp.Req) {
			return false, true
		}
		return true, true
	case *LeaseGrant:
		// Only the primary of the grant's view counts it (Lease.OnGrant),
		// and the grant is addressed to it alone: its MAC is checked here,
		// off the event loop, and a grant anyone else receives is dropped.
		if !env.From.IsReplica() || env.From.Replica() != m.From || m.From == rt.Cfg.ID || !rt.Cfg.IsPrimary(m.View) {
			return false, true
		}
		p := m.Payload()
		return rt.Keys.CheckMAC(env.From, p[:], m.Tag), true
	case *ReadReply:
		// Client-bound only; a replica receiving one is a misroute.
		return false, true
	case *Fetch:
		// Unauthenticated by design.
		return true, true
	case *VCRequest:
		// Signature and entries are validated by the view-change path on
		// the event loop (rare, off the normal case); here the envelope only
		// becomes owned so digest memoization stays replica-local.
		cp := m
		if !env.Owned {
			c := *m
			cp = &c
			env.Msg = cp
		}
		cp.own(env.Owned)
		return true, true
	case *NVPropose:
		cp := m
		if !env.Owned {
			cp = &NVPropose{NewView: m.NewView, Requests: append([]VCRequest(nil), m.Requests...)}
			env.Msg = cp
		}
		for i := range cp.Requests {
			cp.Requests[i].own(env.Owned)
		}
		return true, true
	case *SnapshotRequest:
		// Unauthenticated like Fetch, but the claimed sender must match the
		// transport identity: the reply fan-out goes to m.From.
		return env.From.IsReplica() && env.From.Replica() == m.From, true
	case *SnapshotOffer:
		// The certificate inside is verified by StateSync on the event loop
		// (rare path); here only the sender identity is pinned so a peer
		// cannot spoof offers from the server the fetcher selected.
		return env.From.IsReplica() && env.From.Replica() == m.From, true
	case *SnapshotChunk:
		return env.From.IsReplica() && env.From.Replica() == m.From, true
	}
	return true, false
}

// own makes the request's entries exclusively the receiver's — cloned unless
// the envelope was wire-decoded — and memoizes their digests.
func (m *VCRequest) own(owned bool) {
	if !owned {
		m.Entries = types.CloneRecords(m.Entries)
	}
	for i := range m.Entries {
		m.Entries[i].Batch.MemoizeDigests()
	}
}

// Fetch pagination caps: whatever the requester asked for, one reply never
// carries more than maxFetchRecords records or (approximately)
// maxFetchBytes of payload — a far-behind peer pulls pages instead of
// triggering one giant allocation and frame on the server.
const (
	maxFetchRecords = 512
	maxFetchBytes   = 1 << 20
)

// HandleFetch answers a state-transfer request with one page of retained
// records. The reply carries the server's executed head so the fetcher knows
// a full page is not the end of history and re-requests from its new head.
func (rt *Runtime) HandleFetch(f *Fetch) {
	max := f.Max
	if max <= 0 || max > maxFetchRecords {
		max = maxFetchRecords
	}
	recs, head := rt.Exec.ExecutedRange(f.After, max, maxFetchBytes)
	if len(recs) == 0 {
		return
	}
	rt.SendReplica(f.From, &FetchReply{From: rt.Cfg.ID, Head: head, Records: recs})
}

// FetchFrom requests the records above after from the next peer in the
// rotation. Rotating per request keeps catch-up alive when some peers are
// crashed, partitioned away, or Byzantine-silent.
func (rt *Runtime) FetchFrom(after types.SeqNum) {
	peer, ok := rt.NextPeer()
	if !ok {
		return
	}
	rt.SendReplica(peer, &Fetch{From: rt.Cfg.ID, After: after, Max: 4 * rt.Cfg.Window})
}

// FetchContinue re-requests immediately when a paginated fetch made progress
// but the server's head is still ahead; protocols call it after applying a
// FetchReply. It reports whether another page was requested.
func (rt *Runtime) FetchContinue(head types.SeqNum) bool {
	last := rt.Exec.LastExecuted()
	if head <= last {
		return false
	}
	if _, _, gapped := rt.Exec.Gap(); gapped {
		// The reply didn't connect to our head (stale page after rotation);
		// the regular tick-driven fetch retries.
		return false
	}
	rt.Metrics.FetchPages.Add(1)
	rt.FetchFrom(last)
	return true
}

// NextPeer returns the next replica in the round-robin rotation, skipping
// this one. ok is false in a single-replica system.
func (rt *Runtime) NextPeer() (types.ReplicaID, bool) {
	if rt.Cfg.N <= 1 {
		return 0, false
	}
	rt.fetchRound++
	peer := types.ReplicaID(rt.fetchRound % rt.Cfg.N)
	if peer == rt.Cfg.ID {
		rt.fetchRound++
		peer = types.ReplicaID(rt.fetchRound % rt.Cfg.N)
	}
	return peer, true
}

// --- checkpoint sub-protocol (§II-D) ---

// MaybeCheckpoint is called after executing seq; when seq crosses a
// checkpoint boundary the replica broadcasts a signed Checkpoint message.
// The Ed25519 signature is produced on the egress loop; the replica's own
// vote is counted through the egress's local continuation, back on the
// event loop (OnCheckpoint skips signature verification for own votes).
func (rt *Runtime) MaybeCheckpoint(seq types.SeqNum) {
	if seq == 0 || seq%rt.Cfg.CheckpointInterval != 0 {
		return
	}
	// Vote the digests recorded when seq executed, not the current ones: the
	// executor may have drained several batches in the Commit that crossed
	// the boundary, and votes for the same checkpoint must match across
	// replicas that drained differently.
	state, ledgerHead, ok := rt.Exec.DigestsAt(seq)
	if !ok {
		return
	}
	cp := &Checkpoint{
		From:   rt.Cfg.ID,
		Seq:    seq,
		State:  state,
		Ledger: ledgerHead,
	}
	payload := cp.SignedPayload()
	rt.Egress.Enqueue(
		func() { cp.Sig = rt.Keys.Sign(payload) },
		func() { rt.Broadcast(cp) },
		func() { rt.OnCheckpoint(cp) }, // count own vote
	)
}

// OnCheckpoint records a checkpoint vote. When nf distinct replicas vote the
// same digests for a sequence number at or above the current stable
// checkpoint, that checkpoint becomes stable. It returns the new stable
// sequence number and true on the transition.
func (rt *Runtime) OnCheckpoint(cp *Checkpoint) (types.SeqNum, bool) {
	if cp.From != rt.Cfg.ID && !rt.Keys.VerifyFrom(types.ReplicaNode(cp.From), cp.SignedPayload(), cp.Sig) {
		return 0, false
	}
	// Feed the state-sync detector before any short-circuit: a replica that
	// is far behind needs the evidence precisely when it cannot participate
	// in the vote itself.
	rt.Sync.OnVote(cp)
	if cp.Seq <= rt.Exec.StableCheckpointSeq() {
		return 0, false
	}
	votes, ok := rt.cpVotes[cp.Seq]
	if !ok {
		votes = make(map[types.ReplicaID]*Checkpoint)
		rt.cpVotes[cp.Seq] = votes
	}
	votes[cp.From] = cp
	// Count the plurality digest; non-faulty replicas agree, so requiring
	// nf matching votes tolerates f liars.
	counts := make(map[types.Digest]int, len(votes))
	for _, v := range votes {
		counts[types.DigestConcat(v.State[:], v.Ledger[:])]++
	}
	for d, c := range counts {
		if c >= rt.Cfg.NF() {
			// Stash the matching votes as the certificate snapshot offers
			// will carry: ≥ nf ≥ f+1 signed votes for one digest pair.
			cert := make([]Checkpoint, 0, c)
			for _, v := range votes {
				if types.DigestConcat(v.State[:], v.Ledger[:]) == d {
					cert = append(cert, *v)
				}
			}
			rt.stableCert, rt.stableCertSeq = cert, cp.Seq
			rt.Exec.MarkStable(cp.Seq)
			rt.Metrics.Checkpoints.Add(1)
			for s := range rt.cpVotes {
				if s <= cp.Seq {
					delete(rt.cpVotes, s)
				}
			}
			rt.PruneAtStable(cp.Seq)
			return cp.Seq, true
		}
	}
	return 0, false
}

// replyCacheCap is the lastReply size above which stable-checkpoint pruning
// starts aging idle clients out. Below the cap every client's last reply is
// retained, so a lost INFORM is always answerable from the cache; above it,
// memory wins — the classic BFT reply-cache low-water-mark tradeoff.
const replyCacheCap = 1 << 16

// PruneAtStable bounds the request-path caches when a checkpoint becomes
// stable, so a long-lived replica serving millions of clients does not grow
// without bound: verified-request digests older than one checkpoint interval
// below the stable point are dropped (a pruned digest merely re-verifies on
// the next retransmission), the batcher forgets proposed-history entries the
// executor's dedup history already covers (a pruned entry merely re-enters
// the pending queue, where execution-time dedup and the reply cache still
// suppress it), and — only once more than replyCacheCap clients are cached —
// replies of clients idle for over a checkpoint interval are evicted. That
// last eviction is the one genuine tradeoff: such a client retransmitting a
// request whose INFORM was lost can no longer be answered from the cache,
// which is the standard price of a bounded reply cache (PBFT's low-water
// mark); under the cap behaviour is unchanged. Called on the event loop
// (OnCheckpoint); the batcher is loop-owned.
func (rt *Runtime) PruneAtStable(stable types.SeqNum) {
	rt.stableSeq.Store(int64(stable))
	rt.reqMu.Lock()
	for d, s := range rt.reqSeen {
		if s+rt.Cfg.CheckpointInterval < stable {
			delete(rt.reqSeen, d)
		}
	}
	rt.reqMu.Unlock()
	rt.replyMu.Lock()
	if len(rt.lastReply) > replyCacheCap {
		for c, ring := range rt.lastReply {
			if ring.newestSeq()+rt.Cfg.CheckpointInterval < stable {
				delete(rt.lastReply, c)
			}
		}
	}
	rt.replyMu.Unlock()
	rt.PruneSpecReads(stable)
	rt.Batcher.PruneProposed(func(c types.ClientID, seq uint64) bool {
		return rt.Exec.AlreadyExecuted(c, seq)
	})
}
