package protocol

import (
	"time"

	"github.com/poexec/poe/internal/types"
)

// Hybrid-consistency read path: read-only transactions tagged STRONG or
// SPECULATIVE bypass the ordering pipeline entirely — no consensus slot, no
// egress signing rounds, no WAL bandwidth. SPECULATIVE reads are answered by
// any replica from its executed (possibly still speculative) prefix and are
// invalidation-tracked: if a rollback truncates past the serving sequence
// number, the replica re-answers the client with the repaired value. STRONG
// reads are answered only by the current primary under a quorum-granted read
// lease (lease.go); without a valid lease they fall back to ordering, so
// linearizability never depends on the lease being live. The gate that picks
// between serving and ordering is the skeleton's (Skeleton.OnReadRequest).

// maxSpecReadsTracked bounds the invalidation registry. Entries at or below
// the stable checkpoint can never roll back and are pruned at every stable
// checkpoint; the cap is a backstop for bursts between checkpoints — when it
// overflows, the oldest (lowest-seq, least rollback-exposed) entries are
// dropped and their clients rely on retransmission instead of repair.
const maxSpecReadsTracked = 8192

// specRead is one served speculative read still exposed to rollback.
type specRead struct {
	client    types.ClientID
	clientSeq uint64
	digest    types.Digest
	ops       []types.Op
	seq       types.SeqNum // executed prefix it was served from
}

// ServeLocalRead answers a read-only request from this replica's executed
// prefix, without ordering. The caller has established the tier's
// precondition (any replica for SPECULATIVE; primary with a valid lease and
// a caught-up committed prefix for STRONG). Must run on the event loop: the
// executed prefix only changes there, so seq, digest, and values are a
// consistent cut. The MAC is computed on the egress pool.
func (rt *Runtime) ServeLocalRead(req *types.Request, tier types.Consistency, view types.View) {
	kv := rt.Exec.Store()
	values := make([][]byte, len(req.Txn.Ops))
	for i := range req.Txn.Ops {
		if v, ok := kv.Get(req.Txn.Ops[i].Key); ok {
			values[i] = v
		}
	}
	reply := &ReadReply{
		From:        rt.Cfg.ID,
		Digest:      req.Digest(),
		ClientSeq:   req.Txn.Seq,
		Values:      values,
		ExecSeq:     kv.LastApplied(),
		StateDigest: kv.StateDigest(),
		View:        view,
		Tier:        tier,
	}
	if tier == types.ConsistencySpeculative {
		rt.trackSpecRead(req, reply.ExecSeq)
		rt.Metrics.SpecReads.Add(1)
	} else {
		rt.Metrics.StrongReads.Add(1)
	}
	rt.sendReadReply(req.Txn.Client, reply)
}

// sendReadReply MACs and sends one read reply through the egress pipeline.
// Read replies never wait on the durability gate: they assert nothing about
// durable history beyond the (seq, digest) prefix tag they carry.
func (rt *Runtime) sendReadReply(client types.ClientID, m *ReadReply) {
	rt.Egress.Enqueue(func() {
		p := m.Payload()
		m.Tag = rt.Keys.MAC(types.ClientNode(client), p[:])
	}, func() {
		rt.Net.Send(types.ClientNode(client), m)
	}, nil)
}

// trackSpecRead registers a served speculative read for rollback
// invalidation. Guarded by readMu: registration happens on the event loop,
// but repair fires from Executor.Rollback under the executor lock.
func (rt *Runtime) trackSpecRead(req *types.Request, seq types.SeqNum) {
	rt.readMu.Lock()
	if len(rt.specReads) >= maxSpecReadsTracked {
		rt.specReads = append(rt.specReads[:0], rt.specReads[len(rt.specReads)/2:]...)
	}
	rt.specReads = append(rt.specReads, specRead{
		client:    req.Txn.Client,
		clientSeq: req.Txn.Seq,
		digest:    req.Digest(),
		ops:       req.Txn.Ops,
		seq:       seq,
	})
	rt.readMu.Unlock()
}

// RepairSpecReads is the executor's afterRollback hook: the store has just
// been rewound to toSeq, so every tracked speculative read served from a
// higher sequence number observed state the cluster abandoned. Each one is
// re-executed against the repaired store and re-answered with Repaired set,
// then re-anchored at toSeq (a second, deeper rollback repairs it again).
//
// Called with the executor lock held — it must touch only the store (its own
// lock), the registry (readMu), and the egress queue (internally
// synchronized); Executor methods would deadlock.
func (rt *Runtime) RepairSpecReads(toSeq types.SeqNum) {
	kv := rt.Exec.Store()
	rt.readMu.Lock()
	var repairs []*ReadReply
	var clients []types.ClientID
	for i := range rt.specReads {
		sr := &rt.specReads[i]
		if sr.seq <= toSeq {
			continue
		}
		values := make([][]byte, len(sr.ops))
		for j := range sr.ops {
			if v, ok := kv.Get(sr.ops[j].Key); ok {
				values[j] = v
			}
		}
		repairs = append(repairs, &ReadReply{
			From:        rt.Cfg.ID,
			Digest:      sr.digest,
			ClientSeq:   sr.clientSeq,
			Values:      values,
			ExecSeq:     toSeq,
			StateDigest: kv.StateDigest(),
			Tier:        types.ConsistencySpeculative,
			Repaired:    true,
		})
		clients = append(clients, sr.client)
		sr.seq = toSeq
	}
	rt.readMu.Unlock()
	for i, m := range repairs {
		rt.sendReadReply(clients[i], m)
	}
	rt.Metrics.ReadRepairs.Add(int64(len(repairs)))
}

// PruneSpecReads drops registry entries at or below the stable checkpoint:
// rollback can never reach below it, so those serves are final.
func (rt *Runtime) PruneSpecReads(stable types.SeqNum) {
	rt.readMu.Lock()
	kept := rt.specReads[:0]
	for i := range rt.specReads {
		if rt.specReads[i].seq > stable {
			kept = append(kept, rt.specReads[i])
		}
	}
	rt.specReads = kept
	rt.readMu.Unlock()
}

// --- lease plumbing ---

// MaybeGrantLease sends a fresh read-lease grant to the primary of view when
// one is due. Protocols call it from their tick (and after checkpoint
// broadcasts, which is the common carrier under load) with suspecting set
// while they distrust the primary — a suspecting replica stops renewing, so
// the outstanding promise expires and the view change proceeds. The primary
// itself never sends (its grant is implicit in HolderValid).
func (rt *Runtime) MaybeGrantLease(view types.View, suspecting bool) {
	if suspecting || rt.Cfg.IsPrimary(view) || !rt.Lease.GrantDue(view) {
		return
	}
	g := &LeaseGrant{
		From:          rt.Cfg.ID,
		View:          view,
		Seq:           rt.Exec.LastExecuted(),
		DurationNanos: int64(rt.Cfg.LeaseDuration),
	}
	// The promise must start before the grant can possibly arrive.
	rt.Lease.NoteGranted(view)
	rt.Metrics.LeaseGrants.Add(1)
	primary := types.ReplicaNode(rt.Cfg.Primary(view))
	rt.Egress.Enqueue(
		func() { p := g.Payload(); g.Tag = rt.Keys.MAC(primary, p[:]) },
		func() { rt.Net.Send(primary, g) },
		nil,
	)
}

// --- primary-side STRONG read deferral ---

// StrongReads queues STRONG reads the primary cannot serve at arrival —
// typically because its committed prefix lags its proposals — so they can be
// served the moment it catches up instead of paying a full ordering round.
// Reads that wait longer than maxWait fall back to ordering. Event-loop
// owned.
type StrongReads struct {
	pending []strongPending
}

type strongPending struct {
	req   types.Request
	since time.Time
}

// Defer queues one read. The request must be owned by the caller.
func (q *StrongReads) Defer(req *types.Request, now time.Time) {
	q.pending = append(q.pending, strongPending{req: *req, since: now})
}

// Len returns the number of queued reads.
func (q *StrongReads) Len() int { return len(q.pending) }

// Drain retries every queued read: serve returns true when it answered the
// read (the entry is dropped); entries older than maxWait are handed to
// fallback (ordering) and dropped; the rest stay queued.
func (q *StrongReads) Drain(now time.Time, maxWait time.Duration, serve func(*types.Request) bool, fallback func(*types.Request)) {
	kept := q.pending[:0]
	for i := range q.pending {
		p := &q.pending[i]
		if serve(&p.req) {
			continue
		}
		if now.Sub(p.since) >= maxWait {
			fallback(&p.req)
			continue
		}
		kept = append(kept, *p)
	}
	q.pending = kept
}

// FlushAll hands every queued read to fallback — called on view change,
// when the primary can no longer promise to serve them under the old lease.
func (q *StrongReads) FlushAll(fallback func(*types.Request)) {
	for i := range q.pending {
		fallback(&q.pending[i].req)
	}
	q.pending = q.pending[:0]
}
