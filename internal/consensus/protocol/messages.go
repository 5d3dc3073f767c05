package protocol

import (
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/wire"
)

// ClientRequest carries a signed transaction 〈T〉c from a client to a
// replica. Normally it is sent to the primary; after a client timeout it is
// broadcast to all replicas, which forward it to the primary and start
// failure-detection timers (§II-B).
type ClientRequest struct {
	Req types.Request
}

// ForwardRequest is a replica forwarding a client request to the primary
// after receiving it via client broadcast.
type ForwardRequest struct {
	Req types.Request
}

// Inform tells a client that its transaction executed: the paper's
// INFORM(D(〈T〉c), v, k, r) message. Clients collect identical Informs from
// a protocol-specific number of distinct replicas.
type Inform struct {
	From      types.ReplicaID
	Digest    types.Digest // D(〈T〉c)
	View      types.View
	Seq       types.SeqNum // global sequence number k
	ClientSeq uint64       // client-local sequence number of the transaction
	Values    [][]byte     // execution result r, if any
	Tag       []byte       // MAC over the reply (replicas answer clients with MACs, §II-E)

	// Speculative marks replies sent before the request's position is
	// final. Zyzzyva's fast-path replies set this; PoE replies do not
	// (PoE's reply already carries the proof-of-execution guarantee).
	Speculative bool
	// OrderProof is protocol-specific material for the client (Zyzzyva's
	// history digest; unused by other protocols).
	OrderProof types.Digest
	// Share is a transferable signature share over the ordering (Zyzzyva
	// clients assemble nf of these into a commit certificate; SBFT's
	// executor puts the aggregated certificate in Cert instead).
	Share crypto.Share
	// Cert is an aggregated certificate accompanying the reply (SBFT's
	// execute-ack path).
	Cert []byte
}

// ReplyKey is the portion of an Inform that must match across replicas for
// a client to count them as identical.
type ReplyKey struct {
	Digest    types.Digest
	Seq       types.SeqNum
	ClientSeq uint64
	ValueHash types.Digest
}

// Key projects an Inform to its comparable core. The view is deliberately
// not part of the key: after a view change replicas may re-inform in a later
// view for the same slot.
func (m *Inform) Key() ReplyKey {
	h := types.DigestConcat(flatten(m.Values)...)
	return ReplyKey{Digest: m.Digest, Seq: m.Seq, ClientSeq: m.ClientSeq, ValueHash: h}
}

func flatten(values [][]byte) [][]byte {
	if len(values) == 0 {
		return [][]byte{nil}
	}
	return values
}

// Fetch asks a peer for the executed batches with sequence numbers in
// (After, After+Max]; used by replicas that were left in the dark to catch
// up outside the critical path (checkpoint-based state transfer, §II-D).
type Fetch struct {
	From  types.ReplicaID
	After types.SeqNum
	Max   int
}

// FetchReply returns executed records. Each record carries the certificate
// that justified it, so the receiver can validate before applying. Head is
// the server's last executed sequence number: a reply whose records end
// below it is one page of a longer transfer, and the fetcher re-requests
// from its new head.
type FetchReply struct {
	From    types.ReplicaID
	Head    types.SeqNum
	Records []types.ExecRecord
}

// SnapshotRequest asks a peer for its stable checkpoint snapshot, provided
// it is newer than Have (the requester's last executed sequence number).
// Replicas send it when checkpoint certificates prove the cluster's stable
// checkpoint is beyond Fetch's retained-record horizon — a freshly wiped
// replica, or one partitioned away for longer than the retention window.
type SnapshotRequest struct {
	From types.ReplicaID
	Have types.SeqNum
}

// SnapshotOffer announces an incoming snapshot transfer: the checkpoint
// sequence number, total encoded size, chunk count, and the checkpoint
// certificate (f+1 or more signed Checkpoint votes with matching digests)
// that lets the fetcher verify the installed state before trusting it. The
// chunks themselves are unauthenticated; all trust derives from the cert.
type SnapshotOffer struct {
	From   types.ReplicaID
	Seq    types.SeqNum
	Size   int64
	Chunks int
	Cert   []Checkpoint
}

// SnapshotChunk carries one size-capped slice of the snapshot's canonical
// wire encoding.
type SnapshotChunk struct {
	From  types.ReplicaID
	Seq   types.SeqNum
	Index int
	Data  []byte
}

// ReadRequest carries a read-only transaction a client wants served on the
// fast read path (no ordering): SPECULATIVE reads go to any replica, STRONG
// reads to the current primary. The request is signed like any transaction —
// the consistency tier is inside the signed encoding — so a replica can
// verify the client really asked for the weaker tier.
type ReadRequest struct {
	Req types.Request
}

// ReadReply answers a ReadRequest from a replica's local executed prefix,
// without consensus. ExecSeq and StateDigest pin the exact prefix the values
// were read from — the client-side anchor of digest-prefix safety: an
// unrepaired speculative reply must quote a (seq, digest) pair that some
// honest replica's history actually contained. Repaired marks a re-answer
// sent after a rollback truncated past ExecSeq of the original reply.
type ReadReply struct {
	From        types.ReplicaID
	Digest      types.Digest // D(〈T〉c) of the read request
	ClientSeq   uint64       // client-local read sequence number
	Values      [][]byte
	ExecSeq     types.SeqNum      // executed prefix the values were read from
	StateDigest types.Digest      // store digest at ExecSeq
	View        types.View        // serving replica's view
	Tier        types.Consistency // tier actually served
	Repaired    bool
	Tag         []byte // MAC over Payload(), replica → client
}

// Payload returns the digest the reply MAC covers: everything the client
// relies on, so a network adversary can neither retier nor retarget a reply.
func (m *ReadReply) Payload() types.Digest {
	return types.DigestConcat(
		[]byte("readreply"),
		types.U64(uint64(m.From)),
		m.Digest[:],
		types.U64(m.ClientSeq),
		types.U64(uint64(m.ExecSeq)),
		m.StateDigest[:],
		types.U64(uint64(m.View)),
		[]byte{byte(m.Tier), boolByte(m.Repaired)},
		valuesDigest(m.Values),
	)
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func valuesDigest(values [][]byte) []byte {
	d := types.DigestConcat(flatten(values)...)
	return d[:]
}

// LeaseGrant is one replica's read-lease vote for the primary of View: the
// grantor promises not to join any view higher than View until LeaseDuration
// (the granting replica's config) has elapsed on its own clock since it sent
// the grant. A primary holding nf unexpired grants (its own implicit) may
// serve STRONG reads locally: any higher view needs nf join votes, which
// must intersect the grant quorum in a non-faulty promiser — so no
// conflicting view can commit writes while the lease is valid. Both sides
// measure only durations on their own clocks; clock synchronization is never
// assumed (only bounded drift and delivery delay, and those affect just the
// fast path — expiry falls back to ordering). Only the addressed primary ever
// counts a grant, so a pairwise MAC authenticates it, as it does an INFORM.
type LeaseGrant struct {
	From          types.ReplicaID
	View          types.View
	Seq           types.SeqNum // grantor's executed head at grant time
	DurationNanos int64        // grantor's promise window
	Tag           []byte       // MAC over Payload(), grantor → primary
}

// Payload returns the digest the grant's MAC covers.
func (g *LeaseGrant) Payload() types.Digest {
	return types.DigestConcat(
		[]byte("leasegrant"),
		types.U64(uint64(g.From)),
		types.U64(uint64(g.View)),
		types.U64(uint64(g.Seq)),
		types.U64(uint64(g.DurationNanos)),
	)
}

// Checkpoint announces that the sender executed every batch up to Seq and
// has the given state and ledger digests (§II-D). Signed so it can be used
// as a view-change base.
type Checkpoint struct {
	From   types.ReplicaID
	Seq    types.SeqNum
	State  types.Digest
	Ledger types.Digest
	Sig    []byte
}

// SignedPayload returns the bytes covered by the checkpoint signature.
func (c *Checkpoint) SignedPayload() []byte {
	d := types.DigestConcat(
		[]byte("checkpoint"),
		types.U64(uint64(c.From)),
		types.U64(uint64(c.Seq)),
		c.State[:],
		c.Ledger[:],
	)
	return d[:]
}

// VCRequest is the view-change request VC-REQUEST(v, E) every
// primary-backup protocol sends (§II-C, Fig 5): it announces the failure of
// view View's primary and carries the sender's summary E of the order above
// its stable checkpoint. What E holds and when it is valid is each
// protocol's rule (Rules.VCEntries, Rules.ValidEntries). VC-REQUESTs are
// signed: they are forwarded inside NV-PROPOSE and must not be forgeable
// (§II-E).
type VCRequest struct {
	From      types.ReplicaID
	View      types.View // the failed view; the request asks for View+1
	StableSeq types.SeqNum
	Entries   []types.ExecRecord
	Sig       []byte
}

// SignedPayload returns the bytes covered by the view-change signature.
func (m *VCRequest) SignedPayload() []byte {
	parts := [][]byte{
		[]byte("vc-request"),
		types.U64(uint64(m.From)), types.U64(uint64(m.View)), types.U64(uint64(m.StableSeq)),
	}
	for i := range m.Entries {
		e := &m.Entries[i]
		parts = append(parts, types.U64(uint64(e.Seq)), types.U64(uint64(e.View)), e.Digest[:], e.Proof)
	}
	d := types.DigestConcat(parts...)
	return d[:]
}

// End returns the last sequence number a consecutive summary covers.
func (m *VCRequest) End() types.SeqNum { return m.StableSeq + types.SeqNum(len(m.Entries)) }

// NVPropose is the new primary's NV-PROPOSE(v+1, m1, …, mnf): the nf
// view-change requests from which every replica deterministically derives
// the new view's starting state (Rules.NewViewState).
type NVPropose struct {
	NewView  types.View
	Requests []VCRequest
}

func init() {
	wire.Register(func() wire.Message { return &ClientRequest{} })
	wire.Register(func() wire.Message { return &ForwardRequest{} })
	wire.Register(func() wire.Message { return &Inform{} })
	wire.Register(func() wire.Message { return &Fetch{} })
	wire.Register(func() wire.Message { return &FetchReply{} })
	wire.Register(func() wire.Message { return &Checkpoint{} })
	wire.Register(func() wire.Message { return &SnapshotRequest{} })
	wire.Register(func() wire.Message { return &SnapshotOffer{} })
	wire.Register(func() wire.Message { return &SnapshotChunk{} })
	wire.Register(func() wire.Message { return &ReadRequest{} })
	wire.Register(func() wire.Message { return &ReadReply{} })
	wire.Register(func() wire.Message { return &LeaseGrant{} })
	wire.Register(func() wire.Message { return &VCRequest{} })
	wire.Register(func() wire.Message { return &NVPropose{} })
}
