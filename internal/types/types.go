// Package types defines the identifiers, transactions, requests, and batches
// shared by every consensus protocol in this repository.
//
// The types mirror the system model of the PoE paper (§II-A): a system is a
// tuple (R, C) of replicas and clients; replicas have dense integer
// identifiers 0 ≤ id < n; protocols operate in views v = 0, 1, ... and order
// transactions by sequence number k.
package types

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"github.com/poexec/poe/internal/wire"
)

// ReplicaID identifies a replica. IDs are dense: 0 ≤ id < n.
type ReplicaID int32

// ClientID identifies a client. Client IDs are disjoint from replica IDs; by
// convention they start at ClientIDBase.
type ClientID int32

// ClientIDBase is the first client identifier. Replica IDs are always below
// it, which lets a transport route both kinds of node through one address
// space.
const ClientIDBase ClientID = 1 << 20

// View numbers a configuration with a fixed primary. In view v the replica
// with id(R) = v mod n is the primary.
type View uint64

// SeqNum is the position of a transaction (or batch) in the global order.
type SeqNum uint64

// Primary returns the primary replica of view v in a system of n replicas.
func (v View) Primary(n int) ReplicaID {
	return ReplicaID(uint64(v) % uint64(n))
}

// Digest is a SHA-256 hash value used to identify transactions, batches, and
// blocks.
type Digest [32]byte

// ZeroDigest is the zero value of Digest, used for genesis links.
var ZeroDigest Digest

func (d Digest) String() string { return fmt.Sprintf("%x", d[:6]) }

// IsZero reports whether the digest is all zeroes.
func (d Digest) IsZero() bool { return d == ZeroDigest }

// DigestBytes hashes an arbitrary byte string.
func DigestBytes(b []byte) Digest { return sha256.Sum256(b) }

// DigestConcat hashes the concatenation of the given byte strings with
// unambiguous length framing, so DigestConcat(a, b) != DigestConcat(a||b).
func DigestConcat(parts ...[]byte) Digest {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write(p)
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// U64 returns v as eight big-endian bytes: the fixed-width integer part of
// every DigestConcat-signed payload.
func U64(v uint64) []byte {
	return binary.BigEndian.AppendUint64(nil, v)
}

// ProposalDigest computes h = D(k || v || payload-digest), the value signed in
// SUPPORT messages (Fig 3, Line 13 of the paper).
func ProposalDigest(k SeqNum, v View, payload Digest) Digest {
	var buf [16 + 32]byte
	binary.BigEndian.PutUint64(buf[0:8], uint64(k))
	binary.BigEndian.PutUint64(buf[8:16], uint64(v))
	copy(buf[16:], payload[:])
	return sha256.Sum256(buf[:])
}

// OpKind is the kind of a key-value operation inside a transaction.
type OpKind uint8

const (
	// OpRead reads a key.
	OpRead OpKind = iota
	// OpWrite writes a key.
	OpWrite
	// OpNoop executes a fixed amount of dummy work and touches no state.
	// Used by the paper's zero-payload experiments.
	OpNoop
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpNoop:
		return "noop"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// Op is a single key-value operation.
type Op struct {
	Kind  OpKind
	Key   string
	Value []byte
}

// Consistency selects how a transaction's results may be produced. The zero
// value (ConsistencyOrdered) is the classic path — full consensus ordering —
// so every transaction that predates the read tiers keeps its semantics.
// The other tiers only apply to read-only transactions; replicas order
// anything else regardless of the tag.
type Consistency uint8

const (
	// ConsistencyOrdered runs the transaction through consensus ordering.
	ConsistencyOrdered Consistency = iota
	// ConsistencyStrong serves a read-only transaction linearizably from
	// the current primary under a quorum-granted read lease, falling back
	// to ordering when no valid lease is held.
	ConsistencyStrong
	// ConsistencySpeculative serves a read-only transaction locally from
	// any replica's executed (possibly still speculative) prefix. The reply
	// is tagged with the executed sequence number and state digest; if a
	// rollback later truncates past that point the replica re-answers with
	// the repaired value.
	ConsistencySpeculative
)

func (c Consistency) String() string {
	switch c {
	case ConsistencyOrdered:
		return "ordered"
	case ConsistencyStrong:
		return "strong"
	case ConsistencySpeculative:
		return "speculative"
	default:
		return fmt.Sprintf("consistency(%d)", uint8(c))
	}
}

// Transaction is a client-issued unit of work: an ordered list of operations
// executed atomically and deterministically by every replica.
type Transaction struct {
	Client    ClientID
	Seq       uint64 // client-local sequence number, for deduplication
	Ops       []Op
	TimeNanos int64 // client send time; carried through for latency accounting

	// Consistency tiers read-only transactions onto the fast read path; see
	// the Consistency doc. Part of the signed canonical encoding, so a
	// relaying replica cannot silently downgrade a client's read tier.
	Consistency Consistency
}

// ReadOnly reports whether every operation in the transaction is a read.
// Only read-only transactions are eligible for the non-ordered consistency
// tiers; an empty transaction is not considered read-only.
func (t *Transaction) ReadOnly() bool {
	if len(t.Ops) == 0 {
		return false
	}
	for i := range t.Ops {
		if t.Ops[i].Kind != OpRead {
			return false
		}
	}
	return true
}

// Digest returns a collision-resistant identifier of the transaction: the
// SHA-256 of its canonical wire encoding (types/wire.go). Hashing the
// encoding — rather than walking the fields a second time with bespoke
// framing — is what lets a Request feed the same bytes to its digest, its
// PROPOSE marshal, and its WAL record.
func (t *Transaction) Digest() Digest {
	buf := wire.GetBuf()
	buf = t.AppendWire(buf)
	d := digestOf(buf)
	wire.PutBuf(buf)
	return d
}

// Request is a signed transaction 〈T〉c: the transaction plus the client's
// signature over its digest. Signatures assure that malicious primaries
// cannot forge transactions (§II-B).
//
// Request memoizes its digest and canonical encoding in unexported fields
// (never serialized; carried by value copies). Memoization mutates the
// struct, so only the request's owner may take its digest first. Every
// transport hands each receiver its own decoded copy, so a received request
// is the receiver's; the inbound check memoizes it at ingress, and after
// that the replica's event loop owns its copies exclusively.
type Request struct {
	Txn Transaction
	Sig []byte // client signature over Txn.Digest()
	// Auth is the client→replica authenticator: one fixed-size MAC tag per
	// replica over Txn.Digest(), replica i's at offset i × tag size (the
	// crypto package fixes the size and computes the tags). A tag convinces
	// only the replica it is keyed to, so a replica that merely supports a
	// proposal carrying the request may accept it on its own tag instead of
	// Sig; whoever may propose the request checks Sig, the transferable
	// proof. Auth is outside the digest and outside the ExecRecord encoding:
	// it travels from the client and inside proposals, never to disk. Empty
	// or malformed Auth only costs the receiver the signature check.
	Auth []byte

	digest    Digest
	hasDigest bool
	// txnEnc memoizes the transaction's canonical wire encoding (shared by
	// value copies, immutable once set): the single serialization pass the
	// digest, the proposal marshal, and the WAL record all reuse.
	txnEnc []byte
}

// Digest returns the digest of the wrapped transaction, computing it on
// first use and memoizing it. The computation memoizes the transaction's
// wire encoding as a side effect, so a later marshal of this request is a
// plain copy.
func (r *Request) Digest() Digest {
	if !r.hasDigest {
		r.ensureEnc()
		r.digest = digestOf(r.txnEnc)
		r.hasDigest = true
	}
	return r.digest
}

// Batch aggregates client requests proposed under one sequence number
// (§III "Batching"). A batch with an empty request list and ZeroPayload set
// models the paper's zero-payload experiments: replicas execute dummy
// instructions but no request bytes travel in PROPOSE messages.
type Batch struct {
	Requests    []Request
	ZeroPayload bool
	// ZeroCount is the number of dummy executions a zero-payload batch
	// stands for (the paper uses 100).
	ZeroCount int

	// digest memoization; see the Request doc comment for the ownership
	// rule that makes this safe.
	digest    Digest
	hasDigest bool
}

// Clone returns a batch whose Request structs (and digest memos) are owned
// by the caller. The per-request payloads (keys, values, signatures) are
// shared — they are immutable once created. Reordering or extending the
// clone's requests leaves the original untouched.
func (b Batch) Clone() Batch {
	if b.Requests != nil {
		b.Requests = append([]Request(nil), b.Requests...)
	}
	return b
}

// MemoizeDigests populates the batch's digest memo and every request's, so
// later Digest calls anywhere downstream are loads. Call only on an owned
// batch (see Request).
func (b *Batch) MemoizeDigests() { _ = b.Digest() }

// Size returns the number of logical transactions the batch carries.
func (b *Batch) Size() int {
	if b.ZeroPayload {
		return b.ZeroCount
	}
	return len(b.Requests)
}

// Digest identifies the batch contents. It is memoized, and computing it
// memoizes every request digest as a side effect.
func (b *Batch) Digest() Digest {
	if b.hasDigest {
		return b.digest
	}
	h := sha256.New()
	if b.ZeroPayload {
		var buf [9]byte
		buf[0] = 1
		binary.BigEndian.PutUint64(buf[1:], uint64(b.ZeroCount))
		h.Write(buf[:])
	}
	for i := range b.Requests {
		d := b.Requests[i].Digest()
		h.Write(d[:])
	}
	h.Sum(b.digest[:0])
	b.hasDigest = true
	return b.digest
}

// Result is the outcome of executing one transaction.
type Result struct {
	Client ClientID
	Seq    uint64 // client-local sequence number of the executed transaction
	Values [][]byte
}

// ExecRecord logs ExecuteR(〈T〉c, k, v): the fact that a batch was executed
// at sequence k in view v, together with the certificate that justified it.
type ExecRecord struct {
	Seq    SeqNum
	View   View
	Digest Digest // batch digest
	Proof  []byte // certificate (threshold signature / support proof)
	Batch  Batch
}
