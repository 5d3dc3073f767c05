package types

import (
	"crypto/sha256"

	"github.com/poexec/poe/internal/wire"
)

// Hand-written wire codecs for the shared value types (package wire holds
// the conventions). Layouts are append-order contracts: changing one is a
// wire/disk format change and must bump the storage format version.
//
// Digest computation and wire encoding are deliberately the same pass: a
// transaction's digest is the SHA-256 of its canonical wire encoding, and a
// Request memoizes that encoding the first time either its digest or its
// marshal is needed — so proposing, WAL-logging, and digesting a request all
// reuse one serialization instead of each walking the fields again. Decoded
// requests get the memo for free: ReadWire captures the exact input range the
// transaction occupied (zero-copy, aliasing the receive buffer).

// AppendDigest appends a digest's raw 32 bytes.
func AppendDigest(buf []byte, d Digest) []byte { return append(buf, d[:]...) }

// ReadDigest reads a raw 32-byte digest.
func ReadDigest(r *wire.Reader) Digest {
	var d Digest
	copy(d[:], r.Raw(32))
	return d
}

// AppendWire appends the op's encoding: kind, key, value.
func (o *Op) AppendWire(buf []byte) []byte {
	buf = wire.AppendU8(buf, uint8(o.Kind))
	buf = wire.AppendString(buf, o.Key)
	return wire.AppendBytes(buf, o.Value)
}

// ReadWire decodes one op.
func (o *Op) ReadWire(r *wire.Reader) {
	o.Kind = OpKind(r.U8())
	o.Key = r.String()
	o.Value = r.Bytes()
}

// AppendWire appends the transaction's encoding: client, seq, send time,
// consistency tier, ops. This is the byte string transaction digests are
// computed over — the consistency byte is covered by the client signature, so
// a relay cannot retier a read. (The tier byte was added with the read path;
// WAL records written under the previous layout use the older storage format
// version and are refused, not mis-decoded.)
func (t *Transaction) AppendWire(buf []byte) []byte {
	buf = wire.AppendI32(buf, int32(t.Client))
	buf = wire.AppendU64(buf, t.Seq)
	buf = wire.AppendI64(buf, t.TimeNanos)
	buf = wire.AppendU8(buf, uint8(t.Consistency))
	buf = wire.AppendU32(buf, uint32(len(t.Ops)))
	for i := range t.Ops {
		buf = t.Ops[i].AppendWire(buf)
	}
	return buf
}

// ReadWire decodes one transaction.
func (t *Transaction) ReadWire(r *wire.Reader) {
	t.Client = ClientID(r.I32())
	t.Seq = r.U64()
	t.TimeNanos = r.I64()
	t.Consistency = Consistency(r.U8())
	n := r.Count(9) // kind byte + two u32 length prefixes
	if n == 0 {
		t.Ops = nil
		return
	}
	t.Ops = make([]Op, n)
	for i := range t.Ops {
		t.Ops[i].ReadWire(r)
	}
}

// ensureEnc memoizes the transaction's canonical encoding. Like digest
// memoization, it mutates the request, so the ownership rule in the Request
// doc comment applies.
func (r *Request) ensureEnc() {
	if r.txnEnc != nil {
		return
	}
	buf := wire.GetBuf()
	buf = r.Txn.AppendWire(buf)
	r.txnEnc = append(make([]byte, 0, len(buf)), buf...)
	wire.PutBuf(buf)
}

// AppendWire appends the request's encoding: transaction, then signature.
// Auth is not part of it — this is the form execution records keep on disk
// and ship in state transfer, where nobody is left to convince by MAC.
func (r *Request) AppendWire(buf []byte) []byte {
	if r.txnEnc != nil {
		buf = append(buf, r.txnEnc...)
	} else {
		buf = r.Txn.AppendWire(buf)
	}
	return wire.AppendBytes(buf, r.Sig)
}

// ReadWire decodes one request, memoizing the transaction's encoding from
// the input range it occupied (zero-copy): the first Digest call afterwards
// is a single hash over those bytes, with no re-serialization.
func (req *Request) ReadWire(r *wire.Reader) {
	start := r.Off()
	req.Txn.ReadWire(r)
	req.txnEnc = r.Since(start)
	req.Sig = r.Bytes()
	req.Auth = nil
	req.digest, req.hasDigest = Digest{}, false
}

// AppendWire appends the batch's encoding: zero-payload marker and count,
// then the requests. This is the form execution records keep (WAL, state
// transfer, view-change entries, snapshots): it carries no Auth.
func (b *Batch) AppendWire(buf []byte) []byte { return b.appendWire(buf, false) }

// ReadWire decodes one batch.
func (b *Batch) ReadWire(r *wire.Reader) { b.readWire(r, false) }

// AppendProposal appends the batch as a proposal carries it: AppendWire's
// layout with each request's Auth after its signature, so every receiving
// replica finds its own tag.
func (b *Batch) AppendProposal(buf []byte) []byte { return b.appendWire(buf, true) }

// ReadProposal decodes a batch encoded by AppendProposal.
func (b *Batch) ReadProposal(r *wire.Reader) { b.readWire(r, true) }

func (b *Batch) appendWire(buf []byte, auth bool) []byte {
	buf = wire.AppendBool(buf, b.ZeroPayload)
	buf = wire.AppendU64(buf, uint64(b.ZeroCount))
	buf = wire.AppendU32(buf, uint32(len(b.Requests)))
	for i := range b.Requests {
		buf = b.Requests[i].AppendWire(buf)
		if auth {
			buf = wire.AppendBytes(buf, b.Requests[i].Auth)
		}
	}
	return buf
}

func (b *Batch) readWire(r *wire.Reader, auth bool) {
	b.ZeroPayload = r.Bool()
	b.ZeroCount = int(r.U64())
	n := r.Count(29) // minimum encoded size of an empty request
	if n == 0 {
		b.Requests = nil
	} else {
		b.Requests = make([]Request, n)
		for i := range b.Requests {
			b.Requests[i].ReadWire(r)
			if auth {
				b.Requests[i].Auth = r.Bytes()
			}
		}
	}
	b.digest, b.hasDigest = Digest{}, false
}

// AppendWire appends the record's encoding: position, view, batch digest,
// certificate, batch.
func (e *ExecRecord) AppendWire(buf []byte) []byte {
	buf = wire.AppendU64(buf, uint64(e.Seq))
	buf = wire.AppendU64(buf, uint64(e.View))
	buf = AppendDigest(buf, e.Digest)
	buf = wire.AppendBytes(buf, e.Proof)
	return e.Batch.AppendWire(buf)
}

// ReadWire decodes one execution record.
func (e *ExecRecord) ReadWire(r *wire.Reader) {
	e.Seq = SeqNum(r.U64())
	e.View = View(r.U64())
	e.Digest = ReadDigest(r)
	e.Proof = r.Bytes()
	e.Batch.ReadWire(r)
}

// AppendRecords appends a count-prefixed slice of execution records.
func AppendRecords(buf []byte, recs []ExecRecord) []byte {
	buf = wire.AppendU32(buf, uint32(len(recs)))
	for i := range recs {
		buf = recs[i].AppendWire(buf)
	}
	return buf
}

// ReadRecords decodes a count-prefixed slice of execution records.
func ReadRecords(r *wire.Reader) []ExecRecord {
	n := r.Count(16 + 32 + 4 + 9) // minimum encoded record size
	if n == 0 {
		return nil
	}
	recs := make([]ExecRecord, n)
	for i := range recs {
		recs[i].ReadWire(r)
	}
	if r.Err() != nil {
		return nil
	}
	return recs
}

// ExecRecord also implements wire.Message so the storage layer and the
// codec benchmarks can treat it as a stand-alone payload.

// WireID implements wire.Message.
func (e *ExecRecord) WireID() uint16 { return wire.IDExecRecord }

// MarshalTo implements wire.Message.
func (e *ExecRecord) MarshalTo(buf []byte) []byte { return e.AppendWire(buf) }

// Unmarshal implements wire.Message (strict: no trailing bytes).
func (e *ExecRecord) Unmarshal(data []byte) error {
	r := wire.NewReader(data)
	e.ReadWire(r)
	return r.Close()
}

func init() {
	wire.Register(func() wire.Message { return &ExecRecord{} })
}

// digestOf hashes a byte string into a Digest without the DigestBytes
// indirection (kept here so the hot path below reads as one line).
func digestOf(b []byte) Digest { return sha256.Sum256(b) }
