package protocol

import (
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/wire"
)

// Hand-written wire codecs for the shared runtime messages. Every message
// the replicas or clients exchange implements wire.Message; registration in
// init replaces the old gob registration, and the TCP transport refuses
// anything unregistered.

// appendAuthedRequest and readAuthedRequest are the shared body of the three
// messages that carry a request toward a replica that may have to be
// convinced by MAC: the request's record encoding, then Auth as the
// unprefixed rest of the body. A sender that knows no Auth (an older client,
// a hand-built request) therefore emits exactly the pre-Auth encoding, and
// the receiver falls back to the signature.
func appendAuthedRequest(buf []byte, req *types.Request) []byte {
	return append(req.AppendWire(buf), req.Auth...)
}

func readAuthedRequest(data []byte, req *types.Request) error {
	r := wire.NewReader(data)
	req.ReadWire(r)
	if r.Len() > 0 {
		req.Auth = r.Raw(r.Len())
	}
	return r.Close()
}

// WireID implements wire.Message.
func (m *ClientRequest) WireID() uint16 { return wire.IDClientRequest }

// MarshalTo implements wire.Message.
func (m *ClientRequest) MarshalTo(buf []byte) []byte { return appendAuthedRequest(buf, &m.Req) }

// Unmarshal implements wire.Message.
func (m *ClientRequest) Unmarshal(data []byte) error { return readAuthedRequest(data, &m.Req) }

// WireID implements wire.Message.
func (m *ForwardRequest) WireID() uint16 { return wire.IDForwardRequest }

// MarshalTo implements wire.Message.
func (m *ForwardRequest) MarshalTo(buf []byte) []byte { return appendAuthedRequest(buf, &m.Req) }

// Unmarshal implements wire.Message.
func (m *ForwardRequest) Unmarshal(data []byte) error { return readAuthedRequest(data, &m.Req) }

// WireID implements wire.Message.
func (m *Inform) WireID() uint16 { return wire.IDInform }

// MarshalTo implements wire.Message.
func (m *Inform) MarshalTo(buf []byte) []byte {
	buf = wire.AppendI32(buf, int32(m.From))
	buf = types.AppendDigest(buf, m.Digest)
	buf = wire.AppendU64(buf, uint64(m.View))
	buf = wire.AppendU64(buf, uint64(m.Seq))
	buf = wire.AppendU64(buf, m.ClientSeq)
	buf = wire.AppendBytesSlice(buf, m.Values)
	buf = wire.AppendBytes(buf, m.Tag)
	buf = wire.AppendBool(buf, m.Speculative)
	buf = types.AppendDigest(buf, m.OrderProof)
	buf = crypto.AppendShare(buf, m.Share)
	return wire.AppendBytes(buf, m.Cert)
}

// Unmarshal implements wire.Message.
func (m *Inform) Unmarshal(data []byte) error {
	r := wire.NewReader(data)
	m.From = types.ReplicaID(r.I32())
	m.Digest = types.ReadDigest(r)
	m.View = types.View(r.U64())
	m.Seq = types.SeqNum(r.U64())
	m.ClientSeq = r.U64()
	m.Values = r.BytesSlice()
	m.Tag = r.Bytes()
	m.Speculative = r.Bool()
	m.OrderProof = types.ReadDigest(r)
	m.Share = crypto.ReadShare(r)
	m.Cert = r.Bytes()
	return r.Close()
}

// WireID implements wire.Message.
func (m *Fetch) WireID() uint16 { return wire.IDFetch }

// MarshalTo implements wire.Message.
func (m *Fetch) MarshalTo(buf []byte) []byte {
	buf = wire.AppendI32(buf, int32(m.From))
	buf = wire.AppendU64(buf, uint64(m.After))
	return wire.AppendI64(buf, int64(m.Max))
}

// Unmarshal implements wire.Message.
func (m *Fetch) Unmarshal(data []byte) error {
	r := wire.NewReader(data)
	m.From = types.ReplicaID(r.I32())
	m.After = types.SeqNum(r.U64())
	m.Max = int(r.I64())
	return r.Close()
}

// WireID implements wire.Message.
func (m *FetchReply) WireID() uint16 { return wire.IDFetchReply }

// MarshalTo implements wire.Message.
func (m *FetchReply) MarshalTo(buf []byte) []byte {
	buf = wire.AppendI32(buf, int32(m.From))
	buf = wire.AppendU64(buf, uint64(m.Head))
	return types.AppendRecords(buf, m.Records)
}

// Unmarshal implements wire.Message.
func (m *FetchReply) Unmarshal(data []byte) error {
	r := wire.NewReader(data)
	m.From = types.ReplicaID(r.I32())
	m.Head = types.SeqNum(r.U64())
	m.Records = types.ReadRecords(r)
	return r.Close()
}

// WireID implements wire.Message.
func (m *Checkpoint) WireID() uint16 { return wire.IDCheckpoint }

// MarshalTo implements wire.Message.
func (m *Checkpoint) MarshalTo(buf []byte) []byte {
	buf = wire.AppendI32(buf, int32(m.From))
	buf = wire.AppendU64(buf, uint64(m.Seq))
	buf = types.AppendDigest(buf, m.State)
	buf = types.AppendDigest(buf, m.Ledger)
	return wire.AppendBytes(buf, m.Sig)
}

// Unmarshal implements wire.Message.
func (m *Checkpoint) Unmarshal(data []byte) error {
	r := wire.NewReader(data)
	m.From = types.ReplicaID(r.I32())
	m.Seq = types.SeqNum(r.U64())
	m.State = types.ReadDigest(r)
	m.Ledger = types.ReadDigest(r)
	m.Sig = r.Bytes()
	return r.Close()
}

// appendCheckpoint appends one checkpoint vote's fields (shared between the
// Checkpoint codec above and the certificate inside SnapshotOffer).
func appendCheckpoint(buf []byte, c *Checkpoint) []byte {
	buf = wire.AppendI32(buf, int32(c.From))
	buf = wire.AppendU64(buf, uint64(c.Seq))
	buf = types.AppendDigest(buf, c.State)
	buf = types.AppendDigest(buf, c.Ledger)
	return wire.AppendBytes(buf, c.Sig)
}

func readCheckpoint(r *wire.Reader, c *Checkpoint) {
	c.From = types.ReplicaID(r.I32())
	c.Seq = types.SeqNum(r.U64())
	c.State = types.ReadDigest(r)
	c.Ledger = types.ReadDigest(r)
	c.Sig = r.Bytes()
}

// WireID implements wire.Message.
func (m *SnapshotRequest) WireID() uint16 { return wire.IDSnapshotRequest }

// MarshalTo implements wire.Message.
func (m *SnapshotRequest) MarshalTo(buf []byte) []byte {
	buf = wire.AppendI32(buf, int32(m.From))
	return wire.AppendU64(buf, uint64(m.Have))
}

// Unmarshal implements wire.Message.
func (m *SnapshotRequest) Unmarshal(data []byte) error {
	r := wire.NewReader(data)
	m.From = types.ReplicaID(r.I32())
	m.Have = types.SeqNum(r.U64())
	return r.Close()
}

// WireID implements wire.Message.
func (m *SnapshotOffer) WireID() uint16 { return wire.IDSnapshotOffer }

// MarshalTo implements wire.Message.
func (m *SnapshotOffer) MarshalTo(buf []byte) []byte {
	buf = wire.AppendI32(buf, int32(m.From))
	buf = wire.AppendU64(buf, uint64(m.Seq))
	buf = wire.AppendI64(buf, m.Size)
	buf = wire.AppendI64(buf, int64(m.Chunks))
	buf = wire.AppendU32(buf, uint32(len(m.Cert)))
	for i := range m.Cert {
		buf = appendCheckpoint(buf, &m.Cert[i])
	}
	return buf
}

// Unmarshal implements wire.Message.
func (m *SnapshotOffer) Unmarshal(data []byte) error {
	r := wire.NewReader(data)
	m.From = types.ReplicaID(r.I32())
	m.Seq = types.SeqNum(r.U64())
	m.Size = r.I64()
	m.Chunks = int(r.I64())
	n := r.Count(4 + 8 + 64 + 4) // per-vote floor: i32 + u64 + two digests + sig length
	m.Cert = make([]Checkpoint, n)
	for i := 0; i < n; i++ {
		readCheckpoint(r, &m.Cert[i])
		if r.Err() != nil {
			break
		}
	}
	return r.Close()
}

// WireID implements wire.Message.
func (m *ReadRequest) WireID() uint16 { return wire.IDReadRequest }

// MarshalTo implements wire.Message.
func (m *ReadRequest) MarshalTo(buf []byte) []byte { return appendAuthedRequest(buf, &m.Req) }

// Unmarshal implements wire.Message.
func (m *ReadRequest) Unmarshal(data []byte) error { return readAuthedRequest(data, &m.Req) }

// WireID implements wire.Message.
func (m *ReadReply) WireID() uint16 { return wire.IDReadReply }

// MarshalTo implements wire.Message.
func (m *ReadReply) MarshalTo(buf []byte) []byte {
	buf = wire.AppendI32(buf, int32(m.From))
	buf = types.AppendDigest(buf, m.Digest)
	buf = wire.AppendU64(buf, m.ClientSeq)
	buf = wire.AppendBytesSlice(buf, m.Values)
	buf = wire.AppendU64(buf, uint64(m.ExecSeq))
	buf = types.AppendDigest(buf, m.StateDigest)
	buf = wire.AppendU64(buf, uint64(m.View))
	buf = wire.AppendU8(buf, uint8(m.Tier))
	buf = wire.AppendBool(buf, m.Repaired)
	return wire.AppendBytes(buf, m.Tag)
}

// Unmarshal implements wire.Message.
func (m *ReadReply) Unmarshal(data []byte) error {
	r := wire.NewReader(data)
	m.From = types.ReplicaID(r.I32())
	m.Digest = types.ReadDigest(r)
	m.ClientSeq = r.U64()
	m.Values = r.BytesSlice()
	m.ExecSeq = types.SeqNum(r.U64())
	m.StateDigest = types.ReadDigest(r)
	m.View = types.View(r.U64())
	m.Tier = types.Consistency(r.U8())
	m.Repaired = r.Bool()
	m.Tag = r.Bytes()
	return r.Close()
}

// WireID implements wire.Message.
func (m *LeaseGrant) WireID() uint16 { return wire.IDLeaseGrant }

// MarshalTo implements wire.Message.
func (m *LeaseGrant) MarshalTo(buf []byte) []byte {
	buf = wire.AppendI32(buf, int32(m.From))
	buf = wire.AppendU64(buf, uint64(m.View))
	buf = wire.AppendU64(buf, uint64(m.Seq))
	buf = wire.AppendI64(buf, m.DurationNanos)
	return wire.AppendBytes(buf, m.Tag)
}

// Unmarshal implements wire.Message.
func (m *LeaseGrant) Unmarshal(data []byte) error {
	r := wire.NewReader(data)
	m.From = types.ReplicaID(r.I32())
	m.View = types.View(r.U64())
	m.Seq = types.SeqNum(r.U64())
	m.DurationNanos = r.I64()
	m.Tag = r.Bytes()
	return r.Close()
}

// WireID implements wire.Message.
func (m *SnapshotChunk) WireID() uint16 { return wire.IDSnapshotChunk }

// MarshalTo implements wire.Message.
func (m *SnapshotChunk) MarshalTo(buf []byte) []byte {
	buf = wire.AppendI32(buf, int32(m.From))
	buf = wire.AppendU64(buf, uint64(m.Seq))
	buf = wire.AppendI64(buf, int64(m.Index))
	return wire.AppendBytes(buf, m.Data)
}

// Unmarshal implements wire.Message.
func (m *SnapshotChunk) Unmarshal(data []byte) error {
	r := wire.NewReader(data)
	m.From = types.ReplicaID(r.I32())
	m.Seq = types.SeqNum(r.U64())
	m.Index = int(r.I64())
	m.Data = r.Bytes()
	return r.Close()
}

// appendVCRequest/readVCRequest are shared by VCRequest and NVPropose.
func appendVCRequest(buf []byte, m *VCRequest) []byte {
	buf = wire.AppendI32(buf, int32(m.From))
	buf = wire.AppendU64(buf, uint64(m.View))
	buf = wire.AppendU64(buf, uint64(m.StableSeq))
	buf = types.AppendRecords(buf, m.Entries)
	return wire.AppendBytes(buf, m.Sig)
}

func readVCRequest(r *wire.Reader, m *VCRequest) {
	m.From = types.ReplicaID(r.I32())
	m.View = types.View(r.U64())
	m.StableSeq = types.SeqNum(r.U64())
	m.Entries = types.ReadRecords(r)
	m.Sig = r.Bytes()
}

// WireID implements wire.Message.
func (m *VCRequest) WireID() uint16 { return wire.IDVCRequest }

// MarshalTo implements wire.Message.
func (m *VCRequest) MarshalTo(buf []byte) []byte { return appendVCRequest(buf, m) }

// Unmarshal implements wire.Message.
func (m *VCRequest) Unmarshal(data []byte) error {
	r := wire.NewReader(data)
	readVCRequest(r, m)
	return r.Close()
}

// WireID implements wire.Message.
func (m *NVPropose) WireID() uint16 { return wire.IDNVPropose }

// MarshalTo implements wire.Message.
func (m *NVPropose) MarshalTo(buf []byte) []byte {
	buf = wire.AppendU64(buf, uint64(m.NewView))
	buf = wire.AppendU32(buf, uint32(len(m.Requests)))
	for i := range m.Requests {
		buf = appendVCRequest(buf, &m.Requests[i])
	}
	return buf
}

// Unmarshal implements wire.Message.
func (m *NVPropose) Unmarshal(data []byte) error {
	r := wire.NewReader(data)
	m.NewView = types.View(r.U64())
	n := r.Count(4 + 8 + 8 + 4 + 4) // per-request floor: i32 + two u64 + record count + sig length
	m.Requests = nil
	if n > 0 {
		m.Requests = make([]VCRequest, n)
		for i := range m.Requests {
			readVCRequest(r, &m.Requests[i])
		}
	}
	return r.Close()
}
