package zyzzyva

import (
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/wire"
)

// Hand-written wire codecs for Zyzzyva's messages (ids in wire/ids.go).

// WireID implements wire.Message.
func (m *OrderReq) WireID() uint16 { return wire.IDZyzOrderReq }

// MarshalTo implements wire.Message.
func (m *OrderReq) MarshalTo(buf []byte) []byte {
	buf = wire.AppendU64(buf, uint64(m.View))
	buf = wire.AppendU64(buf, uint64(m.Seq))
	buf = types.AppendDigest(buf, m.History)
	buf = m.Batch.AppendProposal(buf)
	return wire.AppendBytesSlice(buf, m.Auth)
}

// Unmarshal implements wire.Message.
func (m *OrderReq) Unmarshal(data []byte) error {
	r := wire.NewReader(data)
	m.View = types.View(r.U64())
	m.Seq = types.SeqNum(r.U64())
	m.History = types.ReadDigest(r)
	m.Batch.ReadProposal(r)
	m.Auth = r.BytesSlice()
	return r.Close()
}

// WireID implements wire.Message.
func (m *CommitReq) WireID() uint16 { return wire.IDZyzCommitReq }

// MarshalTo implements wire.Message.
func (m *CommitReq) MarshalTo(buf []byte) []byte {
	buf = wire.AppendI32(buf, int32(m.Client))
	buf = wire.AppendU64(buf, m.ClientSeq)
	buf = wire.AppendU64(buf, uint64(m.Seq))
	buf = types.AppendDigest(buf, m.History)
	return crypto.AppendShares(buf, m.Shares)
}

// Unmarshal implements wire.Message.
func (m *CommitReq) Unmarshal(data []byte) error {
	r := wire.NewReader(data)
	m.Client = types.ClientID(r.I32())
	m.ClientSeq = r.U64()
	m.Seq = types.SeqNum(r.U64())
	m.History = types.ReadDigest(r)
	m.Shares = crypto.ReadShares(r)
	return r.Close()
}

// WireID implements wire.Message.
func (m *LocalCommit) WireID() uint16 { return wire.IDZyzLocalCommit }

// MarshalTo implements wire.Message.
func (m *LocalCommit) MarshalTo(buf []byte) []byte {
	buf = wire.AppendI32(buf, int32(m.From))
	buf = wire.AppendU64(buf, m.ClientSeq)
	buf = wire.AppendU64(buf, uint64(m.Seq))
	return wire.AppendBytes(buf, m.Tag)
}

// Unmarshal implements wire.Message.
func (m *LocalCommit) Unmarshal(data []byte) error {
	r := wire.NewReader(data)
	m.From = types.ReplicaID(r.I32())
	m.ClientSeq = r.U64()
	m.Seq = types.SeqNum(r.U64())
	m.Tag = r.Bytes()
	return r.Close()
}
