package pbft

import (
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/wire"
)

// Hand-written wire codecs for PBFT's messages (ids in wire/ids.go).

// WireID implements wire.Message.
func (m *PrePrepare) WireID() uint16 { return wire.IDPbftPrePrepare }

// MarshalTo implements wire.Message.
func (m *PrePrepare) MarshalTo(buf []byte) []byte {
	buf = wire.AppendU64(buf, uint64(m.View))
	buf = wire.AppendU64(buf, uint64(m.Seq))
	buf = m.Batch.AppendProposal(buf)
	return wire.AppendBytesSlice(buf, m.Auth)
}

// Unmarshal implements wire.Message.
func (m *PrePrepare) Unmarshal(data []byte) error {
	r := wire.NewReader(data)
	m.View = types.View(r.U64())
	m.Seq = types.SeqNum(r.U64())
	m.Batch.ReadProposal(r)
	m.Auth = r.BytesSlice()
	return r.Close()
}

// WireID implements wire.Message.
func (m *Prepare) WireID() uint16 { return wire.IDPbftPrepare }

// MarshalTo implements wire.Message.
func (m *Prepare) MarshalTo(buf []byte) []byte {
	buf = wire.AppendU64(buf, uint64(m.View))
	buf = wire.AppendU64(buf, uint64(m.Seq))
	return crypto.AppendShare(buf, m.Share)
}

// Unmarshal implements wire.Message.
func (m *Prepare) Unmarshal(data []byte) error {
	r := wire.NewReader(data)
	m.View = types.View(r.U64())
	m.Seq = types.SeqNum(r.U64())
	m.Share = crypto.ReadShare(r)
	return r.Close()
}

// WireID implements wire.Message.
func (m *Commit) WireID() uint16 { return wire.IDPbftCommit }

// MarshalTo implements wire.Message.
func (m *Commit) MarshalTo(buf []byte) []byte {
	buf = wire.AppendU64(buf, uint64(m.View))
	buf = wire.AppendU64(buf, uint64(m.Seq))
	return crypto.AppendShare(buf, m.Share)
}

// Unmarshal implements wire.Message.
func (m *Commit) Unmarshal(data []byte) error {
	r := wire.NewReader(data)
	m.View = types.View(r.U64())
	m.Seq = types.SeqNum(r.U64())
	m.Share = crypto.ReadShare(r)
	return r.Close()
}
