package poe

import (
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/wire"
)

// Hand-written wire codecs for PoE's messages (ids in wire/ids.go).

// WireID implements wire.Message.
func (m *Propose) WireID() uint16 { return wire.IDPoePropose }

// MarshalTo implements wire.Message.
func (m *Propose) MarshalTo(buf []byte) []byte {
	buf = wire.AppendU64(buf, uint64(m.View))
	buf = wire.AppendU64(buf, uint64(m.Seq))
	buf = m.Batch.AppendProposal(buf)
	return wire.AppendBytesSlice(buf, m.Auth)
}

// Unmarshal implements wire.Message.
func (m *Propose) Unmarshal(data []byte) error {
	r := wire.NewReader(data)
	m.View = types.View(r.U64())
	m.Seq = types.SeqNum(r.U64())
	m.Batch.ReadProposal(r)
	m.Auth = r.BytesSlice()
	return r.Close()
}

// WireID implements wire.Message.
func (m *Support) WireID() uint16 { return wire.IDPoeSupport }

// MarshalTo implements wire.Message.
func (m *Support) MarshalTo(buf []byte) []byte {
	buf = wire.AppendU64(buf, uint64(m.View))
	buf = wire.AppendU64(buf, uint64(m.Seq))
	return crypto.AppendShare(buf, m.Share)
}

// Unmarshal implements wire.Message.
func (m *Support) Unmarshal(data []byte) error {
	r := wire.NewReader(data)
	m.View = types.View(r.U64())
	m.Seq = types.SeqNum(r.U64())
	m.Share = crypto.ReadShare(r)
	return r.Close()
}

// WireID implements wire.Message.
func (m *Certify) WireID() uint16 { return wire.IDPoeCertify }

// MarshalTo implements wire.Message.
func (m *Certify) MarshalTo(buf []byte) []byte {
	buf = wire.AppendU64(buf, uint64(m.View))
	buf = wire.AppendU64(buf, uint64(m.Seq))
	buf = types.AppendDigest(buf, m.Digest)
	return wire.AppendBytes(buf, m.Cert)
}

// Unmarshal implements wire.Message.
func (m *Certify) Unmarshal(data []byte) error {
	r := wire.NewReader(data)
	m.View = types.View(r.U64())
	m.Seq = types.SeqNum(r.U64())
	m.Digest = types.ReadDigest(r)
	m.Cert = r.Bytes()
	return r.Close()
}
