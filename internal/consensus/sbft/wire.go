package sbft

import (
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/wire"
)

// Hand-written wire codecs for SBFT's messages (ids in wire/ids.go).

// WireID implements wire.Message.
func (m *PrePrepare) WireID() uint16 { return wire.IDSbftPrePrepare }

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

// appendShareMsg/readShareMsg cover the three share-carrying phases, which
// share one layout: view, seq, share.
func appendShareMsg(buf []byte, v types.View, k types.SeqNum, s crypto.Share) []byte {
	buf = wire.AppendU64(buf, uint64(v))
	buf = wire.AppendU64(buf, uint64(k))
	return crypto.AppendShare(buf, s)
}

func readShareMsg(r *wire.Reader, v *types.View, k *types.SeqNum, s *crypto.Share) {
	*v = types.View(r.U64())
	*k = types.SeqNum(r.U64())
	*s = crypto.ReadShare(r)
}

// WireID implements wire.Message.
func (m *SignShare) WireID() uint16 { return wire.IDSbftSignShare }

// MarshalTo implements wire.Message.
func (m *SignShare) MarshalTo(buf []byte) []byte { return appendShareMsg(buf, m.View, m.Seq, m.Share) }

// Unmarshal implements wire.Message.
func (m *SignShare) Unmarshal(data []byte) error {
	r := wire.NewReader(data)
	readShareMsg(r, &m.View, &m.Seq, &m.Share)
	return r.Close()
}

// WireID implements wire.Message.
func (m *Share2) WireID() uint16 { return wire.IDSbftShare2 }

// MarshalTo implements wire.Message.
func (m *Share2) MarshalTo(buf []byte) []byte { return appendShareMsg(buf, m.View, m.Seq, m.Share) }

// Unmarshal implements wire.Message.
func (m *Share2) Unmarshal(data []byte) error {
	r := wire.NewReader(data)
	readShareMsg(r, &m.View, &m.Seq, &m.Share)
	return r.Close()
}

// WireID implements wire.Message.
func (m *SignState) WireID() uint16 { return wire.IDSbftSignState }

// MarshalTo implements wire.Message.
func (m *SignState) MarshalTo(buf []byte) []byte { return appendShareMsg(buf, m.View, m.Seq, m.Share) }

// Unmarshal implements wire.Message.
func (m *SignState) Unmarshal(data []byte) error {
	r := wire.NewReader(data)
	readShareMsg(r, &m.View, &m.Seq, &m.Share)
	return r.Close()
}

// appendCertMsg/readCertMsg cover the certificate-carrying phases: view,
// seq, digest, certificate.
func appendCertMsg(buf []byte, v types.View, k types.SeqNum, d types.Digest, cert []byte) []byte {
	buf = wire.AppendU64(buf, uint64(v))
	buf = wire.AppendU64(buf, uint64(k))
	buf = types.AppendDigest(buf, d)
	return wire.AppendBytes(buf, cert)
}

func readCertMsg(r *wire.Reader, v *types.View, k *types.SeqNum, d *types.Digest, cert *[]byte) {
	*v = types.View(r.U64())
	*k = types.SeqNum(r.U64())
	*d = types.ReadDigest(r)
	*cert = r.Bytes()
}

// WireID implements wire.Message.
func (m *Prepare2) WireID() uint16 { return wire.IDSbftPrepare2 }

// MarshalTo implements wire.Message.
func (m *Prepare2) MarshalTo(buf []byte) []byte {
	return appendCertMsg(buf, m.View, m.Seq, m.Digest, m.Cert)
}

// Unmarshal implements wire.Message.
func (m *Prepare2) Unmarshal(data []byte) error {
	r := wire.NewReader(data)
	readCertMsg(r, &m.View, &m.Seq, &m.Digest, &m.Cert)
	return r.Close()
}

// WireID implements wire.Message.
func (m *FullCommitProof) WireID() uint16 { return wire.IDSbftFullCommitProof }

// MarshalTo implements wire.Message.
func (m *FullCommitProof) MarshalTo(buf []byte) []byte {
	return appendCertMsg(buf, m.View, m.Seq, m.Digest, m.Cert)
}

// Unmarshal implements wire.Message.
func (m *FullCommitProof) Unmarshal(data []byte) error {
	r := wire.NewReader(data)
	readCertMsg(r, &m.View, &m.Seq, &m.Digest, &m.Cert)
	return r.Close()
}

// WireID implements wire.Message.
func (m *ExecuteAck) WireID() uint16 { return wire.IDSbftExecuteAck }

// MarshalTo implements wire.Message.
func (m *ExecuteAck) MarshalTo(buf []byte) []byte {
	return appendCertMsg(buf, m.View, m.Seq, m.Head, m.Cert)
}

// Unmarshal implements wire.Message.
func (m *ExecuteAck) Unmarshal(data []byte) error {
	r := wire.NewReader(data)
	readCertMsg(r, &m.View, &m.Seq, &m.Head, &m.Cert)
	return r.Close()
}
