package hotstuff

import (
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/wire"
)

// Hand-written wire codecs for HotStuff's messages (ids in wire/ids.go).

func appendQC(buf []byte, qc *QC) []byte {
	buf = wire.AppendU64(buf, uint64(qc.Round))
	buf = types.AppendDigest(buf, qc.Node)
	return wire.AppendBytes(buf, qc.Cert)
}

func readQC(r *wire.Reader, qc *QC) {
	qc.Round = types.View(r.U64())
	qc.Node = types.ReadDigest(r)
	qc.Cert = r.Bytes()
}

// appendNode and readNode encode a node. proposed selects the batch's
// proposal form, which carries the requests' client MAC tags for the replicas
// about to vote; a NodeBundle's ancestors are already certified and travel in
// the record form, like every other state transfer.
func appendNode(buf []byte, n *Node, proposed bool) []byte {
	buf = wire.AppendU64(buf, uint64(n.Round))
	buf = types.AppendDigest(buf, n.ParentHash)
	if proposed {
		buf = n.Batch.AppendProposal(buf)
	} else {
		buf = n.Batch.AppendWire(buf)
	}
	return appendQC(buf, &n.Justify)
}

func readNode(r *wire.Reader, n *Node, proposed bool) {
	n.Round = types.View(r.U64())
	n.ParentHash = types.ReadDigest(r)
	if proposed {
		n.Batch.ReadProposal(r)
	} else {
		n.Batch.ReadWire(r)
	}
	readQC(r, &n.Justify)
}

// WireID implements wire.Message.
func (m *Proposal) WireID() uint16 { return wire.IDHsProposal }

// MarshalTo implements wire.Message.
func (m *Proposal) MarshalTo(buf []byte) []byte {
	buf = appendNode(buf, &m.Node, true)
	return wire.AppendBytesSlice(buf, m.Auth)
}

// Unmarshal implements wire.Message.
func (m *Proposal) Unmarshal(data []byte) error {
	r := wire.NewReader(data)
	readNode(r, &m.Node, true)
	m.Auth = r.BytesSlice()
	return r.Close()
}

// WireID implements wire.Message.
func (m *Vote) WireID() uint16 { return wire.IDHsVote }

// MarshalTo implements wire.Message.
func (m *Vote) MarshalTo(buf []byte) []byte {
	buf = wire.AppendU64(buf, uint64(m.Round))
	buf = types.AppendDigest(buf, m.Node)
	return crypto.AppendShare(buf, m.Share)
}

// Unmarshal implements wire.Message.
func (m *Vote) Unmarshal(data []byte) error {
	r := wire.NewReader(data)
	m.Round = types.View(r.U64())
	m.Node = types.ReadDigest(r)
	m.Share = crypto.ReadShare(r)
	return r.Close()
}

// WireID implements wire.Message.
func (m *NewView) WireID() uint16 { return wire.IDHsNewView }

// MarshalTo implements wire.Message.
func (m *NewView) MarshalTo(buf []byte) []byte {
	buf = wire.AppendI32(buf, int32(m.From))
	buf = wire.AppendU64(buf, uint64(m.Round))
	return appendQC(buf, &m.High)
}

// Unmarshal implements wire.Message.
func (m *NewView) Unmarshal(data []byte) error {
	r := wire.NewReader(data)
	m.From = types.ReplicaID(r.I32())
	m.Round = types.View(r.U64())
	readQC(r, &m.High)
	return r.Close()
}

// WireID implements wire.Message.
func (m *FetchNodes) WireID() uint16 { return wire.IDHsFetchNodes }

// MarshalTo implements wire.Message.
func (m *FetchNodes) MarshalTo(buf []byte) []byte {
	buf = wire.AppendI32(buf, int32(m.From))
	buf = types.AppendDigest(buf, m.Hash)
	return wire.AppendI64(buf, int64(m.Max))
}

// Unmarshal implements wire.Message.
func (m *FetchNodes) Unmarshal(data []byte) error {
	r := wire.NewReader(data)
	m.From = types.ReplicaID(r.I32())
	m.Hash = types.ReadDigest(r)
	m.Max = int(r.I64())
	return r.Close()
}

// WireID implements wire.Message.
func (m *NodeBundle) WireID() uint16 { return wire.IDHsNodeBundle }

// MarshalTo implements wire.Message.
func (m *NodeBundle) MarshalTo(buf []byte) []byte {
	buf = wire.AppendU32(buf, uint32(len(m.Nodes)))
	for i := range m.Nodes {
		buf = appendNode(buf, &m.Nodes[i], false)
	}
	return buf
}

// Unmarshal implements wire.Message.
func (m *NodeBundle) Unmarshal(data []byte) error {
	r := wire.NewReader(data)
	n := r.Count(8 + 32 + 9 + 8 + 32 + 4)
	if n > 0 {
		m.Nodes = make([]Node, n)
		for i := range m.Nodes {
			readNode(r, &m.Nodes[i], false)
		}
	} else {
		m.Nodes = nil
	}
	return r.Close()
}
