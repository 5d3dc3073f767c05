// Package poe implements the Proof-of-Execution consensus protocol, the
// primary contribution of the paper (§II).
//
// Normal case with threshold signatures (Fig 2b, Fig 3):
//
//	client ──〈T〉c──▶ primary ──PROPOSE──▶ all
//	replica ──SUPPORT(share)──▶ primary
//	primary ──CERTIFY(cert)──▶ all
//	replica: view-commit, speculative execute, ──INFORM──▶ client
//
// Normal case with MACs (Fig 2a, Appendix A): the SUPPORT message is
// broadcast all-to-all and each replica assembles the certificate locally;
// there is no CERTIFY phase.
//
// The client treats a transaction as executed once it has identical INFORM
// messages from nf = n − f distinct replicas: its proof-of-execution.
// Execution is speculative — non-divergent because every replica has
// view-committed (prepared) before executing.
//
// View change (Fig 5) runs on the shared protocol.Skeleton. PoE's rules: a
// VC-REQUEST carries the certified batches executed since the stable
// checkpoint, and the new view starts from the longest such prefix among nf
// requests — replicas roll back any speculative suffix it does not contain.
package poe

import (
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/wire"
)

// Propose is the primary's proposal of a batch as the k-th transaction of
// view v: PROPOSE(〈T〉c, v, k).
type Propose struct {
	View  types.View
	Seq   types.SeqNum
	Batch types.Batch
	Auth  [][]byte // broadcast authenticator over SignedPayload
}

// SignedPayload returns the bytes covered by the proposal's authenticator.
func (m *Propose) SignedPayload() []byte {
	bd := m.Batch.Digest()
	d := types.ProposalDigest(m.Seq, m.View, bd)
	return d[:]
}

// SetAuth stores the broadcast authenticator (protocol.SignedProposal).
func (m *Propose) SetAuth(auth [][]byte) { m.Auth = auth }

// Support carries replica i's signature share s〈h〉i over the proposal
// digest h = D(k||v||〈T〉c) back to the primary (TS mode), or broadcast to
// all replicas (MAC mode).
type Support struct {
	View  types.View
	Seq   types.SeqNum
	Share crypto.Share
}

// Certify distributes the aggregated threshold signature 〈h〉 (TS mode
// only). It needs no additional authentication: tampering invalidates the
// certificate (§II-E).
type Certify struct {
	View   types.View
	Seq    types.SeqNum
	Digest types.Digest // h, the certified proposal digest
	Cert   []byte
}

// InView places each normal-case message in its view (protocol.ViewBound).
func (m *Propose) InView() types.View { return m.View }
func (m *Support) InView() types.View { return m.View }
func (m *Certify) InView() types.View { return m.View }

func init() {
	wire.Register(func() wire.Message { return &Propose{} })
	wire.Register(func() wire.Message { return &Support{} })
	wire.Register(func() wire.Message { return &Certify{} })
}
