package hotstuff

import (
	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/network"
)

// HotStuff's hook into the inbound authentication check: proposal
// authenticators, per-request client signatures, vote shares (which sign the
// node hash carried in the vote itself), and quorum certificates are
// verified on transport goroutines before dispatch. See the poe package's
// verify.go for the check's ownership and concurrency rules.

func (r *Replica) verifyInbound(env *network.Envelope) bool {
	rt := r.rt
	if keep, handled := rt.VerifyCommonInbound(env); handled {
		if rr, ok := env.Msg.(*protocol.ReadRequest); ok && keep {
			// HotStuff serves no read locally: every tiered read enters the
			// batcher, and what this replica may propose needs the client's
			// signature, not just the tag the common check settles for.
			return rt.VerifyClientRequest(&rr.Req)
		}
		return keep
	}
	switch m := env.Msg.(type) {
	case *Proposal:
		// A replica's own messages reach its handlers by direct call, never
		// over the network: an inbound envelope claiming our identity is a
		// spoof, not a loopback.
		if !env.From.IsReplica() || env.From.Replica() == rt.Cfg.ID {
			return false
		}
		p := m
		if !env.Owned {
			cp := *m
			cp.Node.Batch = m.Node.Batch.Clone()
			env.Msg = &cp
			p = &cp
		}
		if !rt.VerifyBroadcast(env.From.Replica(), p.SignedPayload(), p.Auth) {
			return false
		}
		if !rt.VerifyBatch(&p.Node.Batch) {
			return false
		}
		// Prove the justifying QC here; the handler's verifyQC re-check is a
		// certificate-memo hit.
		return r.verifyQC(p.Node.Justify)
	case *Vote:
		if !env.From.IsReplica() || m.Share.Signer != env.From.Replica() || m.Share.Signer == rt.Cfg.ID {
			return false
		}
		// Vote shares sign the node hash the vote itself carries, so they
		// are verifiable without any replica state.
		return rt.TS.VerifyShare(m.Node[:], m.Share)
	case *NewView:
		if !env.From.IsReplica() || m.From != env.From.Replica() || m.From == rt.Cfg.ID {
			return false
		}
		return r.verifyQC(m.High)
	case *NodeBundle:
		b := m
		if !env.Owned {
			cp := *m
			cp.Nodes = append([]Node(nil), m.Nodes...)
			for i := range cp.Nodes {
				cp.Nodes[i].Batch = cp.Nodes[i].Batch.Clone()
			}
			env.Msg = &cp
			b = &cp
		}
		for i := range b.Nodes {
			b.Nodes[i].Batch.MemoizeDigests()
			// Warm the certificate memo; the handler skips nodes whose QC
			// fails, so an invalid entry doesn't condemn the bundle.
			r.verifyQC(b.Nodes[i].Justify)
		}
		return true
	}
	return true
}
