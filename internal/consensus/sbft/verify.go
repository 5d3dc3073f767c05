package sbft

import "github.com/poexec/poe/internal/network"

// SBFT's hook into the inbound authentication check: broadcast
// authenticators, client signatures, self-certifying certificates, and —
// once the pre-prepare (or execution) has registered the phase payload —
// sign-shares, second-round shares, and state shares are verified on
// transport goroutines before dispatch. See the poe package's verify.go for the
// check's ownership and concurrency rules.

// Share-payload kinds in the Verifier's digest table.
const (
	kindSign   uint8 = 0 // h = D(k||v||D(batch))
	kindShare2 uint8 = 1 // D("sbft-share2" || h)
	kindState  uint8 = 2 // execPayload(seq, ledger head hash)
)

func (r *Replica) verifyInbound(env *network.Envelope) bool {
	rt := r.rt
	if keep, handled := rt.VerifyCommonInbound(env); handled {
		return keep
	}
	switch m := env.Msg.(type) {
	case *PrePrepare:
		// A replica's own messages reach its handlers by direct call, never
		// over the network: an inbound envelope claiming our identity is a
		// spoof, not a loopback.
		if !env.From.IsReplica() || env.From.Replica() == rt.Cfg.ID {
			return false
		}
		if !rt.VerifyBroadcast(env.From.Replica(), m.SignedPayload(), m.Auth) {
			return false
		}
		return rt.VerifyBatch(&m.Batch)
	case *SignShare:
		if !env.From.IsReplica() || m.Share.Signer != env.From.Replica() || m.Share.Signer == rt.Cfg.ID {
			return false
		}
		return rt.Pipeline.VerifyShareFor(rt.TS, kindSign, m.View, m.Seq, m.Share)
	case *Share2:
		if !env.From.IsReplica() || m.Share.Signer != env.From.Replica() || m.Share.Signer == rt.Cfg.ID {
			return false
		}
		return rt.Pipeline.VerifyShareFor(rt.TS, kindShare2, m.View, m.Seq, m.Share)
	case *SignState:
		if !env.From.IsReplica() || m.Share.Signer != env.From.Replica() || m.Share.Signer == rt.Cfg.ID {
			return false
		}
		return rt.Pipeline.VerifyShareFor(rt.TS, kindState, m.View, m.Seq, m.Share)
	case *Prepare2:
		// The certificate authenticates itself; prove it here so the
		// handler's re-check is a memo hit.
		return env.From.IsReplica() && rt.TS.Verify(m.Digest[:], m.Cert)
	case *FullCommitProof:
		return rt.TS.Verify(m.Digest[:], m.Cert)
	}
	return true
}
