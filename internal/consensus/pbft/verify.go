package pbft

import (
	"github.com/poexec/poe/internal/network"
)

// PBFT's hook into the inbound authentication check: broadcast
// authenticators, per-request client signatures, and (once the pre-prepare
// has registered the slot digest) prepare/commit shares are verified on
// transport goroutines before dispatch. See the poe package's verify.go for
// the check's ownership and concurrency rules.

// Share-payload kinds in the Verifier's digest table.
const (
	kindPrepare uint8 = 0 // h = D(k||v||D(batch))
	kindCommit  uint8 = 1 // D("pbft-commit" || h)
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
	case *Prepare:
		if !env.From.IsReplica() || m.Share.Signer != env.From.Replica() || m.Share.Signer == rt.Cfg.ID {
			return false
		}
		return rt.Pipeline.VerifyShareFor(rt.TS, kindPrepare, m.View, m.Seq, m.Share)
	case *Commit:
		if !env.From.IsReplica() || m.Share.Signer != env.From.Replica() || m.Share.Signer == rt.Cfg.ID {
			return false
		}
		return rt.Pipeline.VerifyShareFor(rt.TS, kindCommit, m.View, m.Seq, m.Share)
	}
	return true
}
