package zyzzyva

import "github.com/poexec/poe/internal/network"

// Zyzzyva's hook into the inbound authentication check: order-request
// authenticators, per-request client signatures, and the share bundles of
// client commit certificates are verified on transport goroutines before
// dispatch. See the poe package's verify.go for the check's ownership and
// concurrency rules.

func (r *Replica) verifyInbound(env *network.Envelope) bool {
	rt := r.rt
	if keep, handled := rt.VerifyCommonInbound(env); handled {
		return keep
	}
	switch m := env.Msg.(type) {
	case *OrderReq:
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
	case *CommitReq:
		if !env.From.IsClient() {
			return false
		}
		// The commit certificate's shares sign specPayload(seq, history) —
		// both taken from the message itself — so the whole certificate is
		// verifiable here, and the handler trusts delivery.
		return certified(rt, m)
	}
	return true
}
