package pbft

import (
	"github.com/poexec/poe/internal/network"
)

// PBFT's hook into the parallel authentication pipeline: broadcast
// authenticators, per-request client signatures, and (once the pre-prepare
// has registered the slot digest) prepare/commit shares are verified on
// worker goroutines before dispatch. See the poe package's verify.go for the
// pipeline's ownership and concurrency rules.

// Share-payload kinds in the pipeline's digest table.
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
		p := m
		if !env.Owned {
			cp := *m
			cp.Batch = m.Batch.Clone()
			env.Msg = &cp
			p = &cp
		}
		if !rt.VerifyBroadcast(env.From.Replica(), p.SignedPayload(), p.Auth) {
			return false
		}
		return rt.VerifyBatch(&p.Batch)
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
