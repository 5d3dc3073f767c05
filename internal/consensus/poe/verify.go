package poe

import "github.com/poexec/poe/internal/network"

// This file is PoE's hook into the inbound authentication check
// (protocol.Verifier): every inbound message's asymmetric crypto is checked
// here, on the transport goroutine that reads it, before it reaches the
// replica's inbox and event loop. Handlers in replica.go therefore never verify broadcast
// authenticators or client signatures themselves — delivery implies they
// were valid — and share/certificate checks they do issue resolve through
// the crypto layer's memo, warmed here.
//
// verifyInbound must not touch replica state (it runs concurrently with the
// event loop); it reads only the immutable runtime pieces and the Verifier's
// digest table.

// kindSupport keys the SUPPORT-phase share payload h = D(k||v||D(batch)) in
// the Verifier's digest table.
const kindSupport uint8 = 0

func (r *Replica) verifyInbound(env *network.Envelope) bool {
	rt := r.rt
	if keep, handled := rt.VerifyCommonInbound(env); handled {
		return keep
	}
	switch m := env.Msg.(type) {
	case *Propose:
		// A replica's own messages reach its handlers by direct call, never
		// over the network: an inbound envelope claiming our identity is a
		// spoof, not a loopback.
		if !env.From.IsReplica() || env.From.Replica() == rt.Cfg.ID {
			return false
		}
		p := m
		if !env.Owned {
			// In-process transports share the sender's pointer; clone before
			// digest memoization. Wire-decoded envelopes are already owned.
			cp := *m
			cp.Batch = m.Batch.Clone()
			env.Msg = &cp
			p = &cp
		}
		if !rt.VerifyBroadcast(env.From.Replica(), p.SignedPayload(), p.Auth) {
			return false
		}
		return rt.VerifyBatch(&p.Batch)
	case *Support:
		if !env.From.IsReplica() || m.Share.Signer != env.From.Replica() || m.Share.Signer == rt.Cfg.ID {
			return false
		}
		// If the slot digest is already registered the share is proven (or
		// dropped) here; otherwise it passes through and the event loop
		// verifies it at insertion via the share memo.
		return rt.Pipeline.VerifyShareFor(rt.TS, kindSupport, m.View, m.Seq, m.Share)
	case *Certify:
		// Certificates authenticate themselves (§II-E): prove it here so the
		// handler's re-check is a memo hit.
		return env.From.IsReplica() && rt.TS.Verify(m.Digest[:], m.Cert)
	}
	return true
}
