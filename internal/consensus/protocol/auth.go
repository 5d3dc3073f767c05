package protocol

import (
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/types"
)

// Broadcast authenticators. Following the paper's ingredient I4 and §II-E,
// most protocol messages only need MACs: a broadcast message carries a MAC
// vector with one tag per receiving replica (the classic PBFT authenticator),
// while under SchemeED it carries a single signature. Under SchemeNone the
// vector is empty and verification always succeeds.
//
// CERTIFY-style messages that carry a threshold certificate need no extra
// authentication — tampering invalidates the certificate — so protocols skip
// these helpers for them.
//
// Client requests follow the same ingredient (DESIGN.md §3.2): the signature
// is the transferable proof, needed by whoever may *propose* the request —
// it must stay forwardable and re-proposable across a view change — while a
// replica that only *supports* a proposal carrying it has nobody else to
// convince and checks the client's MAC tag for it instead. SignRequest is
// the client half, VerifyRequestForSelf the replica half.

// SignRequest produces the signed request 〈T〉c for a transaction: the one
// signing helper every client uses. Alongside the signature it fills the
// per-replica MAC authenticator whenever replicas authenticate by MAC — the
// same switch as AuthBroadcast.
func SignRequest(keys *crypto.NodeKeys, scheme crypto.Scheme, n int, txn types.Transaction) types.Request {
	req := types.Request{Txn: txn}
	if scheme == crypto.SchemeNone {
		return req
	}
	d := req.Digest()
	req.Sig = keys.Sign(d[:])
	if scheme != crypto.SchemeED { // SchemeMAC, SchemeTS
		req.Auth = keys.RequestAuth(n, d[:])
	}
	return req
}

// VerifyRequestForSelf checks a request that only this replica must be
// convinced of — one inside another replica's proposal, or a read it serves
// from its own state: this replica's tag in req.Auth if valid, otherwise the
// signature (VerifyClientRequest: memo hit, else Ed25519, memoised). It
// accepts exactly what "memo, else tag, else signature" accepts; the tag goes
// first because it is the common case and takes no lock.
//
// Whatever a faulty client puts in Auth, an honest primary's proposal is
// never rejected: the primary only batches signature-valid requests, so the
// fallback succeeds, at worst at the old price. A tag acceptance writes no
// memo entry — the memo means "signature verified", and it is what lets this
// replica propose the request once it leads; anything entering the batcher
// still goes through VerifyClientRequest. The caller must own the request.
func (rt *Runtime) VerifyRequestForSelf(req *types.Request) bool {
	return rt.checkRequestTag(req) || rt.VerifyClientRequest(req)
}

// checkRequestTag reports whether req carries this replica's valid MAC tag
// from its client; only the MAC-authenticated schemes fill one.
func (rt *Runtime) checkRequestTag(req *types.Request) bool {
	switch rt.Cfg.Scheme {
	case crypto.SchemeMAC, crypto.SchemeTS:
		d := req.Digest()
		return rt.Keys.CheckRequestAuth(types.ClientNode(req.Txn.Client), d[:], req.Auth)
	}
	return false
}

// AuthBroadcast produces the authenticator vector for a broadcast of payload
// by this replica.
func (rt *Runtime) AuthBroadcast(payload []byte) [][]byte {
	switch rt.Cfg.Scheme {
	case crypto.SchemeNone:
		return nil
	case crypto.SchemeED:
		return [][]byte{rt.Keys.Sign(payload)}
	default: // SchemeMAC, SchemeTS: MAC vector, one tag per replica
		vec := make([][]byte, rt.Cfg.N)
		for i := 0; i < rt.Cfg.N; i++ {
			if types.ReplicaID(i) == rt.Cfg.ID {
				continue
			}
			vec[i] = rt.Keys.MAC(types.ReplicaNode(types.ReplicaID(i)), payload)
		}
		return vec
	}
}

// VerifyBroadcast checks the slice of authenticators on a broadcast received
// from replica from.
func (rt *Runtime) VerifyBroadcast(from types.ReplicaID, payload []byte, vec [][]byte) bool {
	if from == rt.Cfg.ID {
		return true
	}
	switch rt.Cfg.Scheme {
	case crypto.SchemeNone:
		return true
	case crypto.SchemeED:
		return len(vec) == 1 && rt.Keys.VerifyFrom(types.ReplicaNode(from), payload, vec[0])
	default:
		i := int(rt.Cfg.ID)
		return i < len(vec) && rt.Keys.CheckMAC(types.ReplicaNode(from), payload, vec[i])
	}
}
