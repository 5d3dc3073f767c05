package protocol

import (
	"bytes"
	"testing"

	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/types"
)

// The client-request authentication rule, driven on bare runtimes: what a
// replica accepts on the client's MAC tag, what it insists on the signature
// for, and what each acceptance leaves behind.

const authN = 4

func authRuntime(id types.ReplicaID, scheme crypto.Scheme) *Runtime {
	ring := crypto.NewKeyRing(authN, []byte("client-auth"))
	return NewRuntime(Config{ID: id, N: authN, F: 1, Scheme: scheme}, ring, fakeNet{}, RuntimeOptions{})
}

func authRequest(rt *Runtime, seq uint64) types.Request {
	c := types.ClientIDBase + 7
	return SignRequest(rt.Ring.NodeKeys(types.ClientNode(c)), crypto.SchemeMAC, authN, types.Transaction{
		Client: c, Seq: seq,
		Ops: []types.Op{{Kind: types.OpWrite, Key: "k", Value: []byte{byte(seq)}}},
	})
}

// onlyTagFor returns auth with every tag but replica id's zeroed.
func onlyTagFor(auth []byte, id types.ReplicaID) []byte {
	out := make([]byte, len(auth))
	off := int(id) * crypto.RequestTagSize
	copy(out[off:], auth[off:off+crypto.RequestTagSize])
	return out
}

func badSig() []byte { return bytes.Repeat([]byte{0xee}, 64) }

func TestClientAuthBackupAcceptsOnTag(t *testing.T) {
	rt := authRuntime(2, crypto.SchemeMAC)
	req := authRequest(rt, 1)
	if len(req.Auth) != authN*crypto.RequestTagSize || len(req.Sig) == 0 {
		t.Fatalf("SignRequest: %d auth bytes, %d sig bytes", len(req.Auth), len(req.Sig))
	}
	batch := types.Batch{Requests: []types.Request{req}}
	if !rt.VerifyBatch(&batch) {
		t.Fatal("backup rejected a request carrying its valid tag")
	}
	if n := rt.Metrics.ClientSigVerifies.Load(); n != 0 {
		t.Fatalf("tag acceptance cost %d signature checks", n)
	}
	// The tag left no memo entry: the signature is still checked — once —
	// when the request heads for this replica's own batcher.
	if !rt.VerifyClientRequest(&req) || !rt.VerifyClientRequest(&req) {
		t.Fatal("valid signature rejected")
	}
	if n := rt.Metrics.ClientSigVerifies.Load(); n != 1 {
		t.Fatalf("%d signature checks, want 1 (first a miss, second a memo hit)", n)
	}
}

func TestClientAuthTagConvincesOnlyItsReplica(t *testing.T) {
	rt1, rt2 := authRuntime(1, crypto.SchemeMAC), authRuntime(2, crypto.SchemeMAC)
	req := authRequest(rt1, 1)
	req.Auth = onlyTagFor(req.Auth, 1)

	forged := req
	forged.Sig = badSig()
	if !rt1.VerifyRequestForSelf(&forged) {
		t.Fatal("replica 1 rejected its own valid tag")
	}
	if rt2.VerifyRequestForSelf(&forged) {
		t.Fatal("replica 2 accepted a request on replica 1's tag")
	}
	// With a valid signature replica 2 falls back to it.
	if !rt2.VerifyRequestForSelf(&req) {
		t.Fatal("replica 2 rejected a validly signed request over a foreign tag")
	}
	if n := rt2.Metrics.ClientSigVerifies.Load(); n != 2 {
		t.Fatalf("replica 2 ran %d signature checks, want 2", n)
	}
}

// TestClientAuthMemoNotPoisoned: a request accepted on its tag never looks
// signature-verified afterwards, so the replica that supported it cannot be
// made to propose it.
func TestClientAuthMemoNotPoisoned(t *testing.T) {
	rt := authRuntime(1, crypto.SchemeMAC)
	req := authRequest(rt, 1)
	req.Sig = badSig()
	batch := types.Batch{Requests: []types.Request{req}}
	if !rt.VerifyBatch(&batch) {
		t.Fatal("valid tag rejected")
	}
	if len(rt.reqSeen) != 0 {
		t.Fatal("tag acceptance wrote a verified-signature memo entry")
	}
	if rt.VerifyClientRequest(&req) {
		t.Fatal("invalid signature accepted after a tag acceptance")
	}
	// The batcher's doors: a client (or forwarding replica) pushing it in
	// directly, and a tiered read falling back to ordering at the primary.
	env := network.Envelope{From: types.ClientNode(req.Txn.Client), Msg: &ClientRequest{Req: req}}
	if keep, _ := rt.VerifyCommonInbound(&env); keep {
		t.Fatal("ClientRequest with an invalid signature passed on its tag")
	}
	env = network.Envelope{From: types.ReplicaNode(2), Msg: &ForwardRequest{Req: req}}
	if keep, _ := rt.VerifyCommonInbound(&env); keep {
		t.Fatal("ForwardRequest with an invalid signature passed on its tag")
	}
}

func TestClientAuthFallbackReadNeedsSignature(t *testing.T) {
	rt := authRuntime(0, crypto.SchemeMAC) // primary of view 0
	rules := &stubRules{}
	sk := NewSkeleton(rt, rules)
	rules.sk = sk
	c := types.ClientIDBase + 7
	read := func(sig bool) types.Request {
		req := SignRequest(rt.Ring.NodeKeys(types.ClientNode(c)), crypto.SchemeMAC, authN, types.Transaction{
			Client: c, Seq: 1, Consistency: types.ConsistencyStrong,
			Ops: []types.Op{{Kind: types.OpRead, Key: "k"}},
		})
		if !sig {
			req.Sig = badSig()
		}
		return req
	}
	forged := read(false)
	env := network.Envelope{From: types.ClientNode(c), Msg: &ReadRequest{Req: forged}}
	if keep, _ := rt.VerifyCommonInbound(&env); !keep {
		t.Fatal("a read carrying the serving replica's valid tag was dropped")
	}
	sk.FallbackRead(&env.Msg.(*ReadRequest).Req)
	if rt.Batcher.Pending() != 0 {
		t.Fatal("a read accepted on its tag alone entered the batcher")
	}
	good := read(true)
	sk.FallbackRead(&good)
	if rt.Batcher.Pending() != 1 {
		t.Fatal("a validly signed fallback read was not batched")
	}
}

// TestClientAuthMalformedFallsBack: whatever is in Auth — nothing, a torn
// tag, a vector built for fewer replicas, garbage of the right length — the
// check neither panics nor rejects a validly signed request.
func TestClientAuthMalformedFallsBack(t *testing.T) {
	rt := authRuntime(3, crypto.SchemeMAC)
	const tag, off = crypto.RequestTagSize, 3 * crypto.RequestTagSize
	mangle := []func(good []byte) []byte{
		func([]byte) []byte { return nil },
		func([]byte) []byte { return []byte{} },
		func([]byte) []byte { return []byte{1} },
		func(good []byte) []byte { return good[:tag-1] },
		func(good []byte) []byte { return good[:tag] },
		func(good []byte) []byte { return good[:off] },
		func(good []byte) []byte { return good[:off+1] },
		func(good []byte) []byte { return good[:len(good)-1] },
		func(good []byte) []byte { return bytes.Repeat([]byte{0xab}, len(good)) },
		func(good []byte) []byte { return append(append([]byte(nil), good...), 9, 9, 9) },
	}
	for i, m := range mangle {
		req := authRequest(rt, uint64(i+1))
		good := req.Auth
		auth := m(good)
		req.Auth = auth
		before := rt.Metrics.ClientSigVerifies.Load()
		if !rt.VerifyRequestForSelf(&req) {
			t.Fatalf("auth %d (%d bytes): validly signed request rejected", i, len(auth))
		}
		wantSig := int64(1)
		if len(auth) > len(good) { // the replica's own tag is intact under the trailing junk
			wantSig = 0
		}
		if got := rt.Metrics.ClientSigVerifies.Load() - before; got != wantSig {
			t.Fatalf("auth %d (%d bytes): %d signature checks, want %d", i, len(auth), got, wantSig)
		}
		req.Sig = badSig()
		req.Txn.Seq += 100 // a different digest: no memo entry from above
		req = types.Request{Txn: req.Txn, Sig: req.Sig, Auth: auth}
		if rt.VerifyRequestForSelf(&req) {
			t.Fatalf("auth %d (%d bytes): accepted with neither a valid tag nor a valid signature", i, len(auth))
		}
	}
}

// TestClientAuthSchemes: tags count only where replicas authenticate by MAC.
func TestClientAuthSchemes(t *testing.T) {
	for _, tc := range []struct {
		scheme    crypto.Scheme
		tagAlone  bool // valid tag, invalid signature
		sigChecks int64
	}{
		{crypto.SchemeMAC, true, 0},
		{crypto.SchemeTS, true, 0},
		{crypto.SchemeED, false, 1},
		{crypto.SchemeNone, true, 0},
	} {
		rt := authRuntime(1, tc.scheme)
		req := authRequest(rt, 1)
		req.Sig = badSig()
		if got := rt.VerifyRequestForSelf(&req); got != tc.tagAlone {
			t.Errorf("%v: valid tag with invalid signature accepted = %v, want %v", tc.scheme, got, tc.tagAlone)
		}
		if got := rt.Metrics.ClientSigVerifies.Load(); got != tc.sigChecks {
			t.Errorf("%v: %d signature checks, want %d", tc.scheme, got, tc.sigChecks)
		}
	}
	c := types.ClientIDBase + 7
	keys := crypto.NewKeyRing(authN, nil).NodeKeys(types.ClientNode(c))
	for scheme, want := range map[crypto.Scheme][2]bool{
		crypto.SchemeNone: {false, false}, crypto.SchemeED: {true, false},
		crypto.SchemeMAC: {true, true}, crypto.SchemeTS: {true, true},
	} {
		req := SignRequest(keys, scheme, authN, types.Transaction{Client: c, Seq: 1})
		if got := [2]bool{len(req.Sig) > 0, len(req.Auth) > 0}; got != want {
			t.Errorf("SignRequest under %v: (sig, auth) = %v, want %v", scheme, got, want)
		}
	}
}

func TestClientAuthForwardOnlyFromReplicas(t *testing.T) {
	rt := authRuntime(0, crypto.SchemeMAC)
	req := authRequest(rt, 1)
	// A client naming another client's validly signed request: as a
	// ClientRequest the origin check drops it, and a ForwardRequest must not
	// be the way around that check.
	intruder := types.ClientNode(types.ClientIDBase + 99)
	for _, msg := range []any{&ClientRequest{Req: req}, &ForwardRequest{Req: req}} {
		env := network.Envelope{From: intruder, Msg: msg}
		if keep, handled := rt.VerifyCommonInbound(&env); keep || !handled {
			t.Fatalf("%T from a client that does not own the request was kept", msg)
		}
	}
	env := network.Envelope{From: types.ReplicaNode(2), Msg: &ForwardRequest{Req: req}}
	if keep, _ := rt.VerifyCommonInbound(&env); !keep {
		t.Fatal("ForwardRequest from a replica dropped")
	}
}
