package poe

import (
	"bytes"
	"testing"
	"time"

	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/types"
)

// clientSigVerifies sums the replicas' client-signature checks.
func (c *cluster) clientSigVerifies() (n int64) {
	for _, r := range c.replicas {
		n += r.Runtime().Metrics.ClientSigVerifies.Load()
	}
	return n
}

// submitRaw sends one hand-built request to the primary as client id and
// waits for nf matching INFORMs.
func (c *cluster) submitRaw(id types.ClientID, req types.Request) {
	c.t.Helper()
	tr := c.net.Join(types.ClientNode(id))
	defer tr.Close()
	tr.Send(types.ReplicaNode(0), &protocol.ClientRequest{Req: req})
	informs := map[types.ReplicaID]bool{}
	for deadline := time.After(5 * time.Second); len(informs) < c.cfgs[0].NF(); {
		select {
		case env := <-tr.Inbox():
			if m, ok := env.Msg.(*protocol.Inform); ok && m.Digest == req.Digest() {
				informs[m.From] = true
			}
		case <-deadline:
			c.t.Fatalf("request answered by %d replicas, want %d", len(informs), c.cfgs[0].NF())
		}
	}
}

// TestClientAuthGarbageTagCostsOnlyTheFallback: an honest primary only
// proposes signature-valid requests, so whatever a client puts in Auth no
// honest backup rejects the PROPOSE — garbage tags cost each backup the
// signature check they would have saved, nothing more: every replica
// executes, no view change starts, and the cluster spends exactly n Ed25519
// checks on the request. With honest tags it spends one.
func TestClientAuthGarbageTagCostsOnlyTheFallback(t *testing.T) {
	const n = 4
	c := startCluster(t, n, 1, crypto.SchemeMAC, nil)
	id := types.ClientID(types.ClientIDBase)
	keys := c.ring.NodeKeys(types.ClientNode(id))
	sign := func(seq uint64) types.Request {
		return protocol.SignRequest(keys, crypto.SchemeMAC, n, types.Transaction{
			Client: id, Seq: seq, Ops: writeOp("k", "v"),
		})
	}

	honest := sign(1)
	c.submitRaw(id, honest)
	c.awaitConvergence(1, nil, 5*time.Second)
	if got := c.clientSigVerifies(); got != 1 {
		t.Fatalf("honest tags: %d client signature checks cluster-wide, want 1 (the proposer's)", got)
	}

	garbage := sign(2)
	garbage.Auth = bytes.Repeat([]byte{0x5a}, len(garbage.Auth))
	c.submitRaw(id, garbage)
	c.awaitConvergence(2, nil, 5*time.Second)
	if got := c.clientSigVerifies() - 1; got != n {
		t.Fatalf("garbage tags: %d client signature checks cluster-wide, want %d", got, n)
	}

	torn := sign(3)
	torn.Auth = torn.Auth[:crypto.RequestTagSize+3] // replica 0's tag and a stump
	c.submitRaw(id, torn)
	c.awaitConvergence(3, nil, 5*time.Second)
	if got := c.clientSigVerifies() - 1 - n; got != n {
		t.Fatalf("torn tags: %d client signature checks cluster-wide, want %d", got, n)
	}

	for i, r := range c.replicas {
		if vc := r.Runtime().Metrics.ViewChanges.Load(); vc != 0 {
			t.Fatalf("replica %d started %d view changes", i, vc)
		}
	}
}

// TestClientAuthSchemeEDKeepsFourChecks: under the ed scheme replicas do not
// authenticate by MAC, so tags — even valid ones — are ignored and every
// replica checks the signature, as before.
func TestClientAuthSchemeEDKeepsFourChecks(t *testing.T) {
	const n = 4
	c := startCluster(t, n, 1, crypto.SchemeED, nil)
	id := types.ClientID(types.ClientIDBase)
	req := protocol.SignRequest(c.ring.NodeKeys(types.ClientNode(id)), crypto.SchemeMAC, n, types.Transaction{
		Client: id, Seq: 1, Ops: writeOp("k", "v"),
	})
	c.submitRaw(id, req)
	c.awaitConvergence(1, nil, 5*time.Second)
	if got := c.clientSigVerifies(); got != n {
		t.Fatalf("%d client signature checks cluster-wide under ed, want %d", got, n)
	}
}
