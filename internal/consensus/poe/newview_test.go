package poe

import (
	"context"
	"testing"
	"time"

	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/types"
)

// TestNewViewSupportBeforeNVPropose: replicas enter a new view within
// milliseconds of each other, so a SUPPORT of the new view can reach a
// replica that is still changing into it. That share must count. With the
// old primary down it is one of exactly nf, and dropping it wedges the slot.
//
// Replica 2 runs its real event loop. The test plays replicas 1 (view 1's
// primary) and 3; replica 0, the crashed primary of view 0, is absent.
func TestNewViewSupportBeforeNVPropose(t *testing.T) {
	const n = 4
	net := network.NewChanNet()
	defer net.Close()
	ring := crypto.NewKeyRing(n, []byte("new-view-support"))
	cfg := protocol.Config{ID: 2, N: n, F: 1, Scheme: crypto.SchemeMAC, ViewTimeout: 300 * time.Millisecond}
	r, err := New(cfg, ring, net.Join(types.ReplicaNode(2)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	peer := map[types.ReplicaID]network.Transport{
		1: net.Join(types.ReplicaNode(1)),
		3: net.Join(types.ReplicaNode(3)),
	}
	send := func(from types.ReplicaID, m any) { peer[from].Send(types.ReplicaNode(2), m) }
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { r.Run(ctx); close(done) }()
	defer func() { cancel(); <-done }()

	vc := func(from types.ReplicaID) *protocol.VCRequest {
		m := &protocol.VCRequest{From: from, View: 0}
		m.Sig = ring.NodeKeys(types.ReplicaNode(from)).Sign(m.SignedPayload())
		return m
	}
	// Replicas 1 and 3 ask for view 1: f+1 requests, so replica 2 joins once
	// the lease it granted view 0's primary has run out. Resend until its own
	// request shows it changing views.
	deadline := time.After(5 * time.Second)
	for joined := false; !joined; {
		send(1, vc(1))
		send(3, vc(3))
		retry := time.After(20 * time.Millisecond)
		for waiting := true; waiting && !joined; {
			select {
			case env := <-peer[1].Inbox():
				m, ok := env.Msg.(*protocol.VCRequest)
				joined = ok && m.From == 2
			case <-retry:
				waiting = false
			case <-deadline:
				t.Fatal("replica 2 never joined the view change")
			}
		}
	}

	// Replica 3's SUPPORT for view 1's first slot overtakes the NV-PROPOSE.
	batch := types.Batch{}
	digest := types.ProposalDigest(1, 1, batch.Digest())
	share := func(id types.ReplicaID) crypto.Share {
		return crypto.NewThresholdScheme(ring, id, cfg.NF(), false).Share(digest[:])
	}
	in := r.rt.Metrics.MessagesIn.Load()
	send(3, &Support{View: 1, Seq: 1, Share: share(3)})
	for r.rt.Metrics.MessagesIn.Load() == in {
		select {
		case <-deadline:
			t.Fatal("the early SUPPORT never reached the event loop")
		case <-time.After(time.Millisecond):
		}
	}

	// View 1's primary installs the view, proposes slot 1 and supports it.
	// With replica 3's share that makes nf: replica 2 must execute slot 1.
	send(1, &protocol.NVPropose{NewView: 1, Requests: []protocol.VCRequest{*vc(1), *vc(2), *vc(3)}})
	primary := protocol.NewRuntime(protocol.Config{ID: 1, N: n, F: 1, Scheme: crypto.SchemeMAC}, ring, peer[1], protocol.RuntimeOptions{})
	prop := &Propose{View: 1, Seq: 1, Batch: batch}
	prop.Auth = primary.AuthBroadcast(prop.SignedPayload())
	send(1, prop)
	send(1, &Support{View: 1, Seq: 1, Share: share(1)})
	for r.rt.Exec.LastExecuted() < 1 {
		select {
		case <-deadline:
			t.Fatal("slot 1 of view 1 never executed: the early SUPPORT was lost")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if v := r.View(); v != 1 {
		t.Fatalf("replica 2 in view %d, want 1", v)
	}
}
