package client

import (
	"context"
	"testing"
	"time"

	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/types"
)

// fakeReplica answers every client request with identical informs from a
// configurable set of replicas.
type fakeReplica struct {
	id   types.ReplicaID
	ring *crypto.KeyRing
	tr   network.Transport
}

func (f *fakeReplica) run(ctx context.Context, respond bool) {
	keys := f.ring.NodeKeys(types.ReplicaNode(f.id))
	for {
		select {
		case <-ctx.Done():
			return
		case env, ok := <-f.tr.Inbox():
			if !ok {
				return
			}
			cr, isReq := env.Msg.(*protocol.ClientRequest)
			if !isReq || !respond {
				continue
			}
			txn := &cr.Req.Txn
			msg := &protocol.Inform{
				From: f.id, Digest: cr.Req.Digest(),
				Seq: 1, ClientSeq: txn.Seq,
				Values: [][]byte{[]byte("result")},
			}
			key := msg.Key()
			msg.Tag = keys.MAC(types.ClientNode(txn.Client), key.Digest[:])
			f.tr.Send(types.ClientNode(txn.Client), msg)
		}
	}
}

func setup(t *testing.T, responders int) (*Client, *network.ChanNet, context.CancelFunc) {
	t.Helper()
	return setupAnswering(t, func(id types.ReplicaID) bool { return int(id) < responders })
}

// setupAnswering builds a client over four fake replicas of which those
// answers selects reply to every request.
func setupAnswering(t *testing.T, answers func(types.ReplicaID) bool) (*Client, *network.ChanNet, context.CancelFunc) {
	t.Helper()
	const n, f = 4, 1
	net := network.NewChanNet()
	ring := crypto.NewKeyRing(n, []byte("client-test"))
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < n; i++ {
		fr := &fakeReplica{id: types.ReplicaID(i), ring: ring, tr: net.Join(types.ReplicaNode(types.ReplicaID(i)))}
		go fr.run(ctx, answers(types.ReplicaID(i)))
	}
	id := types.ClientID(types.ClientIDBase)
	cl, err := New(Config{
		ID: id, N: n, F: f, Scheme: crypto.SchemeMAC,
		Rule: Quorum(3), Timeout: 100 * time.Millisecond,
	}, ring, net.Join(types.ClientNode(id)))
	if err != nil {
		t.Fatal(err)
	}
	cl.Start(ctx)
	t.Cleanup(func() {
		cancel()
		net.Close()
	})
	return cl, net, cancel
}

func TestQuorumCompletion(t *testing.T) {
	cl, _, _ := setup(t, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := cl.Submit(ctx, []types.Op{{Kind: types.OpRead, Key: "k"}})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Values[0]) != "result" {
		t.Fatalf("values %v", res.Values)
	}
}

func TestInsufficientQuorumTimesOut(t *testing.T) {
	// Only 2 of 4 replicas answer but the quorum is 3: Submit must not
	// complete.
	cl, _, _ := setup(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	if _, err := cl.Submit(ctx, []types.Op{{Kind: types.OpRead, Key: "k"}}); err == nil {
		t.Fatal("sub-quorum replies must not complete a request")
	}
}

func TestRejectsWrongClientTxn(t *testing.T) {
	cl, _, _ := setup(t, 4)
	ctx := context.Background()
	_, err := cl.SubmitTxn(ctx, types.Transaction{Client: types.ClientIDBase + 99, Seq: 1})
	if err == nil {
		t.Fatal("transaction for another client accepted")
	}
}

func TestBadMACIgnored(t *testing.T) {
	// A forged inform (wrong MAC) must not count toward the quorum. Build a
	// client with quorum 1 and a replica that sends garbage tags.
	const n = 4
	net := network.NewChanNet()
	defer net.Close()
	ring := crypto.NewKeyRing(n, []byte("client-test"))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	rtr := net.Join(types.ReplicaNode(0))
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case env, ok := <-rtr.Inbox():
				if !ok {
					return
				}
				if cr, isReq := env.Msg.(*protocol.ClientRequest); isReq {
					msg := &protocol.Inform{
						From: 0, Digest: cr.Req.Digest(),
						Seq: 1, ClientSeq: cr.Req.Txn.Seq,
						Values: [][]byte{[]byte("forged")},
						Tag:    []byte("not-a-mac"),
					}
					rtr.Send(types.ClientNode(cr.Req.Txn.Client), msg)
				}
			}
		}
	}()
	id := types.ClientID(types.ClientIDBase)
	cl, err := New(Config{
		ID: id, N: n, F: 1, Scheme: crypto.SchemeMAC,
		Rule: Quorum(1), Timeout: 100 * time.Millisecond,
	}, ring, net.Join(types.ClientNode(id)))
	if err != nil {
		t.Fatal(err)
	}
	cl.Start(ctx)
	sctx, scancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer scancel()
	if _, err := cl.Submit(sctx, []types.Op{{Kind: types.OpRead, Key: "k"}}); err == nil {
		t.Fatal("forged inform completed a request")
	}
}
