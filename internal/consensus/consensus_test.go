package consensus

import (
	"context"
	"testing"
	"time"

	"github.com/poexec/poe/internal/client"
	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/types"
)

// TestProtocolTable builds every protocol's four replicas and a client from
// the table, under the protocol's default scheme, and commits one write.
func TestProtocolTable(t *testing.T) {
	for _, p := range []Protocol{PoE, PBFT, Zyzzyva, SBFT, HotStuff} {
		t.Run(string(p), func(t *testing.T) {
			const n, f = 4, 1
			scheme := DefaultScheme(p, n)
			net := network.NewChanNet()
			ring := crypto.NewKeyRing(n, []byte("table"))
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer func() {
				cancel()
				net.Close()
			}()
			for i := 0; i < n; i++ {
				cfg := protocol.Config{ID: types.ReplicaID(i), N: n, F: f, Scheme: scheme, BatchSize: 1, BatchLinger: time.Millisecond}
				r, err := NewReplica(p, cfg, ring, net.Join(types.ReplicaNode(cfg.ID)), protocol.Options{})
				if err != nil {
					t.Fatalf("replica %d: %v", i, err)
				}
				go r.Run(ctx)
			}
			id := types.ClientID(types.ClientIDBase)
			cl, err := NewClient(p, client.Config{ID: id, N: n, F: f, Scheme: scheme}, ring, net.Join(types.ClientNode(id)))
			if err != nil {
				t.Fatal(err)
			}
			cl.Start(ctx)
			txn := types.Transaction{Client: id, Seq: cl.NextSeq(), Ops: []types.Op{{Kind: types.OpWrite, Key: "k", Value: []byte("v")}}}
			if _, err := cl.SubmitTxn(ctx, txn); err != nil {
				t.Fatalf("write: %v", err)
			}
		})
	}
}

func TestProtocolTableUnknownName(t *testing.T) {
	net := network.NewChanNet()
	defer net.Close()
	ring := crypto.NewKeyRing(4, []byte("table"))
	cfg := protocol.Config{N: 4, F: 1, Scheme: crypto.SchemeMAC}
	if _, err := NewReplica("raft", cfg, ring, net.Join(types.ReplicaNode(0)), protocol.Options{}); err == nil {
		t.Fatal("NewReplica accepted an unknown protocol")
	}
	id := types.ClientID(types.ClientIDBase)
	if _, err := NewClient("raft", client.Config{ID: id, N: 4, F: 1}, ring, net.Join(types.ClientNode(id))); err == nil {
		t.Fatal("NewClient accepted an unknown protocol")
	}
}
