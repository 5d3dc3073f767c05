package poe

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/poexec/poe/internal/client"
	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/types"
)

// reserveAddr binds an ephemeral loopback port for node and releases it, so
// the address can go into every address book before the real transports
// start.
func reserveAddr(t *testing.T, node types.NodeID) string {
	t.Helper()
	tn, err := network.NewTCPNet(node, map[types.NodeID]string{node: "127.0.0.1:0"})
	if err != nil {
		t.Skipf("sandbox blocks TCP listen: %v", err)
	}
	defer tn.Close()
	return tn.Addr()
}

// startTCPReplicas runs a 4-replica PoE cluster over real TCP on localhost
// and returns the replicas' address book. extra entries (a client the
// replicas may dial) are added to every replica's book.
func startTCPReplicas(t *testing.T, ctx context.Context, ring *crypto.KeyRing, extra map[types.NodeID]string) map[types.NodeID]string {
	t.Helper()
	const n, f = 4, 1
	replicas := make(map[types.NodeID]string, n)
	for i := 0; i < n; i++ {
		node := types.ReplicaNode(types.ReplicaID(i))
		replicas[node] = reserveAddr(t, node)
	}
	for i := 0; i < n; i++ {
		book := make(map[types.NodeID]string, n+len(extra))
		for k, v := range replicas {
			book[k] = v
		}
		for k, v := range extra {
			book[k] = v
		}
		tn, err := network.NewTCPNet(types.ReplicaNode(types.ReplicaID(i)), book)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tn.Close() })
		cfg := protocol.Config{
			ID: types.ReplicaID(i), N: n, F: f, Scheme: crypto.SchemeMAC,
			BatchSize: 1, BatchLinger: time.Millisecond,
			Window: 16, CheckpointInterval: 16,
			ViewTimeout: 500 * time.Millisecond,
		}
		r, err := New(cfg, ring, tn, Options{})
		if err != nil {
			t.Fatal(err)
		}
		go r.Run(ctx)
	}
	return replicas
}

// startTCPClient joins a client listening on addr to the replicas in book.
func startTCPClient(t *testing.T, ctx context.Context, ring *crypto.KeyRing, id types.ClientID, addr string, book map[types.NodeID]string, timeout time.Duration) *client.Client {
	t.Helper()
	peers := map[types.NodeID]string{types.ClientNode(id): addr}
	for k, v := range book {
		peers[k] = v
	}
	cnet, err := network.NewTCPNet(types.ClientNode(id), peers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cnet.Close() })
	cl, err := client.New(client.Config{ID: id, N: 4, F: 1, Scheme: crypto.SchemeMAC, Timeout: timeout}, ring, cnet)
	if err != nil {
		t.Fatal(err)
	}
	cl.Start(ctx)
	return cl
}

// TestTCPCluster runs a full PoE cluster over real TCP connections on
// localhost, exercising the wire-codec frame encoding of every message
// type the normal case uses.
func TestTCPCluster(t *testing.T) {
	ring := crypto.NewKeyRing(4, []byte("tcp-test"))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// The replicas know the client's address here, so replies are dialed.
	clientID := types.ClientID(types.ClientIDBase)
	clientAddr := reserveAddr(t, types.ClientNode(clientID))
	book := startTCPReplicas(t, ctx, ring, map[types.NodeID]string{types.ClientNode(clientID): clientAddr})
	cl := startTCPClient(t, ctx, ring, clientID, clientAddr, book, 500*time.Millisecond)

	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("tcp-k%d", i)
		if _, err := cl.Submit(sctx, writeOp(key, "v")); err != nil {
			t.Fatalf("submit %d over tcp: %v", i, err)
		}
	}
	res, err := cl.Submit(sctx, []types.Op{{Kind: types.OpRead, Key: "tcp-k4"}})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Values[0]) != "v" {
		t.Fatalf("read %q over tcp", res.Values[0])
	}
}

// TestFirstContactNeedsNoRetransmission: replicas that cannot dial a client
// (a deployment: its address is in nobody's book) still answer its very
// first request from all sides, because the client announced itself on a
// connection to each of them. The request goes to the primary alone and the
// proof of execution needs nf INFORMs, so without the announcement the
// client would sit out its retransmission time-out — set here far above
// what the test allows — before a broadcast taught the backups its route.
func TestFirstContactNeedsNoRetransmission(t *testing.T) {
	ring := crypto.NewKeyRing(4, []byte("tcp-test"))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	book := startTCPReplicas(t, ctx, ring, nil)
	const retransmit = 5 * time.Second
	cl := startTCPClient(t, ctx, ring, types.ClientIDBase, "127.0.0.1:0", book, retransmit)

	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	start := time.Now()
	if _, err := cl.Submit(sctx, writeOp("first", "v")); err != nil {
		t.Fatal(err)
	}
	// retryWait jitters the time-out by ±25%: anything under 3/4 of it
	// cannot have involved a retransmission.
	if took := time.Since(start); took > retransmit/2 {
		t.Fatalf("first request took %v: it waited for the %v retransmission", took, retransmit)
	}
}
