package deploy

import (
	"context"
	"fmt"
	"time"

	"github.com/poexec/poe/internal/client"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/types"
)

// ClientPoolOptions configure NewTCPClients.
type ClientPoolOptions struct {
	// Addrs are the replica addresses, index = replica id.
	Addrs []string
	// Scheme is the cluster scheme name (mac|ts|ed|none).
	Scheme string
	// Seed is the shared key-ring seed.
	Seed string
	// Count is the number of clients (default 1).
	Count int
	// BaseIndex offsets the client identities so concurrent pools (e.g.
	// parallel tests against one cluster) do not collide.
	BaseIndex int
	// Timeout is the per-client retransmission timeout (default 500ms).
	Timeout time.Duration
	// Listen is the clients' bind address (default "127.0.0.1:0").
	Listen string
}

// NewTCPClients builds a pool of protocol clients over real TCP transports
// against a multi-process cluster — the client side cmd/poeload and the e2e
// battery share. The returned close function shuts every transport down;
// ctx bounds the clients' reply loops.
func NewTCPClients(ctx context.Context, opts ClientPoolOptions) ([]LoadClient, func(), error) {
	n := len(opts.Addrs)
	if n < 4 {
		return nil, nil, fmt.Errorf("deploy: need at least 4 replicas, got %d", n)
	}
	if opts.Count == 0 {
		opts.Count = 1
	}
	if opts.Listen == "" {
		opts.Listen = "127.0.0.1:0"
	}
	scheme, err := crypto.ParseScheme(opts.Scheme)
	if err != nil {
		return nil, nil, fmt.Errorf("deploy: %w", err)
	}
	ring := crypto.NewKeyRing(n, []byte(opts.Seed))
	f := (n - 1) / 3

	var pool []LoadClient
	var transports []*network.TCPNet
	closeAll := func() {
		for _, tr := range transports {
			tr.Close()
		}
	}
	for i := 0; i < opts.Count; i++ {
		id := types.ClientID(types.ClientIDBase) + types.ClientID(opts.BaseIndex+i)
		peers := make(map[types.NodeID]string, n+1)
		for r, a := range opts.Addrs {
			peers[types.ReplicaNode(types.ReplicaID(r))] = a
		}
		peers[types.ClientNode(id)] = opts.Listen
		tr, err := network.NewTCPNet(types.ClientNode(id), peers)
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("deploy: client %d transport: %w", i, err)
		}
		transports = append(transports, tr)
		cl, err := client.New(client.Config{
			ID: id, N: n, F: f, Scheme: scheme,
			Timeout: opts.Timeout,
		}, ring, tr)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		cl.Start(ctx)
		pool = append(pool, LoadClient{ID: id, Sub: cl})
	}
	return pool, closeAll, nil
}
