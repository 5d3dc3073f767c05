package zyzzyva

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

type cluster struct {
	t        *testing.T
	net      *network.FaultNet // crashes go through its fabric
	ring     *crypto.KeyRing
	replicas []*Replica
	cfgs     []protocol.Config
}

func startCluster(t *testing.T, n, f int, scheme crypto.Scheme) *cluster {
	t.Helper()
	base := network.NewChanNet()
	net := network.NewFaultNet(base)
	ring := crypto.NewKeyRing(n, []byte("test-seed"))
	ctx, cancel := context.WithCancel(context.Background())
	c := &cluster{t: t, net: net, ring: ring}
	for i := 0; i < n; i++ {
		cfg := protocol.Config{
			ID: types.ReplicaID(i), N: n, F: f, Scheme: scheme,
			BatchSize: 1, BatchLinger: time.Millisecond,
			Window: 32, CheckpointInterval: 8,
			ViewTimeout: 300 * time.Millisecond,
		}
		tr := net.Join(types.ReplicaNode(cfg.ID))
		r, err := New(cfg, ring, tr, protocol.Options{})
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		c.replicas = append(c.replicas, r)
		c.cfgs = append(c.cfgs, cfg)
		go r.Run(ctx)
	}
	t.Cleanup(func() {
		cancel()
		net.Close()
		base.Close()
	})
	return c
}

func (c *cluster) newClient(i int, specTimeout time.Duration) *Client {
	c.t.Helper()
	cfg := c.cfgs[0]
	id := types.ClientID(types.ClientIDBase) + types.ClientID(i)
	cl, err := NewClient(client.Config{
		ID: id, N: cfg.N, F: cfg.F, Scheme: cfg.Scheme,
		Timeout: specTimeout,
	}, c.ring, c.net.Join(types.ClientNode(id)))
	if err != nil {
		c.t.Fatalf("client: %v", err)
	}
	cl.Start(context.Background())
	return cl
}

func writeOp(key, val string) []types.Op {
	return []types.Op{{Kind: types.OpWrite, Key: key, Value: []byte(val)}}
}

func TestFastPath(t *testing.T) {
	c := startCluster(t, 4, 1, crypto.SchemeMAC)
	cl := c.newClient(0, 400*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	for i := 0; i < 20; i++ {
		if _, err := cl.Submit(ctx, writeOp(fmt.Sprintf("k%d", i), "v")); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	// Fast path should complete all 20 without a single spec timeout.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("fast path too slow: %v", elapsed)
	}
	// All replicas executed speculatively and agree.
	var digests []types.Digest
	for _, r := range c.replicas {
		if r.Runtime().Exec.LastExecuted() < 20 {
			t.Fatalf("replica behind: %d", r.Runtime().Exec.LastExecuted())
		}
		digests = append(digests, r.Runtime().Exec.StateDigest())
	}
	for _, d := range digests[1:] {
		if d != digests[0] {
			t.Fatal("state divergence on fast path")
		}
	}
}

func TestSlowPathUnderBackupFailure(t *testing.T) {
	c := startCluster(t, 4, 1, crypto.SchemeMAC)
	// One crashed backup breaks the fast path: the client must fall back to
	// commit certificates, which is exactly the paper's Fig 9(a) collapse.
	c.net.Crash(types.ReplicaNode(3))
	cl := c.newClient(0, 150*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		if _, err := cl.Submit(ctx, writeOp(fmt.Sprintf("k%d", i), "v")); err != nil {
			t.Fatalf("submit %d via slow path: %v", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		r := c.replicas[i]
		if r.Runtime().Exec.LastExecuted() < 5 {
			t.Fatalf("replica %d behind after slow path", i)
		}
	}
}

func TestPrimaryFailureViewChange(t *testing.T) {
	c := startCluster(t, 4, 1, crypto.SchemeMAC)
	cl := c.newClient(0, 150*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		if _, err := cl.Submit(ctx, writeOp(fmt.Sprintf("pre%d", i), "v")); err != nil {
			t.Fatalf("submit pre-%d: %v", i, err)
		}
	}
	c.net.Crash(types.ReplicaNode(0))
	for i := 0; i < 3; i++ {
		if _, err := cl.Submit(ctx, writeOp(fmt.Sprintf("post%d", i), "v")); err != nil {
			t.Fatalf("submit post-%d: %v", i, err)
		}
	}
	for i := 1; i < 4; i++ {
		if c.replicas[i].View() == 0 {
			t.Fatalf("replica %d did not change view", i)
		}
	}
}
