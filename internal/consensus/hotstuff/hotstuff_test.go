package hotstuff

import (
	"context"
	"fmt"
	"sync"
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
	stop     func() // cancels the replicas and waits for their loops to exit
}

func startCluster(t *testing.T, n, f int) *cluster {
	t.Helper()
	base := network.NewChanNet()
	net := network.NewFaultNet(base)
	ring := crypto.NewKeyRing(n, []byte("test-seed"))
	ctx, cancel := context.WithCancel(context.Background())
	c := &cluster{t: t, net: net, ring: ring}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		cfg := protocol.Config{
			ID: types.ReplicaID(i), N: n, F: f, Scheme: crypto.SchemeTS,
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
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Run(ctx)
		}()
	}
	c.stop = func() {
		cancel()
		wg.Wait()
	}
	t.Cleanup(func() {
		c.stop()
		net.Close()
		base.Close()
	})
	return c
}

func (c *cluster) newClient(i int) *client.Client {
	c.t.Helper()
	cfg := c.cfgs[0]
	id := types.ClientID(types.ClientIDBase) + types.ClientID(i)
	cl, err := client.New(client.Config{
		ID: id, N: cfg.N, F: cfg.F, Scheme: cfg.Scheme,
		Rule:    client.Broadcast(cfg.F + 1),
		Timeout: 400 * time.Millisecond,
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

func TestNormalCase(t *testing.T) {
	c := startCluster(t, 4, 1)
	cl := c.newClient(0)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	for i := 0; i < 15; i++ {
		if _, err := cl.Submit(ctx, writeOp(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	// All replicas converge on the same state.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var digests []types.Digest
		ok := true
		for _, r := range c.replicas {
			if r.Runtime().Exec.Store().LastApplied() == 0 {
				ok = false
			}
			digests = append(digests, r.Runtime().Exec.StateDigest())
		}
		if ok {
			same := true
			for _, d := range digests[1:] {
				if d != digests[0] {
					same = false
				}
			}
			if same {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("replicas did not converge")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, r := range c.replicas {
		v, ok := r.Runtime().Exec.Store().Get("k14")
		if !ok || string(v) != "v14" {
			t.Fatalf("missing final write: %q %v", v, ok)
		}
	}
}

func TestLeaderRotation(t *testing.T) {
	c := startCluster(t, 4, 1)
	cl := c.newClient(0)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	for i := 0; i < 10; i++ {
		if _, err := cl.Submit(ctx, writeOp(fmt.Sprintf("k%d", i), "v")); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	// Rounds must have advanced well past the number of decisions (leader
	// rotates every round) and more than one replica must have proposed.
	proposers := 0
	for _, r := range c.replicas {
		if r.Runtime().Metrics.ProposedBatches.Load() > 0 {
			proposers++
		}
	}
	if proposers < 2 {
		t.Fatalf("expected rotating proposers, got %d", proposers)
	}
}

func TestCrashedLeaderRotatesPast(t *testing.T) {
	c := startCluster(t, 4, 1)
	cl := c.newClient(0)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := cl.Submit(ctx, writeOp("a", "1")); err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Crash one replica; the pacemaker must skip its leadership rounds.
	// Progress is slow by design — every fourth round has a dead leader and
	// must time out, which is exactly the degradation the paper's
	// single-failure HotStuff numbers show — so only a few requests are
	// pushed through here.
	c.net.Crash(types.ReplicaNode(2))
	for i := 0; i < 3; i++ {
		if _, err := cl.Submit(ctx, writeOp(fmt.Sprintf("b%d", i), "v")); err != nil {
			t.Fatalf("submit %d with crashed replica: %v", i, err)
		}
	}
}
