package sbft

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

func startCluster(t *testing.T, n, f int, scheme crypto.Scheme, collTimeout time.Duration) *cluster {
	t.Helper()
	base := network.NewChanNet()
	net := network.NewFaultNet(base)
	ring := crypto.NewKeyRing(n, []byte("test-seed"))
	ctx, cancel := context.WithCancel(context.Background())
	c := &cluster{t: t, net: net, ring: ring}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		cfg := protocol.Config{
			ID: types.ReplicaID(i), N: n, F: f, Scheme: scheme,
			BatchSize: 1, BatchLinger: time.Millisecond,
			Window: 32, CheckpointInterval: 8,
			ViewTimeout: 400 * time.Millisecond,
		}
		tr := net.Join(types.ReplicaNode(cfg.ID))
		r, err := New(cfg, ring, tr, protocol.Options{})
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		r.collTimeout = collTimeout
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
		Rule:    client.Certified(CertifiedReply(c.ring, cfg.N-cfg.F, cfg.Scheme)),
		Timeout: 300 * time.Millisecond,
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

// waitExecuted blocks until every replica has executed through seq (or the
// deadline passes, which fails the test).
func waitExecuted(t *testing.T, replicas []*Replica, seq types.SeqNum, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		behind := -1
		for i, r := range replicas {
			if r.Runtime().Exec.LastExecuted() < seq {
				behind = i
				break
			}
		}
		if behind == -1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica %d behind: %d < %d", behind, replicas[behind].Runtime().Exec.LastExecuted(), seq)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestFastPath(t *testing.T) {
	c := startCluster(t, 4, 1, crypto.SchemeTS, 50*time.Millisecond)
	cl := c.newClient(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 15; i++ {
		if _, err := cl.Submit(ctx, writeOp(fmt.Sprintf("k%d", i), "v")); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	// The client's certified reply proves nf replicas executed; the last
	// replica may still be draining its inbox, so allow it a moment.
	waitExecuted(t, c.replicas, 15, 2*time.Second)
	var digests []types.Digest
	for _, r := range c.replicas {
		digests = append(digests, r.Runtime().Exec.StateDigest())
	}
	for _, d := range digests[1:] {
		if d != digests[0] {
			t.Fatal("state divergence")
		}
	}
}

func TestSlowPathUnderBackupFailure(t *testing.T) {
	c := startCluster(t, 4, 1, crypto.SchemeTS, 30*time.Millisecond)
	// Crash the last replica: neither collector (0) nor executor (1) of
	// view 0, like the paper's generic backup failure.
	c.net.Crash(types.ReplicaNode(3))
	cl := c.newClient(0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i := 0; i < 8; i++ {
		if _, err := cl.Submit(ctx, writeOp(fmt.Sprintf("k%d", i), "v")); err != nil {
			t.Fatalf("submit %d via slow path: %v", i, err)
		}
	}
	waitExecuted(t, c.replicas[:3], 8, 2*time.Second)
}

func TestPrimaryFailureViewChange(t *testing.T) {
	c := startCluster(t, 4, 1, crypto.SchemeTS, 30*time.Millisecond)
	cl := c.newClient(0)
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

// TestExecutedSlotsRetired: a backup drops a slot when it executes it, and
// the executor when it sends EXECUTE-ACK; the late shares and proofs for it
// must not re-create it. The slot maps are read after the replicas stop.
func TestExecutedSlotsRetired(t *testing.T) {
	for _, scheme := range []crypto.Scheme{crypto.SchemeMAC, crypto.SchemeTS} {
		t.Run(scheme.String(), func(t *testing.T) {
			c := startCluster(t, 4, 1, scheme, 50*time.Millisecond)
			cl := c.newClient(0)
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			const txns = 50
			for i := 0; i < txns; i++ {
				if _, err := cl.Submit(ctx, writeOp(fmt.Sprintf("k%d", i), "v")); err != nil {
					t.Fatalf("submit %d: %v", i, err)
				}
			}
			waitExecuted(t, c.replicas, txns, 2*time.Second)
			c.stop()
			for i, r := range c.replicas {
				last, held := r.rt.Exec.LastExecuted(), 0
				for seq := range r.slots {
					if seq <= last {
						held++
					}
				}
				if held > 0 {
					t.Errorf("replica %d holds %d slots at or below its executed head %d (%d in all)", i, held, last, len(r.slots))
				}
			}
		})
	}
}
