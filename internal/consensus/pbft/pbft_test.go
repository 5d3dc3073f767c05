package pbft

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

func startCluster(t *testing.T, n, f int, scheme crypto.Scheme) *cluster {
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
			ViewTimeout: 200 * time.Millisecond,
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
		Rule:    client.Quorum(cfg.F + 1), // PBFT's client rule
		Timeout: 250 * time.Millisecond,
	}, c.ring, c.net.Join(types.ClientNode(id)))
	if err != nil {
		c.t.Fatalf("client: %v", err)
	}
	cl.Start(context.Background())
	return cl
}

func (c *cluster) awaitConvergence(want types.SeqNum, skip map[types.ReplicaID]bool, within time.Duration) {
	c.t.Helper()
	deadline := time.Now().Add(within)
	for {
		var digests []types.Digest
		var seqs []types.SeqNum
		ok := true
		for i, r := range c.replicas {
			if skip[types.ReplicaID(i)] {
				continue
			}
			seq := r.Runtime().Exec.LastExecuted()
			seqs = append(seqs, seq)
			digests = append(digests, r.Runtime().Exec.StateDigest())
			if seq < want {
				ok = false
			}
		}
		if ok {
			for _, d := range digests[1:] {
				if d != digests[0] {
					ok = false
					break
				}
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("no convergence: seqs=%v want=%d", seqs, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func writeOp(key, val string) []types.Op {
	return []types.Op{{Kind: types.OpWrite, Key: key, Value: []byte(val)}}
}

func TestNormalCaseMAC(t *testing.T) {
	c := startCluster(t, 4, 1, crypto.SchemeMAC)
	cl := c.newClient(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 20; i++ {
		if _, err := cl.Submit(ctx, writeOp(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	c.awaitConvergence(20, nil, 5*time.Second)
	for _, r := range c.replicas {
		if seq, ok := r.Runtime().Exec.Chain().Verify(); !ok {
			t.Fatalf("broken ledger at %d", seq)
		}
	}
}

func TestNormalCaseED(t *testing.T) {
	c := startCluster(t, 4, 1, crypto.SchemeED)
	cl := c.newClient(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 10; i++ {
		if _, err := cl.Submit(ctx, writeOp(fmt.Sprintf("k%d", i), "v")); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	c.awaitConvergence(10, nil, 5*time.Second)
}

func TestBackupFailure(t *testing.T) {
	c := startCluster(t, 4, 1, crypto.SchemeMAC)
	c.net.Crash(types.ReplicaNode(3))
	cl := c.newClient(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 10; i++ {
		if _, err := cl.Submit(ctx, writeOp(fmt.Sprintf("k%d", i), "v")); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	c.awaitConvergence(10, map[types.ReplicaID]bool{3: true}, 5*time.Second)
}

func TestPrimaryFailureViewChange(t *testing.T) {
	c := startCluster(t, 4, 1, crypto.SchemeMAC)
	cl := c.newClient(0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		if _, err := cl.Submit(ctx, writeOp(fmt.Sprintf("pre%d", i), "v")); err != nil {
			t.Fatalf("submit pre-%d: %v", i, err)
		}
	}
	c.net.Crash(types.ReplicaNode(0))
	for i := 0; i < 5; i++ {
		if _, err := cl.Submit(ctx, writeOp(fmt.Sprintf("post%d", i), "v")); err != nil {
			t.Fatalf("submit post-%d: %v", i, err)
		}
	}
	c.awaitConvergence(10, map[types.ReplicaID]bool{0: true}, 10*time.Second)
	for i := 1; i < 4; i++ {
		if c.replicas[i].View() == 0 {
			t.Fatalf("replica %d did not change view", i)
		}
	}
}

func TestCheckpointStabilizes(t *testing.T) {
	c := startCluster(t, 4, 1, crypto.SchemeMAC)
	cl := c.newClient(0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 20; i++ {
		if _, err := cl.Submit(ctx, writeOp(fmt.Sprintf("k%d", i), "v")); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		stable := true
		for _, r := range c.replicas {
			if r.Runtime().Exec.StableCheckpointSeq() < 8 {
				stable = false
			}
		}
		if stable {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpoint did not stabilize")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestExecutedSlotsRetired: once a batch executes its slot is gone for good.
// The f PREPAREs and COMMITs beyond each quorum arrive after the slot
// executed, and must not re-create it. The slot maps are read after the
// replicas stop.
func TestExecutedSlotsRetired(t *testing.T) {
	c := startCluster(t, 4, 1, crypto.SchemeMAC)
	cl := c.newClient(0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	const txns = 50
	for i := 0; i < txns; i++ {
		if _, err := cl.Submit(ctx, writeOp(fmt.Sprintf("k%d", i), "v")); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	c.awaitConvergence(txns, nil, 5*time.Second)
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
}
