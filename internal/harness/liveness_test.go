package harness

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/types"
)

// Regression scenarios for the four failure-detector defects the process-
// level battery found in PoE (PR 8). The detector is now one piece of code
// (protocol.Skeleton), so each scenario runs on all four protocols that use
// it. While PBFT, SBFT and Zyzzyva had their own copies, PBFT failed all
// four scenarios, SBFT all but the burst, and Zyzzyva all but the lull.

const spuriousTimeout = 500 * time.Millisecond

// skeletonProtocols are the protocols built on protocol.Skeleton.
var skeletonProtocols = []Protocol{PoE, PBFT, SBFT, Zyzzyva}

// quietCluster is a 4-replica cluster a test drives request by request, so
// that it controls exactly when the cluster is idle.
type quietCluster struct {
	*cluster
	t *testing.T
}

func startQuietCluster(t *testing.T, p Protocol, netDelay, clientTimeout time.Duration) *quietCluster {
	t.Helper()
	opts := Options{
		Protocol: p, N: 4, BatchSize: 1, CheckpointInterval: 4, Clients: 8, Records: 1,
		ViewTimeout: spuriousTimeout, ClientTimeout: clientTimeout,
		NetDelay: netDelay, SendCost: -1,
	}.withDefaults()
	c := &quietCluster{cluster: newCluster(opts, true), t: t}
	t.Cleanup(c.stop)
	if err := c.start(); err != nil {
		t.Fatal(err)
	}
	return c
}

func clientID(i int) types.ClientID { return types.ClientID(types.ClientIDBase) + types.ClientID(i) }

func writeTxn(client types.ClientID, seq uint64) types.Transaction {
	return types.Transaction{
		Client: client, Seq: seq, TimeNanos: time.Now().UnixNano(),
		Ops: []types.Op{{Kind: types.OpWrite, Key: fmt.Sprintf("k%d", seq%16), Value: []byte("v")}},
	}
}

// submit drives one write from client i to completion.
func (c *quietCluster) submit(i int) {
	c.t.Helper()
	ctx, cancel := context.WithTimeout(c.ctx, 10*time.Second)
	defer cancel()
	s := c.clients[i]
	if _, err := s.SubmitTxn(ctx, writeTxn(clientID(i), s.NextSeq())); err != nil {
		c.t.Fatalf("submit: %v", err)
	}
}

// burst keeps one write in flight on every client until at least total have
// completed, then lets the in-flight ones finish.
func (c *quietCluster) burst(total int64) {
	c.t.Helper()
	var completed atomic.Int64
	var wg sync.WaitGroup
	for i := range c.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for completed.Load() < total {
				ctx, cancel := context.WithTimeout(c.ctx, 10*time.Second)
				_, err := c.clients[i].SubmitTxn(ctx, writeTxn(clientID(i), c.clients[i].NextSeq()))
				cancel()
				if err != nil {
					c.t.Errorf("burst submit: %v", err)
					return
				}
				completed.Add(1)
			}
		}(i)
	}
	wg.Wait()
}

func (c *quietCluster) metric(pick func(*protocol.Metrics) int64) (sum int64) {
	for _, h := range c.replicas {
		sum += pick(h.Runtime().Metrics)
	}
	return sum
}

func (c *quietCluster) viewChanges() int64 {
	return c.metric(func(m *protocol.Metrics) int64 { return m.ViewChanges.Load() })
}

func (c *quietCluster) executed(i int) types.SeqNum {
	return c.replicas[i].Runtime().Exec.LastExecuted()
}

// await polls cond until it holds or the deadline passes.
func (c *quietCluster) await(what string, within time.Duration, cond func() bool) {
	c.t.Helper()
	deadline := time.Now().Add(within)
	for !cond() {
		if time.Now().After(deadline) {
			for i, h := range c.replicas {
				m := h.Runtime().Metrics
				c.t.Logf("replica %d: executed %d, stable %d, %d snapshots installed, %d view changes started",
					i, c.executed(i), h.Runtime().Exec.StableCheckpointSeq(), m.SnapshotsInstalled.Load(), m.ViewChanges.Load())
			}
			c.t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (c *quietCluster) awaitConverged(within time.Duration) {
	c.t.Helper()
	c.await("all replicas to execute the same prefix", within, func() bool {
		for i := 1; i < len(c.replicas); i++ {
			if c.executed(i) != c.executed(0) {
				return false
			}
		}
		return true
	})
}

// wantNoNewViewChanges lets the cluster sit idle for long enough that any
// stale failure-detection state would fire, and fails if a view change
// starts.
func (c *quietCluster) wantNoNewViewChanges(since int64) {
	c.t.Helper()
	time.Sleep(3 * spuriousTimeout / 2)
	if got := c.viewChanges(); got != since {
		c.t.Fatalf("%d view changes started in an idle cluster with nothing outstanding", got-since)
	}
}

func replicaNodes(ids ...int) []types.NodeID {
	var out []types.NodeID
	for _, id := range ids {
		out = append(out, types.ReplicaNode(types.ReplicaID(id)))
	}
	return out
}

func TestFailureDetectorStaysQuiet(t *testing.T) {
	scenarios := []struct {
		name      string
		protocols []Protocol
		run       func(t *testing.T, p Protocol)
	}{
		// Defect 1: the primary proposes into an idle lull. The progress
		// clock is 2×ViewTimeout stale when the slot opens, and links are
		// slower than the tick, so every backup ticks with the slot open.
		{"IdleLullThenOneRequest", skeletonProtocols, func(t *testing.T, p Protocol) {
			c := startQuietCluster(t, p, 15*time.Millisecond, time.Second)
			time.Sleep(2 * spuriousTimeout)
			c.submit(0)
			c.awaitConverged(time.Second)
			c.wantNoNewViewChanges(0)
		}},
		// Defect 2: clients whose time-out is shorter than a decision retry
		// every request by broadcast, and copies reach backups after the
		// request executed.
		{"BroadcastRetryBurst", skeletonProtocols, func(t *testing.T, p Protocol) {
			c := startQuietCluster(t, p, 5*time.Millisecond, 10*time.Millisecond)
			c.burst(64)
			c.awaitConverged(time.Second)
			c.wantNoNewViewChanges(0)
		}},
		// Defect 3: a replica cut off from its peers hears only the clients'
		// retries, then rejoins through a snapshot whose prefix already
		// executed everything it is still tracking. Not Zyzzyva: it has no
		// record fetch to bridge snapshot → live head, so a replica that
		// installs a snapshot below the head closes the gap by view change,
		// by design (the shared half is protocol.TestFailureDetectorInstallDropsPending).
		{"SnapshotInstallDropsPending", []Protocol{PoE, PBFT, SBFT}, func(t *testing.T, p Protocol) {
			c := startQuietCluster(t, p, 5*time.Millisecond, 10*time.Millisecond)
			c.fn.Partition(replicaNodes(3), replicaNodes(0, 1, 2), false)
			// Long enough to outrun what Fetch retains, short enough that
			// replica 3 is still following the normal case when it is healed.
			c.burst(16)
			c.fn.Heal()
			// One checkpoint interval of fresh decisions: the votes tell
			// replica 3 how far behind it is.
			for i := 0; i < c.opts.CheckpointInterval; i++ {
				c.submit(0)
			}
			// Generous: the delayed links do not keep order.
			c.awaitConverged(10 * time.Second)
			if n := c.replicas[3].Runtime().Metrics.SnapshotsInstalled.Load(); n == 0 {
				t.Fatal("replica 3 caught up without installing a snapshot")
			}
			c.wantNoNewViewChanges(c.viewChanges())
		}},
		// Defect 4: one backup alone holds a request the primary never saw.
		// Its suspicion is spurious; when nobody joins within the (doubled)
		// timeout it must return to the live view rather than move on to a
		// view of its own, deaf to the cluster.
		{"LonelyViewChangeResumes", skeletonProtocols, func(t *testing.T, p Protocol) {
			c := startQuietCluster(t, p, 0, time.Second)
			c.fn.CutLink(types.ReplicaNode(2), types.ReplicaNode(0), false)
			rogue := clientID(99)
			req := types.Request{Txn: writeTxn(rogue, 1)}
			d := req.Digest()
			req.Sig = c.ring.NodeKeys(types.ClientNode(rogue)).Sign(d[:])
			c.fn.Join(types.ClientNode(rogue)).Send(types.ReplicaNode(2), &protocol.ClientRequest{Req: req})
			c.await("replica 2 to suspect the primary", 3*spuriousTimeout, func() bool { return c.viewChanges() == 1 })
			c.fn.HealLink(types.ReplicaNode(2), types.ReplicaNode(0))
			time.Sleep(2*spuriousTimeout + 50*time.Millisecond)
			c.submit(0)
			c.awaitConverged(spuriousTimeout / 2)
			if got := c.viewChanges(); got != 1 {
				t.Fatalf("%d view changes started, want only replica 2's", got)
			}
			if done := c.metric(func(m *protocol.Metrics) int64 { return m.ViewChangesDone.Load() }); done != 0 {
				t.Fatalf("%d replicas left a live view", done)
			}
		}},
	}
	for _, sc := range scenarios {
		// One scenario at a time, its four clusters side by side: they spend
		// their time waiting.
		t.Run(sc.name, func(t *testing.T) {
			for _, p := range sc.protocols {
				p := p // shared across iterations before go 1.22
				t.Run(string(p), func(t *testing.T) {
					t.Parallel()
					sc.run(t, p)
				})
			}
		})
	}
}
