package protocol

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/types"
)

// captureNet records every Send so tests can observe client-bound replies
// produced through the egress pipeline.
type captureNet struct {
	mu         sync.Mutex
	sent       []network.Envelope
	broadcasts int
}

func (c *captureNet) Node() types.NodeID { return types.ReplicaNode(1) }
func (c *captureNet) Send(to types.NodeID, msg any) {
	c.mu.Lock()
	c.sent = append(c.sent, network.Envelope{To: to, Msg: msg})
	c.mu.Unlock()
}
func (c *captureNet) Broadcast(tos []types.NodeID, msg any) {
	c.mu.Lock()
	c.broadcasts++
	c.mu.Unlock()
	for _, to := range tos {
		c.Send(to, msg)
	}
}
func (c *captureNet) Inbox() <-chan network.Envelope { return nil }
func (c *captureNet) Close() error                   { return nil }

// readReplies returns the ReadReply messages captured so far.
func (c *captureNet) readReplies() []*ReadReply {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*ReadReply
	for _, env := range c.sent {
		if m, ok := env.Msg.(*ReadReply); ok {
			out = append(out, m)
		}
	}
	return out
}

func (c *captureNet) awaitReadReplies(t *testing.T, n int) []*ReadReply {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		rs := c.readReplies()
		if len(rs) >= n {
			return rs
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d read replies, have %d", n, len(rs))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestReadPathRollbackRepair drives the speculative-read invalidation
// machinery end to end at the runtime level: a SPECULATIVE read served from
// an executed prefix that a view change later rolls back must be re-answered
// with the repaired value (Repaired set), re-anchored at the rollback point,
// and repaired again by a second, deeper rollback.
func TestReadPathRollbackRepair(t *testing.T) {
	ring := crypto.NewKeyRing(4, []byte("repair-test"))
	nt := &captureNet{}
	cfg := Config{ID: 1, N: 4, F: 1, Scheme: crypto.SchemeMAC}
	rt := NewRuntime(cfg, ring, nt, RuntimeOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rt.Egress.Start(ctx)

	rt.Exec.Commit(1, 0, writeBatch(7, 1, "k", 1), nil)
	rt.Exec.Commit(2, 0, writeBatch(7, 2, "k", 2), nil)

	const readerID = types.ClientID(9)
	req := types.Request{Txn: types.Transaction{
		Client:      readerID,
		Seq:         1, // read-space sequence
		Ops:         []types.Op{{Kind: types.OpRead, Key: "k"}},
		Consistency: types.ConsistencySpeculative,
	}}
	rt.ServeLocalRead(&req, types.ConsistencySpeculative, 0)

	first := nt.awaitReadReplies(t, 1)[0]
	if string(first.Values[0]) != "\x02" || first.ExecSeq != 2 || first.Repaired {
		t.Fatalf("first answer: values=%q seq=%d repaired=%v, want 0x02@2 unrepaired",
			first.Values, first.ExecSeq, first.Repaired)
	}
	// The reply must be MAC'd for the client exactly as the client verifies it.
	p := first.Payload()
	if !ring.NodeKeys(types.ClientNode(readerID)).CheckMAC(types.ReplicaNode(1), p[:], first.Tag) {
		t.Fatal("read reply MAC does not verify for the client")
	}
	// Its prefix tag must match the digest recorded when seq 2 executed.
	if state, _, ok := rt.Exec.DigestsAt(2); !ok || state != first.StateDigest {
		t.Fatalf("prefix tag mismatch: reply=%x recorded ok=%v", first.StateDigest, ok)
	}

	// A view change rolls back past the serving sequence: the read observed
	// state the cluster abandoned and must be re-answered.
	if err := rt.Exec.Rollback(1); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	second := nt.awaitReadReplies(t, 2)[1]
	if !second.Repaired || string(second.Values[0]) != "\x01" || second.ExecSeq != 1 {
		t.Fatalf("repair: values=%q seq=%d repaired=%v, want 0x01@1 repaired",
			second.Values, second.ExecSeq, second.Repaired)
	}
	if second.StateDigest != rt.Exec.StateDigest() {
		t.Fatal("repaired reply does not carry the rewound state digest")
	}
	if got := rt.Metrics.ReadRepairs.Load(); got != 1 {
		t.Fatalf("ReadRepairs=%d, want 1", got)
	}

	// The registry re-anchored the read at the rollback point, so a second,
	// deeper rollback repairs it again — now to the pre-write state.
	if err := rt.Exec.Rollback(0); err != nil {
		t.Fatalf("second rollback: %v", err)
	}
	third := nt.awaitReadReplies(t, 3)[2]
	if !third.Repaired || third.ExecSeq != 0 || len(third.Values[0]) != 0 {
		t.Fatalf("second repair: values=%q seq=%d repaired=%v, want empty@0 repaired",
			third.Values, third.ExecSeq, third.Repaired)
	}

	// Once the serve is covered by a stable checkpoint it can never roll
	// back; pruning must drop it so the registry stays bounded.
	rt.PruneSpecReads(0)
	rt.readMu.Lock()
	left := len(rt.specReads)
	rt.readMu.Unlock()
	if left != 0 {
		t.Fatalf("%d spec reads still tracked after pruning", left)
	}
}
