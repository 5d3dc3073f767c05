package protocol

// Tests for the reply durability gate: a durable replica must never answer a
// client before the WAL group carrying the batch is committed, and a crash
// (or rollback) in the window between execute and group-sync must lose the
// reply — never the durability.

import (
	"testing"
	"time"

	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/storage"
	"github.com/poexec/poe/internal/types"
)

func gateRuntime(t *testing.T, st *storage.Store) (*Runtime, network.Transport) {
	t.Helper()
	net := network.NewChanNet()
	t.Cleanup(func() { net.Close() })
	ring := crypto.NewKeyRing(4, []byte("durable-test"))
	cfg := Config{ID: 0, N: 4, F: 1, Scheme: crypto.SchemeNone, CheckpointInterval: 1 << 20}
	rt := NewRuntime(cfg, ring, net.Join(types.ReplicaNode(0)), RuntimeOptions{Storage: st})
	cli := net.Join(types.ClientNode(types.ClientIDBase))
	return rt, cli
}

func recvInform(t *testing.T, cli network.Transport, timeout time.Duration) *Inform {
	t.Helper()
	select {
	case env := <-cli.Inbox():
		msg, ok := env.Msg.(*Inform)
		if !ok {
			t.Fatalf("client received %T, want *Inform", env.Msg)
		}
		return msg
	case <-time.After(timeout):
		return nil
	}
}

// TestDurableReplyHeldUntilGroupSync uses the gate directly (no storage, so
// the durability notification is fully under test control): the reply must
// not leave before noteDurable covers its sequence number, and must leave
// afterwards.
func TestDurableReplyHeldUntilGroupSync(t *testing.T) {
	rt, cli := gateRuntime(t, nil)
	// Arm the gate without storage: the test plays the committer.
	rt.durable = true

	evs := rt.Exec.Commit(1, 0, writeBatch(types.ClientIDBase, 1, "k", 1), nil)
	if len(evs) != 1 {
		t.Fatalf("executed %d batches, want 1", len(evs))
	}
	rt.InformBatch(evs[0].Rec, evs[0].Results, true, nil, nil)

	if msg := recvInform(t, cli, 50*time.Millisecond); msg != nil {
		t.Fatalf("client answered before the WAL group was durable: %+v", msg)
	}
	rt.noteDurable(1)
	msg := recvInform(t, cli, 5*time.Second)
	if msg == nil {
		t.Fatal("reply never released after group sync")
	}
	if msg.Seq != 1 || msg.ClientSeq != 1 {
		t.Fatalf("released reply = seq %d cliSeq %d, want 1/1", msg.Seq, msg.ClientSeq)
	}
	// The released reply is now cached for duplicate suppression.
	req := writeBatch(types.ClientIDBase, 1, "k", 1).Requests[0]
	if !rt.ReplayReply(&req) {
		t.Fatal("released reply was not cached")
	}
}

// TestCrashBeforeGroupSyncLosesReply: a crash (modelled by the rollback/drop
// path) between execute and group-sync discards the gated reply — the client
// is never answered from state that did not survive.
func TestCrashBeforeGroupSyncLosesReply(t *testing.T) {
	rt, cli := gateRuntime(t, nil)
	rt.durable = true

	evs := rt.Exec.Commit(1, 0, writeBatch(types.ClientIDBase, 1, "k", 1), nil)
	rt.InformBatch(evs[0].Rec, evs[0].Results, true, nil, nil)
	// Crash window: seq 1 never reached the disk; the recovered replica
	// resumes below it.
	rt.dropPendingReplies(0)
	// Later durability progress must not resurrect the dropped reply.
	rt.noteDurable(5)
	if msg := recvInform(t, cli, 100*time.Millisecond); msg != nil {
		t.Fatalf("dropped reply was sent anyway: %+v", msg)
	}
	// And nothing was cached: a retransmission cannot be answered from the
	// lost execution.
	req := writeBatch(types.ClientIDBase, 1, "k", 1).Requests[0]
	if rt.ReplayReply(&req) {
		t.Fatal("lost reply still answerable from the cache")
	}
}

// TestDurableReplyGroupSyncIntegration runs the real chain — executor →
// group-commit queue → committer callback → gate → egress — and asserts
// that whenever a reply reaches the client, the store already reports its
// sequence number durable.
func TestDurableReplyGroupSyncIntegration(t *testing.T) {
	st, err := storage.Open(t.TempDir(), storage.Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rt, cli := gateRuntime(t, st)

	const n = 8
	for seq := types.SeqNum(1); seq <= n; seq++ {
		evs := rt.Exec.Commit(seq, 0, writeBatch(types.ClientIDBase, uint64(seq), "k", byte(seq)), nil)
		if len(evs) != 1 {
			t.Fatalf("seq %d did not execute", seq)
		}
		rt.InformBatch(evs[0].Rec, evs[0].Results, true, nil, nil)
	}
	for i := 0; i < n; i++ {
		msg := recvInform(t, cli, 10*time.Second)
		if msg == nil {
			t.Fatalf("received only %d/%d replies", i, n)
		}
		if durable := st.LastSeq(); durable < msg.Seq {
			t.Fatalf("reply for seq %d released while WAL only durable to %d", msg.Seq, durable)
		}
	}
	if groups, recs := st.GroupStats(); groups == 0 || recs != n {
		t.Fatalf("group stats = %d groups/%d records, want >0/%d", groups, recs, n)
	}
}
