package protocol

import (
	"testing"
	"time"

	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/ledger"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/store"
	"github.com/poexec/poe/internal/types"
)

func TestConfigValidate(t *testing.T) {
	good := Config{ID: 0, N: 4, F: 1}.WithDefaults()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{ID: 0, N: 3, F: 1},  // n ≤ 3f
		{ID: 4, N: 4, F: 1},  // id out of range
		{ID: 0, N: 0, F: 0},  // empty system
		{ID: -1, N: 4, F: 1}, // negative id
	}
	for i, cfg := range bad {
		if err := cfg.WithDefaults().Validate(); err == nil {
			t.Fatalf("config %d should be invalid", i)
		}
	}
	if q := good.NF(); q != 3 {
		t.Fatalf("nf = %d", q)
	}
	if q := good.FPlus1(); q != 2 {
		t.Fatalf("f+1 = %d", q)
	}
}

func newExec() *Executor {
	return NewExecutor(store.New(), ledger.NewChain(0))
}

func batchFor(client types.ClientID, seq uint64) types.Batch {
	return types.Batch{Requests: []types.Request{{Txn: types.Transaction{
		Client: client, Seq: seq,
		Ops: []types.Op{{Kind: types.OpWrite, Key: "k", Value: []byte{byte(seq)}}},
	}}}}
}

func TestExecutorOrdersOutOfOrderCommits(t *testing.T) {
	e := newExec()
	if evs := e.Commit(3, 0, batchFor(types.ClientIDBase, 3), nil); len(evs) != 0 {
		t.Fatal("seq 3 must wait for 1 and 2")
	}
	if evs := e.Commit(2, 0, batchFor(types.ClientIDBase, 2), nil); len(evs) != 0 {
		t.Fatal("seq 2 must wait for 1")
	}
	evs := e.Commit(1, 0, batchFor(types.ClientIDBase, 1), nil)
	if len(evs) != 3 {
		t.Fatalf("expected a 3-batch drain, got %d", len(evs))
	}
	for i, ev := range evs {
		if ev.Rec.Seq != types.SeqNum(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Rec.Seq)
		}
	}
	if e.LastExecuted() != 3 {
		t.Fatalf("last executed %d", e.LastExecuted())
	}
}

func TestExecutorIdempotentCommit(t *testing.T) {
	e := newExec()
	if evs := e.Commit(1, 0, batchFor(types.ClientIDBase, 1), nil); len(evs) != 1 {
		t.Fatal("first commit should execute")
	}
	if evs := e.Commit(1, 0, batchFor(types.ClientIDBase, 99), nil); len(evs) != 0 {
		t.Fatal("re-committing an executed seq must be a no-op")
	}
}

func TestExecutorDedupAcrossBatches(t *testing.T) {
	e := newExec()
	e.Commit(1, 0, batchFor(types.ClientIDBase, 1), nil)
	// The same client transaction re-proposed at seq 2 must not re-apply.
	evs := e.Commit(2, 0, batchFor(types.ClientIDBase, 1), nil)
	if len(evs) != 1 {
		t.Fatal("seq 2 should still execute (as an effectively empty batch)")
	}
	if len(evs[0].Results) != 0 {
		t.Fatal("duplicate transaction produced results")
	}
	if !e.AlreadyExecuted(types.ClientIDBase, 1) {
		t.Fatal("dedup history lost")
	}
}

// TestExecutorDedupWithinOneDrain parks two batches behind a gap and
// drains all three in one Commit: seq 2 is fully stale, seq 3 mixes a stale
// and a fresh request from the same client. Dedup must judge each batch
// against the history the batches before it in the same drain left behind.
func TestExecutorDedupWithinOneDrain(t *testing.T) {
	e := newExec()
	const c = types.ClientIDBase
	b3 := writeBatch(c, 5, "dup", 3)
	b3.Requests = append(b3.Requests, types.Request{Txn: types.Transaction{
		Client: c, Seq: 6,
		Ops: []types.Op{{Kind: types.OpWrite, Key: "dup", Value: []byte{99}}},
	}})
	if evs := e.Commit(3, 0, b3, nil); len(evs) != 0 {
		t.Fatal("seq 3 must wait for 1 and 2")
	}
	if evs := e.Commit(2, 0, writeBatch(c, 5, "dup", 2), nil); len(evs) != 0 {
		t.Fatal("seq 2 must wait for 1")
	}
	evs := e.Commit(1, 0, writeBatch(c, 5, "dup", 1), nil)
	if len(evs) != 3 {
		t.Fatalf("expected a 3-batch drain, got %d", len(evs))
	}
	want := [][]uint64{{5}, {}, {6}} // client seqs answered per event
	for i, ev := range evs {
		if ev.Rec.Seq != types.SeqNum(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Rec.Seq)
		}
		if len(ev.Results) != len(want[i]) {
			t.Fatalf("seq %d: %d results, want %d", ev.Rec.Seq, len(ev.Results), len(want[i]))
		}
		for j, r := range ev.Results {
			if r.Client != c || r.Seq != want[i][j] {
				t.Fatalf("seq %d result %d = (%d,%d), want (%d,%d)", ev.Rec.Seq, j, r.Client, r.Seq, c, want[i][j])
			}
		}
	}
	if v, _ := e.Store().Get("dup"); len(v) != 1 || v[0] != 99 {
		t.Fatalf("dup = %v, want the fresh request's write [99]", v)
	}
	for cs, want := range map[uint64]bool{4: true, 5: true, 6: true, 7: false} {
		if got := e.AlreadyExecuted(c, cs); got != want {
			t.Fatalf("AlreadyExecuted(%d) = %v, want %v", cs, got, want)
		}
	}
}

func TestExecutorRollbackRebuildsDedup(t *testing.T) {
	e := newExec()
	e.Commit(1, 0, batchFor(types.ClientIDBase, 1), nil)
	e.Commit(2, 0, batchFor(types.ClientIDBase, 2), nil)
	if err := e.Rollback(1); err != nil {
		t.Fatal(err)
	}
	if e.AlreadyExecuted(types.ClientIDBase, 2) {
		t.Fatal("rolled-back transaction still marked executed")
	}
	if !e.AlreadyExecuted(types.ClientIDBase, 1) {
		t.Fatal("surviving transaction lost from dedup history")
	}
	// The rolled-back transaction can execute again.
	evs := e.Commit(2, 1, batchFor(types.ClientIDBase, 2), nil)
	if len(evs) != 1 || len(evs[0].Results) != 1 {
		t.Fatal("re-execution after rollback failed")
	}
}

func TestExecutorGap(t *testing.T) {
	e := newExec()
	if _, _, gapped := e.Gap(); gapped {
		t.Fatal("empty executor reports a gap")
	}
	e.Commit(5, 0, batchFor(types.ClientIDBase, 5), nil)
	after, waiting, gapped := e.Gap()
	if !gapped || after != 0 || waiting != 1 {
		t.Fatalf("gap = (%d,%d,%v)", after, waiting, gapped)
	}
}

func TestBatcherDedupAndLinger(t *testing.T) {
	b := NewBatcher(3, 10*time.Millisecond, false)
	req := func(c types.ClientID, s uint64) types.Request {
		return types.Request{Txn: types.Transaction{Client: c, Seq: s}}
	}
	if b.Add(req(types.ClientIDBase, 1)) {
		t.Fatal("batch reported full after one request")
	}
	// Duplicate (same client seq) is dropped.
	b.Add(req(types.ClientIDBase, 1))
	if b.Pending() != 1 {
		t.Fatalf("pending %d after duplicate", b.Pending())
	}
	if _, ok := b.Take(false); ok {
		t.Fatal("partial batch taken without force")
	}
	b.Add(req(types.ClientIDBase, 2))
	if !b.Add(req(types.ClientIDBase, 3)) {
		t.Fatal("batch should be full at 3")
	}
	batch, ok := b.Take(false)
	if !ok || len(batch.Requests) != 3 {
		t.Fatalf("take full: %v %d", ok, len(batch.Requests))
	}
	// Linger: a partial batch ripens after the linger interval.
	b.Add(req(types.ClientIDBase, 4))
	if b.Ripe(time.Now()) {
		t.Fatal("fresh partial batch should not be ripe")
	}
	if !b.Ripe(time.Now().Add(20 * time.Millisecond)) {
		t.Fatal("lingered batch should be ripe")
	}
	if batch, ok := b.Take(true); !ok || len(batch.Requests) != 1 {
		t.Fatal("force-take failed")
	}
}

func TestBatcherZeroPayload(t *testing.T) {
	b := NewBatcher(2, time.Millisecond, true)
	b.Add(types.Request{Txn: types.Transaction{Client: types.ClientIDBase, Seq: 1}})
	b.Add(types.Request{Txn: types.Transaction{Client: types.ClientIDBase, Seq: 2}})
	batch, ok := b.Take(false)
	if !ok || !batch.ZeroPayload || batch.ZeroCount != 2 {
		t.Fatalf("zero-payload batch: %+v", batch)
	}
}

func TestCostModelMatchesPaperTable(t *testing.T) {
	models := CostModels()
	want := map[string]struct {
		phases int
		msgs   int // at n = 10
	}{
		"Zyzzyva":     {1, 10},
		"PoE":         {3, 30},
		"PBFT":        {3, 10 + 200},
		"HotStuff-TS": {8, 80},
		"SBFT":        {5, 50},
	}
	for _, m := range models {
		w, ok := want[m.Protocol]
		if !ok {
			t.Fatalf("unexpected protocol %q", m.Protocol)
		}
		if m.Phases != w.phases || m.Messages(10) != w.msgs {
			t.Fatalf("%s: phases=%d msgs=%d, want %d/%d", m.Protocol, m.Phases, m.Messages(10), w.phases, w.msgs)
		}
	}
	if s := FormatCostTable(91, 30); len(s) == 0 {
		t.Fatal("empty cost table")
	}
}

func TestCheckpointQuorum(t *testing.T) {
	// Build two runtimes over a shared ring and drive the checkpoint votes
	// by hand.
	ring := crypto.NewKeyRing(4, []byte("cp-test"))
	net := fakeNet{}
	cfg := Config{ID: 0, N: 4, F: 1, Scheme: crypto.SchemeMAC, CheckpointInterval: 1}
	rt := NewRuntime(cfg, ring, net, RuntimeOptions{})
	rt.Exec.Commit(1, 0, types.Batch{}, nil)

	state := rt.Exec.StateDigest()
	head := rt.Exec.Chain().Head()
	ledgerHash := head.Hash()
	mkVote := func(from types.ReplicaID) *Checkpoint {
		cp := &Checkpoint{From: from, Seq: 1, State: state, Ledger: ledgerHash}
		cp.Sig = ring.NodeKeys(types.ReplicaNode(from)).Sign(cp.SignedPayload())
		return cp
	}
	if _, stable := rt.OnCheckpoint(mkVote(0)); stable {
		t.Fatal("one vote should not stabilize")
	}
	if _, stable := rt.OnCheckpoint(mkVote(1)); stable {
		t.Fatal("two votes should not stabilize")
	}
	// Neither a forged vote nor one replica 1 signed in replica 3's name
	// counts toward nf.
	forged := mkVote(3)
	forged.Sig[0] ^= 1
	impersonated := mkVote(1)
	impersonated.From = 3
	for _, cp := range []*Checkpoint{forged, impersonated} {
		if _, stable := rt.OnCheckpoint(cp); stable {
			t.Fatal("a vote with a bad signature counted toward nf")
		}
	}
	seq, stable := rt.OnCheckpoint(mkVote(2))
	if !stable || seq != 1 {
		t.Fatalf("three votes (nf) should stabilize seq 1, got (%d,%v)", seq, stable)
	}
	if rt.Exec.StableCheckpointSeq() != 1 {
		t.Fatal("stable checkpoint not recorded")
	}
}

// TestCheckpointFreezesOnlyMatchingPrefix: nf votes for a checkpoint this
// replica has not reached, or reached on a batch the others did not run, do
// not freeze its prefix, so a view change can still roll it back. Once it
// executes the voted state, its own vote stabilizes the checkpoint.
func TestCheckpointFreezesOnlyMatchingPrefix(t *testing.T) {
	ring := crypto.NewKeyRing(4, []byte("cp-match"))
	cfg := Config{ID: 0, N: 4, F: 1, Scheme: crypto.SchemeMAC, CheckpointInterval: 2}
	a1, a2, b2 := batchFor(types.ClientIDBase, 1), batchFor(types.ClientIDBase, 2), batchFor(types.ClientIDBase+1, 1)
	ref := newExec()
	ref.Commit(1, 0, a1, nil)
	ref.Commit(2, 0, a2, nil)
	state, ledgerHead, _ := ref.DigestsAt(2)
	vote := func(from types.ReplicaID) *Checkpoint {
		cp := &Checkpoint{From: from, Seq: 2, State: state, Ledger: ledgerHead}
		cp.Sig = ring.NodeKeys(types.ReplicaNode(from)).Sign(cp.SignedPayload())
		return cp
	}

	rt := NewRuntime(cfg, ring, fakeNet{}, RuntimeOptions{})
	rt.Exec.Commit(1, 0, a1, nil)
	for _, from := range []types.ReplicaID{1, 2, 3} {
		if _, stable := rt.OnCheckpoint(vote(from)); stable {
			t.Fatal("a checkpoint this replica has not reached became stable")
		}
	}
	rt.Exec.Commit(2, 1, b2, nil) // a speculative batch the others did not run
	if _, stable := rt.OnCheckpoint(vote(3)); stable {
		t.Fatal("a checkpoint over a divergent batch became stable")
	}
	if err := rt.Exec.Rollback(1); err != nil {
		t.Fatalf("rolling back the divergent batch: %v", err)
	}
	rt.Exec.Commit(2, 0, a2, nil)
	if seq, stable := rt.OnCheckpoint(vote(0)); !stable || seq != 2 {
		t.Fatalf("own matching vote gave (%d, %v), want checkpoint 2 stable", seq, stable)
	}
}

// fakeNet is a transport that swallows everything (for runtime unit tests).
type fakeNet struct{}

func (fakeNet) Node() types.NodeID                    { return types.ReplicaNode(0) }
func (fakeNet) Send(to types.NodeID, msg any)         {}
func (fakeNet) Broadcast(tos []types.NodeID, msg any) {}
func (fakeNet) Inbox() <-chan network.Envelope        { return nil }
func (fakeNet) SetCheck(func(*network.Envelope) bool) {}
func (fakeNet) Close() error                          { return nil }
