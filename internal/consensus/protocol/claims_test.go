package protocol

import (
	"slices"
	"testing"
	"time"

	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/types"
)

func TestClaimTableKeepsOneWindowPerSender(t *testing.T) {
	d, other := types.Digest{1}, types.Digest{2}
	c := newClaims[types.SeqNum, string](4, 20, 10) // three claims per sender
	for _, at := range []types.SeqNum{10, 20, 30} {
		c.Put(1, at, d, "1")
	}
	c.Put(2, 20, other, "2")
	c.Put(3, 20, d, "3")
	if got := c.Matching(20, d); !slices.Equal(got, []string{"1", "3"}) {
		t.Fatalf("Matching(20, d) = %v, want one-window honest claims of 1 and 3 in sender order", got)
	}
	c.Put(2, 20, d, "2") // a later claim of the same number replaces the first
	if n := c.Count(20, d); n != 3 {
		t.Fatalf("Count(20, d) = %d after replica 2 re-claimed 20 with d, want 3", n)
	}
	if n := c.Count(20, other); n != 0 {
		t.Fatalf("Count(20, other) = %d, want the replaced claim gone", n)
	}
	if senders, lowest := c.AtOrAbove(25); senders != 1 || lowest != 30 {
		t.Fatalf("AtOrAbove(25) = %d senders from %d, want 1 from 30", senders, lowest)
	}
	if senders, lowest := c.AtOrAbove(11); senders != 3 || lowest != 20 {
		t.Fatalf("AtOrAbove(11) = %d senders from %d, want 3 from 20", senders, lowest)
	}

	// A far-future claim displaces only its sender's older claims and still
	// counts; a claim more than span below it is stale, one within is kept.
	c.Put(1, 1<<40, d, "far")
	c.Put(1, 10, d, "stale")
	c.Put(1, 1<<40-15, d, "near")
	if c.Has(1, 30) || c.Has(1, 10) || !c.Has(1, 1<<40-15) {
		t.Fatal("replica 1 kept a claim more than one span below its latest, or lost one within it")
	}
	if senders, lowest := c.AtOrAbove(1 << 30); senders != 1 || lowest != 1<<40-15 {
		t.Fatalf("AtOrAbove(2^30) = %d senders from %d, want replica 1's two far claims", senders, lowest)
	}
	// A sender claiming every number keeps its latest few.
	for at := types.SeqNum(100); at < 200; at++ {
		c.Put(3, at, d, "3")
	}
	if c.Has(3, 196) || !c.Has(3, 197) || !c.Has(3, 199) {
		t.Fatal("replica 3 kept other than its three latest claims")
	}
	c.Put(-1, 5, d, "x")
	c.Put(4, 5, d, "x")
	if n := held(c); n != 2+1+3 {
		t.Fatalf("the table holds %d claims, want 6: out-of-range senders hold nothing", n)
	}
}

// held counts the claims a table holds.
func held[K ~uint64, V any](c *Claims[K, V]) int {
	n := 0
	for _, cs := range c.by {
		n += len(cs)
	}
	return n
}

// probeMsgs is how many far-future messages each probe sends from one
// replica.
const probeMsgs = 10_000

// flatProbe delivers probeMsgs messages through deliver and fails unless the
// last thousand cost at most twice the first thousand. Each thousand is
// priced at a thousand times its median message, so a GC pause or a
// preempted slice does not decide the comparison.
func flatProbe(t *testing.T, what string, deliver func(i int)) {
	t.Helper()
	took := make([]time.Duration, probeMsgs)
	for i := range took {
		start := time.Now()
		deliver(i)
		took[i] = time.Since(start)
	}
	median := func(ds []time.Duration) time.Duration {
		ds = slices.Clone(ds)
		slices.Sort(ds)
		return ds[len(ds)/2]
	}
	first, last := 1000*median(took[:1000]), 1000*median(took[probeMsgs-1000:])
	if last > 2*first {
		t.Fatalf("%s: the last 1000 took %v, the first 1000 %v: the cost per message grows with the count", what, last, first)
	}
}

// signedVote returns from's signed vote for checkpoint seq.
func signedVote(ring *crypto.KeyRing, from types.ReplicaID, seq types.SeqNum, state types.Digest) *Checkpoint {
	cp := &Checkpoint{From: from, Seq: seq, State: state}
	cp.Sig = ring.NodeKeys(types.ReplicaNode(from)).Sign(cp.SignedPayload())
	return cp
}

func TestFarFutureCheckpointVotesBounded(t *testing.T) {
	ring := crypto.NewKeyRing(4, []byte("far-future"))
	cfg := Config{ID: 0, N: 4, F: 1, Scheme: crypto.SchemeED}.WithDefaults()
	rt := NewRuntime(cfg, ring, fakeNet{}, RuntimeOptions{})
	votes := make([]*Checkpoint, probeMsgs)
	for i := range votes {
		votes[i] = signedVote(ring, 1, 1<<40+types.SeqNum(i)*cfg.CheckpointInterval, types.Digest{})
	}
	flatProbe(t, "checkpoint votes", func(i int) { rt.OnCheckpoint(votes[i]) })
	if n, bound := held(rt.cpVotes), rt.cpVotes.keep*cfg.N; n > bound {
		t.Fatalf("checkpoint votes hold %d claims after %d far-future votes, want ≤ %d", n, probeMsgs, bound)
	}
	// The honest replicas' checkpoint still stabilizes on nf votes for the
	// state this replica executed.
	k := cfg.CheckpointInterval
	for seq := types.SeqNum(1); seq <= k; seq++ {
		rt.Exec.Commit(seq, 0, types.Batch{}, nil)
	}
	state, ledgerHead, _ := rt.Exec.DigestsAt(k)
	for _, from := range []types.ReplicaID{0, 2, 3} {
		cp := &Checkpoint{From: from, Seq: k, State: state, Ledger: ledgerHead}
		cp.Sig = ring.NodeKeys(types.ReplicaNode(from)).Sign(cp.SignedPayload())
		rt.OnCheckpoint(cp)
	}
	if got := rt.Exec.StableCheckpointSeq(); got != k {
		t.Fatalf("stable checkpoint %d after nf honest votes, want %d", got, k)
	}
}

func TestFarFutureStateSyncVotesBounded(t *testing.T) {
	ring := crypto.NewKeyRing(4, []byte("far-future"))
	cfg := Config{ID: 0, N: 4, F: 1, Scheme: crypto.SchemeED}.WithDefaults()
	rt := NewRuntime(cfg, ring, fakeNet{}, RuntimeOptions{})
	// Every vote names a state of its own: one replica's word is never
	// evidence, whatever it claims.
	votes := make([]*Checkpoint, probeMsgs)
	for i := range votes {
		votes[i] = signedVote(ring, 1, 1<<40+types.SeqNum(i), types.Digest{byte(i), byte(i >> 8)})
	}
	flatProbe(t, "state-sync votes", func(i int) { rt.OnCheckpoint(votes[i]) })
	if n, bound := held(rt.cpVotes), rt.cpVotes.keep*cfg.N; n > bound {
		t.Fatalf("state-sync evidence holds %d claims after %d far-future votes, want ≤ %d", n, probeMsgs, bound)
	}
	if rt.Sync.target != 0 || rt.Sync.Behind() {
		t.Fatalf("one replica's votes set the state-sync target to %d", rt.Sync.target)
	}
	// f+1 replicas that really are far ahead still start state sync.
	far := types.SeqNum(1 << 20)
	for _, from := range []types.ReplicaID{2, 3} {
		rt.OnCheckpoint(signedVote(ring, from, far, types.Digest{7}))
	}
	if rt.Sync.target != far || !rt.Sync.Behind() {
		t.Fatalf("state-sync target %d after f+1 matching votes at %d", rt.Sync.target, far)
	}
}

func TestFarFutureVCRequestsBounded(t *testing.T) {
	f := newSkelFixture(t, 2)
	reqs := make([]*VCRequest, probeMsgs)
	for i := range reqs {
		reqs[i] = f.vc(1, types.View(1000+i))
	}
	flatProbe(t, "VC-REQUESTs", func(i int) { f.sk.OnVCRequest(reqs[i]) })
	f.wantNormal(0)
	if n, bound := held(f.sk.vcVotes), f.sk.vcVotes.keep*f.rt.Cfg.N; n > bound {
		t.Fatalf("view-change votes hold %d claims after %d far-future requests, want ≤ %d", n, probeMsgs, bound)
	}
	// The far-future claim is still replica 1's word: with one honest
	// request beyond view 0, f+1 replicas want to move on, and the smallest
	// target wins.
	f.sk.OnVCRequest(f.vc(3, 0))
	f.wantViewChange(1)
}
