package hotstuff

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/types"
)

// heldVotes counts the entries of a replica's vote table.
func heldVotes(r *Replica) int {
	held := 0
	for _, round := range r.votes {
		held += len(round)
	}
	return held
}

// handDriven builds one replica that no Run loop drives: tests call its
// handlers directly.
func handDriven(t *testing.T, id types.ReplicaID) (*Replica, *crypto.KeyRing) {
	t.Helper()
	net := network.NewChanNet()
	t.Cleanup(net.Close)
	ring := crypto.NewKeyRing(4, []byte("votes-test"))
	cfg := protocol.Config{
		ID: id, N: 4, F: 1, Scheme: crypto.SchemeTS,
		BatchSize: 1, BatchLinger: time.Millisecond,
		Window: 32, CheckpointInterval: 8, ViewTimeout: time.Second,
	}
	r, err := New(cfg, ring, net.Join(types.ReplicaNode(id)), protocol.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r, ring
}

// TestVoteTableBoundedOverRun: in a fault-free run the f votes that arrive
// after each QC formed must not stay behind in the next leader's vote
// table, so the table stays as small after many rounds as after a few.
func TestVoteTableBoundedOverRun(t *testing.T) {
	c := startCluster(t, 4, 1)
	cl := c.newClient(0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const writes = 200
	for i := 0; i < writes; i++ {
		if _, err := cl.Submit(ctx, writeOp(fmt.Sprintf("k%d", i), "v")); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	c.stop()
	for i, r := range c.replicas {
		if held := heldVotes(r); held > c.cfgs[i].N {
			t.Errorf("replica %d holds %d vote-table entries after %d writes (round %d)", i, held, writes, r.curRound)
		}
	}
}

// TestByzantineVoterCannotGrowVoteTable: one Byzantine replica votes for
// node digests it makes up, in the collector's round and in every later
// round the collector leads. The table must not grow with the number of
// such votes, and the honest quorum of the round must still form its QC.
func TestByzantineVoterCannotGrowVoteTable(t *testing.T) {
	// Replica 2 leads round 2, so it collects the votes of round 1 (and of
	// rounds 5, 9, …).
	r, ring := handDriven(t, 2)
	vote := func(from types.ReplicaID, round types.View, node types.Digest) *Vote {
		ts := crypto.NewThresholdScheme(ring, from, r.rt.Cfg.NF(), true)
		return &Vote{Round: round, Node: node, Share: ts.Share(node[:])}
	}
	for round := types.View(1); round < 400; round += 4 {
		for k := 0; k < 4; k++ {
			made := types.DigestBytes([]byte(fmt.Sprintf("made-up %d/%d", round, k)))
			r.onVote(1, vote(1, round, made))
		}
	}
	flooded := heldVotes(r)
	if flooded > r.rt.Cfg.N {
		t.Fatalf("one byzantine voter grew the vote table to %d entries", flooded)
	}

	node := types.DigestBytes([]byte("honest node"))
	for _, id := range []types.ReplicaID{0, 2, 3} {
		r.onVote(id, vote(id, 1, node))
	}
	if r.highQC.Round != 1 || r.highQC.Node != node {
		t.Fatalf("honest votes did not form the round-1 QC: high QC round %d", r.highQC.Round)
	}
	if held := heldVotes(r); held >= flooded {
		t.Fatalf("round 1 still in the vote table after its QC formed: %d entries, %d before", held, flooded)
	}
}

// TestForgedNewViewsDoNotMoveRound: one Byzantine replica sends f+1
// NEW-VIEWs whose bodies name other replicas as senders. They must count
// for nobody — not move the replica into the named round — while genuine
// NEW-VIEWs from f+1 distinct replicas still do.
func TestForgedNewViewsDoNotMoveRound(t *testing.T) {
	r, _ := handDriven(t, 0)
	genesis := QC{Round: 0, Node: r.genesisHash}
	newView := func(sender, named types.ReplicaID) network.Envelope {
		return network.Envelope{From: types.ReplicaNode(sender), Msg: &NewView{From: named, Round: 5, High: genesis}}
	}
	for _, named := range []types.ReplicaID{2, 3} {
		env := newView(1, named)
		if r.verifyInbound(&env) {
			t.Errorf("pipeline accepted a NEW-VIEW from replica 1 naming replica %d", named)
		}
		r.dispatch(env)
	}
	if r.Round() != 1 {
		t.Fatalf("forged NEW-VIEWs moved the replica to round %d", r.Round())
	}
	for _, sender := range []types.ReplicaID{1, 2} {
		r.dispatch(newView(sender, sender))
	}
	if r.Round() != 5 {
		t.Fatalf("f+1 genuine NEW-VIEWs left the replica in round %d, want 5", r.Round())
	}
}

// TestFarFutureNewViewsBounded: one replica sends NEW-VIEWs for ever later
// rounds. The NEW-VIEW table keeps at most n+1 of them, the cost
// per message does not grow with the count, and the honest replicas still
// move the pacemaker on.
func TestFarFutureNewViewsBounded(t *testing.T) {
	r, _ := handDriven(t, 2)
	const msgs = 10_000
	took := make([]time.Duration, msgs)
	for i := range took {
		m := &NewView{From: 1, Round: types.View(1000 + i), High: r.highQC}
		start := time.Now()
		r.onNewView(m)
		took[i] = time.Since(start)
	}
	median := func(ds []time.Duration) time.Duration {
		ds = slices.Clone(ds)
		slices.Sort(ds)
		return ds[len(ds)/2]
	}
	// Each thousand is priced at a thousand times its median message, so a
	// GC pause does not decide the comparison.
	if first, last := 1000*median(took[:1000]), 1000*median(took[msgs-1000:]); last > 2*first {
		t.Fatalf("the last 1000 NEW-VIEWs took %v, the first 1000 %v", last, first)
	}
	held := 0
	for i := 0; i < msgs; i++ {
		if r.newViews.Has(1, types.View(1000+i)) {
			held++
		}
	}
	if n := r.rt.Cfg.N; held > n+1 {
		t.Fatalf("NEW-VIEW table holds %d of replica 1's %d far-future rounds, want ≤ n+1 = %d", held, msgs, n+1)
	}
	if r.curRound != 1 {
		t.Fatalf("one replica's NEW-VIEWs moved the round to %d", r.curRound)
	}
	// Replica 2 leads round 2: two more NEW-VIEWs make f+1, it joins, and
	// with its own that is nf: it proposes.
	for _, from := range []types.ReplicaID{0, 3} {
		r.onNewView(&NewView{From: from, Round: 2, High: r.highQC})
	}
	if r.curRound != 2 || !r.newViews.Has(2, 2) {
		t.Fatalf("round %d after f+1 NEW-VIEWs for round 2, want 2 with its own NEW-VIEW sent", r.curRound)
	}
}
