package poe

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

// cluster is a test fixture: n PoE replicas on an in-process network.
type cluster struct {
	t        *testing.T
	net      *network.FaultNet // crashes go through its fabric
	ring     *crypto.KeyRing
	replicas []*Replica
	cfgs     []protocol.Config
	cancel   context.CancelFunc
}

func startCluster(t *testing.T, n, f int, scheme crypto.Scheme, mutate func(id types.ReplicaID, opts *Options)) *cluster {
	t.Helper()
	base := network.NewChanNet()
	net := network.NewFaultNet(base)
	ring := crypto.NewKeyRing(n, []byte("test-seed"))
	ctx, cancel := context.WithCancel(context.Background())
	c := &cluster{t: t, net: net, ring: ring, cancel: cancel}
	for i := 0; i < n; i++ {
		cfg := protocol.Config{
			ID: types.ReplicaID(i), N: n, F: f, Scheme: scheme,
			BatchSize: 1, BatchLinger: time.Millisecond,
			Window: 32, CheckpointInterval: 8,
			ViewTimeout: 200 * time.Millisecond,
		}
		opts := Options{}
		if mutate != nil {
			mutate(cfg.ID, &opts)
		}
		tr := net.Join(types.ReplicaNode(cfg.ID))
		r, err := New(cfg, ring, tr, opts)
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

func (c *cluster) newClient(i int, quorum int) *client.Client {
	c.t.Helper()
	cfg := c.cfgs[0]
	id := types.ClientID(types.ClientIDBase) + types.ClientID(i)
	cl, err := client.New(client.Config{
		ID: id, N: cfg.N, F: cfg.F, Scheme: cfg.Scheme,
		Rule:    client.Quorum(quorum),
		Timeout: 250 * time.Millisecond,
	}, c.ring, c.net.Join(types.ClientNode(id)))
	if err != nil {
		c.t.Fatalf("client: %v", err)
	}
	cl.Start(context.Background())
	return cl
}

// awaitConvergence waits until all live replicas report the same last
// executed sequence number ≥ want and equal state digests.
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

func writeOp(key string, val string) []types.Op {
	return []types.Op{{Kind: types.OpWrite, Key: key, Value: []byte(val)}}
}

func testNormalCase(t *testing.T, scheme crypto.Scheme) {
	c := startCluster(t, 4, 1, scheme, nil)
	cl := c.newClient(0, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const txns = 20
	for i := 0; i < txns; i++ {
		if _, err := cl.Submit(ctx, writeOp(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	c.awaitConvergence(txns, nil, 5*time.Second)
	// Every replica's ledger must verify and agree on the head.
	var heads []types.Digest
	for _, r := range c.replicas {
		chain := r.Runtime().Exec.Chain()
		if seq, ok := chain.Verify(); !ok {
			t.Fatalf("broken ledger at seq %d", seq)
		}
		head := chain.Head()
		heads = append(heads, head.Hash())
	}
	for _, h := range heads[1:] {
		if h != heads[0] {
			t.Fatalf("divergent ledger heads")
		}
	}
	// The written values must be visible.
	for _, r := range c.replicas {
		v, ok := r.Runtime().Exec.Store().Get("k19")
		if !ok || string(v) != "v19" {
			t.Fatalf("missing write on replica: %q %v", v, ok)
		}
	}
}

func TestNormalCaseTS(t *testing.T)  { testNormalCase(t, crypto.SchemeTS) }
func TestNormalCaseMAC(t *testing.T) { testNormalCase(t, crypto.SchemeMAC) }
func TestNormalCaseED(t *testing.T)  { testNormalCase(t, crypto.SchemeED) }
func TestNormalCaseNone(t *testing.T) {
	testNormalCase(t, crypto.SchemeNone)
}

func TestBackupFailure(t *testing.T) {
	c := startCluster(t, 4, 1, crypto.SchemeTS, nil)
	// Crash a backup (not the view-0 primary, replica 0).
	c.net.Crash(types.ReplicaNode(3))
	cl := c.newClient(0, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 10; i++ {
		if _, err := cl.Submit(ctx, writeOp(fmt.Sprintf("k%d", i), "v")); err != nil {
			t.Fatalf("submit %d under backup failure: %v", i, err)
		}
	}
	c.awaitConvergence(10, map[types.ReplicaID]bool{3: true}, 5*time.Second)
}

func TestPrimaryFailureViewChange(t *testing.T) {
	c := startCluster(t, 4, 1, crypto.SchemeTS, nil)
	cl := c.newClient(0, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	// Commit some work under the initial primary.
	for i := 0; i < 5; i++ {
		if _, err := cl.Submit(ctx, writeOp(fmt.Sprintf("pre%d", i), "v")); err != nil {
			t.Fatalf("submit pre-%d: %v", i, err)
		}
	}
	// Kill the primary of view 0 (replica 0) and keep submitting: clients
	// time out, broadcast, backups detect the failure and elect replica 1.
	c.net.Crash(types.ReplicaNode(0))
	for i := 0; i < 5; i++ {
		if _, err := cl.Submit(ctx, writeOp(fmt.Sprintf("post%d", i), "v")); err != nil {
			t.Fatalf("submit post-%d: %v", i, err)
		}
	}
	skip := map[types.ReplicaID]bool{0: true}
	c.awaitConvergence(10, skip, 10*time.Second)
	for i := 1; i < 4; i++ {
		if v := c.replicas[i].View(); v == 0 {
			t.Fatalf("replica %d still in view 0 after primary crash", i)
		}
		if got := c.replicas[i].Runtime().Metrics.ViewChanges.Load(); got == 0 {
			t.Fatalf("replica %d recorded no view change", i)
		}
	}
}

// equivocator sends conflicting batches to odd and even replicas:
// Example 3(1). The variant comes from protocol.EquivocateBatch, so its
// digest genuinely differs while every client signature stays valid — an
// equivocation honest verifiers accept rather than drop.
var equivocator = &protocol.AdversarySpec{EquivocateTo: map[types.ReplicaID]bool{1: true, 3: true}}

func TestSafetyUnderEquivocation(t *testing.T) {
	// Replica 0 (primary of view 0) equivocates. With n=4, no two non-faulty
	// replicas may execute different batches at the same sequence number
	// (Proposition 2); progress resumes after a view change.
	c := startCluster(t, 4, 1, crypto.SchemeTS, func(id types.ReplicaID, opts *Options) {
		if id == 0 {
			opts.Adversary = equivocator
		}
	})
	cl := c.newClient(0, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		if _, err := cl.Submit(ctx, writeOp(fmt.Sprintf("k%d", i), "v")); err != nil {
			t.Fatalf("submit %d under equivocation: %v", i, err)
		}
	}
	// Compare executed batch digests pairwise among replicas 1..3 for every
	// sequence number both executed.
	recs := make([]map[types.SeqNum]types.Digest, 4)
	for i := 1; i < 4; i++ {
		recs[i] = make(map[types.SeqNum]types.Digest)
		chain := c.replicas[i].Runtime().Exec.Chain()
		for seq := types.SeqNum(1); seq <= chain.Head().Seq; seq++ {
			if b, ok := chain.Get(seq); ok {
				recs[i][seq] = b.Digest
			}
		}
	}
	for i := 1; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			for seq, d := range recs[i] {
				if d2, ok := recs[j][seq]; ok && d != d2 {
					t.Fatalf("divergence at seq %d between replicas %d and %d", seq, i, j)
				}
			}
		}
	}
}

// darkener keeps replica 3 in the dark: Example 3(2) of the paper. The
// remaining nf replicas still commit; the dark replica recovers via state
// transfer when it sees certificates it has no proposals for.
var darkener = &protocol.AdversarySpec{SilenceTo: map[types.ReplicaID]bool{3: true}}

func TestDarkReplicaCatchesUp(t *testing.T) {
	c := startCluster(t, 4, 1, crypto.SchemeTS, func(id types.ReplicaID, opts *Options) {
		if id == 0 {
			opts.Adversary = darkener
		}
	})
	cl := c.newClient(0, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i := 0; i < 10; i++ {
		if _, err := cl.Submit(ctx, writeOp(fmt.Sprintf("k%d", i), "v")); err != nil {
			t.Fatalf("submit %d with dark replica: %v", i, err)
		}
	}
	// The dark replica must converge via Fetch-based state transfer.
	c.awaitConvergence(10, nil, 10*time.Second)
}

// silencer suppresses all CERTIFY broadcasts: replicas support but never
// view-commit, so the failure detector must fire and replace the primary.
var silencer = &protocol.AdversarySpec{SilenceCertificates: true}

func TestSilencedCertifyTriggersViewChange(t *testing.T) {
	c := startCluster(t, 4, 1, crypto.SchemeTS, func(id types.ReplicaID, opts *Options) {
		if id == 0 {
			opts.Adversary = silencer
		}
	})
	cl := c.newClient(0, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		if _, err := cl.Submit(ctx, writeOp(fmt.Sprintf("k%d", i), "v")); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	// nf replicas carried the submits; the one outside that quorum may still
	// be waiting out a lease promise or for the NV-PROPOSE to reach it.
	deadline := time.Now().Add(2 * time.Second)
	for i := 1; i < 4; i++ {
		for c.replicas[i].View() == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("replica %d still in view 0 under a silent-certify primary", i)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func TestCheckpointsTruncateUndoLog(t *testing.T) {
	c := startCluster(t, 4, 1, crypto.SchemeTS, nil)
	cl := c.newClient(0, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// CheckpointInterval is 8 in the fixture; push well past it.
	for i := 0; i < 30; i++ {
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
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no stable checkpoint formed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i, r := range c.replicas {
		if undo := r.Runtime().Exec.Store().UndoLen(); undo > 30 {
			t.Fatalf("replica %d undo log not truncated: %d entries", i, undo)
		}
	}
}
