package sbft

import (
	"testing"
	"time"

	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/types"
)

// TestEarlySignShareStashedBeforePrePrepare drives the collector by hand
// with the message order the verify pipeline actually produces under load:
// small SIGN-SHAREs dispatch ahead of the large pre-prepare they answer.
// Before the stash port (from PoE's onSupport), the collector dropped those
// early shares — and since shares are sent exactly once, the all-n fast path
// could never complete for the slot and every reordered slot paid the
// collector-timeout slow path. The stash must hold the early shares, validate
// them once the pre-prepare fixes the digest, and still commit on the fast
// path with no extra share traffic.
func TestEarlySignShareStashedBeforePrePrepare(t *testing.T) {
	net := network.NewChanNet()
	defer net.Close()
	ring := crypto.NewKeyRing(4, []byte("stash-test"))
	cfg := protocol.Config{
		ID: 0, N: 4, F: 1, Scheme: crypto.SchemeTS,
		BatchSize: 1, BatchLinger: time.Millisecond,
		Window: 8, CheckpointInterval: 8, ViewTimeout: time.Second,
	}
	r, err := New(cfg, ring, net.Join(types.ReplicaNode(0)), protocol.Options{})
	if err != nil {
		t.Fatal(err)
	}

	m := &PrePrepare{View: 0, Seq: 1, Batch: types.Batch{}}
	m.Auth = r.rt.AuthBroadcast(m.SignedPayload())
	digest := types.ProposalDigest(1, 0, m.Batch.Digest())
	shareFrom := func(id types.ReplicaID, msg []byte) crypto.Share {
		return crypto.NewThresholdScheme(ring, id, cfg.NF(), true).Share(msg)
	}

	// All three backup shares arrive before the pre-prepare.
	for id := types.ReplicaID(1); id <= 3; id++ {
		r.onSignShare(id, &SignShare{View: 0, Seq: 1, Share: shareFrom(id, digest[:])})
	}
	s := r.slot(1)
	if s.haveBatch || s.shares.Len() != 3 {
		t.Fatalf("stash state: haveBatch=%v shares=%d, want 3 stashed pre-proposal shares",
			s.haveBatch, s.shares.Len())
	}
	if r.rt.Exec.LastExecuted() != 0 {
		t.Fatal("slot executed before the pre-prepare arrived")
	}

	// The pre-prepare fixes the digest: the stash validates, the collector's
	// own share completes all n = 4, and the fast path commits — no
	// collector timeout, no second share round.
	r.handlePrePrepare(0, m)
	if !s.proofSent {
		t.Fatal("fast path did not complete from stashed shares")
	}
	if s.slowPath {
		t.Fatal("reordered delivery forced the slow path")
	}
	if r.rt.Exec.LastExecuted() != 1 {
		t.Fatalf("slot did not commit: last executed %d", r.rt.Exec.LastExecuted())
	}

	// A mismatched early share (wrong digest — Byzantine or from a stale
	// view) must be dropped when the stash validates, not poison the slot.
	m2 := &PrePrepare{View: 0, Seq: 2, Batch: types.Batch{}}
	m2.Auth = r.rt.AuthBroadcast(m2.SignedPayload())
	digest2 := types.ProposalDigest(2, 0, m2.Batch.Digest())
	r.onSignShare(1, &SignShare{View: 0, Seq: 2, Share: shareFrom(1, []byte("wrong"))})
	r.handlePrePrepare(0, m2)
	s2 := r.slot(2)
	if s2.shares.Has(1) {
		t.Fatal("mismatched stashed share survived digest validation")
	}
	// The honest shares arrive after the pre-prepare; replica 1 resends a
	// correct share (its bogus one was discarded, not counted as a dup) and
	// the fast path still completes.
	for id := types.ReplicaID(1); id <= 3; id++ {
		r.onSignShare(id, &SignShare{View: 0, Seq: 2, Share: shareFrom(id, digest2[:])})
	}
	if !s2.proofSent || r.rt.Exec.LastExecuted() != 2 {
		t.Fatalf("slot 2 did not commit after stash cleanup: proofSent=%v lastExec=%d",
			s2.proofSent, r.rt.Exec.LastExecuted())
	}
}
