package poe

import (
	"testing"
	"time"

	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/types"
)

// TestByzantineSupportShareVerifiedOncePerSlot drives the primary's support
// path by hand: a Byzantine share arrives first, then the honest shares. The
// slot must still commit, the Byzantine share must never occupy it, and —
// the regression this pins — no share may be Ed25519-verified more than once
// for the slot. Before the parallel-authentication refactor a failed combine
// re-verified every retained share on each subsequent support, letting one
// Byzantine replica inflate the primary's crypto cost to O(n²) per slot.
func TestByzantineSupportShareVerifiedOncePerSlot(t *testing.T) {
	net := network.NewChanNet()
	defer net.Close()
	ring := crypto.NewKeyRing(4, []byte("support-test"))
	cfg := protocol.Config{
		ID: 0, N: 4, F: 1, Scheme: crypto.SchemeTS,
		BatchSize: 1, BatchLinger: time.Millisecond,
		Window: 8, CheckpointInterval: 8, ViewTimeout: time.Second,
	}
	r, err := New(cfg, ring, net.Join(types.ReplicaNode(0)), Options{})
	if err != nil {
		t.Fatal(err)
	}

	// The primary proposes an (empty) batch; it contributes its own share.
	m := &Propose{View: 0, Seq: 1, Batch: types.Batch{}}
	m.Auth = r.rt.AuthBroadcast(m.SignedPayload())
	r.handlePropose(0, m)

	digest := types.ProposalDigest(1, 0, m.Batch.Digest())
	shareFrom := func(id types.ReplicaID, msg []byte) crypto.Share {
		return crypto.NewThresholdScheme(ring, id, cfg.NF(), true).Share(msg)
	}

	base := crypto.EdVerifyCount()
	// Byzantine replica 1: a well-formed share over the wrong digest.
	r.onSupport(types.ReplicaNode(1), &Support{View: 0, Seq: 1, Share: shareFrom(1, []byte("wrong"))})
	if r.slot(1).shares.Has(1) {
		t.Fatal("byzantine share occupied the slot")
	}
	// Honest replicas 2 and 3 push the slot over the nf = 3 threshold.
	r.onSupport(types.ReplicaNode(2), &Support{View: 0, Seq: 1, Share: shareFrom(2, digest[:])})
	r.onSupport(types.ReplicaNode(3), &Support{View: 0, Seq: 1, Share: shareFrom(3, digest[:])})

	if r.rt.Exec.LastExecuted() != 1 {
		t.Fatalf("slot did not commit: last executed %d", r.rt.Exec.LastExecuted())
	}
	// Raw verification budget for the slot: the Byzantine share (1, fails),
	// the two honest remote shares at insertion (2), and the primary's own
	// share inside Combine (1). The honest remote shares are memo hits in
	// Combine — never re-verified.
	if d := crypto.EdVerifyCount() - base; d != 4 {
		t.Fatalf("slot cost %d raw Ed25519 verifications, want 4 (one per share)", d)
	}
}
