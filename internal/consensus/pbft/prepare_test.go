package pbft

import (
	"testing"
	"time"

	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/types"
)

// TestByzantinePrepareNeverOccupiesSlot drives the primary by hand: after the
// pre-prepare fixes the digest, a Byzantine replica sends a well-formed
// PREPARE share over the wrong digest. It must be refused at once rather
// than held until the threshold, and the slot must still prepare and commit
// on the three honest shares.
func TestByzantinePrepareNeverOccupiesSlot(t *testing.T) {
	net := network.NewChanNet()
	defer net.Close()
	ring := crypto.NewKeyRing(4, []byte("prepare-test"))
	cfg := protocol.Config{
		ID: 0, N: 4, F: 1, Scheme: crypto.SchemeTS,
		BatchSize: 1, BatchLinger: time.Millisecond,
		Window: 8, CheckpointInterval: 8, ViewTimeout: time.Second,
	}
	r, err := New(cfg, ring, net.Join(types.ReplicaNode(0)), protocol.Options{})
	if err != nil {
		t.Fatal(err)
	}
	shareFrom := func(id types.ReplicaID, msg []byte) crypto.Share {
		return crypto.NewThresholdScheme(ring, id, cfg.NF(), true).Share(msg)
	}

	// The primary pre-prepares and counts its own PREPARE.
	m := &PrePrepare{View: 0, Seq: 1, Batch: types.Batch{}}
	m.Auth = r.rt.AuthBroadcast(m.SignedPayload())
	r.handlePrePrepare(0, m)
	digest := types.ProposalDigest(1, 0, m.Batch.Digest())
	cd := commitDigest(digest)
	s := r.slot(1)

	r.onPrepare(1, &Prepare{View: 0, Seq: 1, Share: shareFrom(1, []byte("wrong"))})
	if s.prepares.Has(1) || s.prepares.Len() != 1 {
		t.Fatalf("byzantine prepare occupied the slot: %d prepares held", s.prepares.Len())
	}
	for id := types.ReplicaID(2); id <= 3; id++ {
		r.onPrepare(id, &Prepare{View: 0, Seq: 1, Share: shareFrom(id, digest[:])})
	}
	if s.preparedCert == nil {
		t.Fatal("slot did not prepare on three honest shares")
	}
	for id := types.ReplicaID(2); id <= 3; id++ {
		r.onCommit(id, &Commit{View: 0, Seq: 1, Share: shareFrom(id, cd[:])})
	}
	if r.rt.Exec.LastExecuted() != 1 {
		t.Fatalf("slot did not commit: last executed %d", r.rt.Exec.LastExecuted())
	}
}
