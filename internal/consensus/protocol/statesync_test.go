package protocol

// Snapshot state-transfer unit tests, driven entirely by hand on the
// StateSync state machine: detection from checkpoint votes, the certificate
// trust rule, rejection of corrupt chunks with rotation to the next peer,
// convergence once an honest peer serves the same snapshot, and chunks that
// overtake their offer.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/types"
)

// syncedServer commits seqs 1..k on a fresh runtime preloaded with table and
// stabilizes its checkpoint at k with signed votes from replicas 0..2,
// returning the runtime and those votes (the checkpoint certificate).
func syncedServer(t *testing.T, ring *crypto.KeyRing, cfg Config, k types.SeqNum, table map[string][]byte) (*Runtime, []*Checkpoint) {
	t.Helper()
	rt := NewRuntime(cfg, ring, fakeNet{}, RuntimeOptions{InitialTable: table})
	for seq := types.SeqNum(1); seq <= k; seq++ {
		if evs := rt.Exec.Commit(seq, 0, writeBatch(types.ClientIDBase, uint64(seq), "k", byte(seq)), nil); len(evs) != 1 {
			t.Fatalf("seq %d did not execute", seq)
		}
	}
	state, ledgerHead, ok := rt.Exec.DigestsAt(k)
	if !ok {
		t.Fatalf("no recorded digests at seq %d", k)
	}
	votes := make([]*Checkpoint, 0, 3)
	for from := types.ReplicaID(0); from < 3; from++ {
		cp := &Checkpoint{From: from, Seq: k, State: state, Ledger: ledgerHead}
		cp.Sig = ring.NodeKeys(types.ReplicaNode(from)).Sign(cp.SignedPayload())
		votes = append(votes, cp)
		rt.OnCheckpoint(cp)
	}
	if rt.Exec.StableCheckpointSeq() != k {
		t.Fatalf("server checkpoint not stable at %d", k)
	}
	if rt.stableCertSeq != k || len(rt.stableCert) < cfg.F+1 {
		t.Fatalf("server retained no usable checkpoint certificate (seq %d, %d votes)", rt.stableCertSeq, len(rt.stableCert))
	}
	return rt, votes
}

// serveSnapshot builds the offer + chunk messages an honest server with
// rt's state would send, impersonating replica `as`.
func serveSnapshot(t *testing.T, rt *Runtime, as types.ReplicaID) (*SnapshotOffer, []*SnapshotChunk) {
	t.Helper()
	stable := rt.Exec.StableCheckpointSeq()
	data, ok := rt.encodedSnapshot(stable)
	if !ok {
		t.Fatal("server could not encode its stable snapshot")
	}
	nchunks := (len(data) + snapshotChunkSize - 1) / snapshotChunkSize
	offer := &SnapshotOffer{
		From:   as,
		Seq:    stable,
		Size:   int64(len(data)),
		Chunks: nchunks,
		Cert:   append([]Checkpoint(nil), rt.stableCert...),
	}
	// Deep-copy the signatures so a test mutating the served certificate
	// never corrupts the server's own copy.
	for i := range offer.Cert {
		offer.Cert[i].Sig = append([]byte(nil), offer.Cert[i].Sig...)
	}
	chunks := make([]*SnapshotChunk, nchunks)
	for i := range chunks {
		lo := i * snapshotChunkSize
		hi := min(lo+snapshotChunkSize, len(data))
		chunk := append([]byte(nil), data[lo:hi]...)
		chunks[i] = &SnapshotChunk{From: as, Seq: stable, Index: i, Data: chunk}
	}
	return offer, chunks
}

func TestStateSyncCorruptChunkRotatesAndConverges(t *testing.T) {
	ring := crypto.NewKeyRing(4, []byte("statesync-test"))
	cfg := Config{ID: 0, N: 4, F: 1, Scheme: crypto.SchemeMAC, CheckpointInterval: 2}
	const k = types.SeqNum(8) // > RetainSlack (2×interval): Fetch cannot close this gap
	server, votes := syncedServer(t, ring, cfg, k, nil)

	fcfg := cfg
	fcfg.ID = 3
	fetcher := NewRuntime(fcfg, ring, fakeNet{}, RuntimeOptions{})
	s := fetcher.Sync

	// Detection: f+1 matching votes (below the nf stabilization quorum)
	// establish the trusted target; the gap exceeds RetainSlack, so the
	// fetcher is Behind and an attempt begins on the next tick.
	for _, cp := range votes[:2] {
		fetcher.OnCheckpoint(cp)
	}
	if s.target != k {
		t.Fatalf("detection target = %d, want %d", s.target, k)
	}
	if !s.Behind() {
		t.Fatal("fetcher should be behind the retained-record horizon")
	}
	now := time.Now()
	s.Tick(now)
	if !s.active {
		t.Fatal("tick should have started a transfer attempt")
	}
	firstServer := s.server

	// Attempt 1: the serving peer is Byzantine — valid offer and certificate,
	// but a flipped byte in the snapshot bytes. Reassembly must fail the
	// digest trust rule and abandon the attempt (one retry recorded).
	offer, chunks := serveSnapshot(t, server, firstServer)
	s.OnOffer(offer)
	if s.offer == nil {
		t.Fatal("valid offer rejected")
	}
	chunks[0].Data[0] ^= 0x40
	for _, c := range chunks {
		s.OnChunk(c)
	}
	if s.active {
		t.Fatal("corrupt chunk must abandon the attempt")
	}
	if got := fetcher.Metrics.StateSyncRetries.Load(); got != 1 {
		t.Fatalf("StateSyncRetries = %d, want 1", got)
	}
	if fetcher.Exec.LastExecuted() != 0 {
		t.Fatal("corrupt snapshot must not install")
	}

	// The immediate re-tick is inside the backoff pause; past it, the
	// fetcher rotates to a different peer.
	s.Tick(now)
	if s.active {
		t.Fatal("retry must respect the backoff pause")
	}
	s.Tick(now.Add(2 * stateSyncMaxBackoff))
	if !s.active {
		t.Fatal("backoff elapsed: a new attempt should have started")
	}
	if s.server == firstServer {
		t.Fatalf("fetcher did not rotate peers (still %d)", s.server)
	}

	// Attempt 2: an honest peer serves the same snapshot; the fetcher
	// verifies and installs it and the executor jumps to the checkpoint.
	offer, chunks = serveSnapshot(t, server, s.server)
	s.OnOffer(offer)
	for _, c := range chunks {
		s.OnChunk(c)
	}
	if s.active {
		t.Fatal("transfer should have completed")
	}
	if got := fetcher.Exec.LastExecuted(); got != k {
		t.Fatalf("fetcher executed head = %d, want %d", got, k)
	}
	if got := fetcher.Metrics.SnapshotsInstalled.Load(); got != 1 {
		t.Fatalf("SnapshotsInstalled = %d, want 1", got)
	}
	wantState, wantLedger, _ := server.Exec.DigestsAt(k)
	if fetcher.Exec.StateDigest() != wantState {
		t.Fatal("installed state digest does not match the certified digest")
	}
	if head := fetcher.Exec.Chain().Head(); head.Hash() != wantLedger {
		t.Fatal("installed ledger head does not match the certified digest")
	}
}

func TestStateSyncRejectsBadCertificates(t *testing.T) {
	ring := crypto.NewKeyRing(4, []byte("statesync-cert-test"))
	cfg := Config{ID: 0, N: 4, F: 1, Scheme: crypto.SchemeMAC, CheckpointInterval: 2}
	const k = types.SeqNum(8)
	server, votes := syncedServer(t, ring, cfg, k, nil)

	fresh := func() (*Runtime, *StateSync) {
		fcfg := cfg
		fcfg.ID = 3
		rt := NewRuntime(fcfg, ring, fakeNet{}, RuntimeOptions{})
		for _, cp := range votes[:2] {
			rt.OnCheckpoint(cp)
		}
		rt.Sync.Tick(time.Now())
		if !rt.Sync.active {
			t.Fatal("attempt did not start")
		}
		return rt, rt.Sync
	}

	corrupt := []struct {
		name string
		mut  func(*SnapshotOffer)
	}{
		{"forged signature", func(o *SnapshotOffer) { o.Cert[0].Sig[0] ^= 1 }},
		{"duplicate signer", func(o *SnapshotOffer) { o.Cert[1] = o.Cert[0] }},
		{"digest disagreement", func(o *SnapshotOffer) { o.Cert[1].State[0] ^= 1 }},
		{"wrong seq", func(o *SnapshotOffer) { o.Cert[0].Seq++ }},
		{"too few signers", func(o *SnapshotOffer) { o.Cert = o.Cert[:1] }},
	}
	for _, tc := range corrupt {
		t.Run(tc.name, func(t *testing.T) {
			_, s := fresh()
			offer, _ := serveSnapshot(t, server, s.server)
			tc.mut(offer)
			s.OnOffer(offer)
			if s.offer != nil {
				t.Fatal("offer with an invalid certificate accepted")
			}
			if s.active {
				t.Fatal("invalid certificate must abandon the attempt")
			}
		})
	}
}

// TestStateSyncChunksBeforeOffer delivers every chunk of a multi-chunk
// snapshot, in reverse, before its offer — the order a delaying transport can
// produce. The chunks must be parked and replayed once the offer is accepted,
// so the install completes in the first attempt instead of timing out into a
// retry. A chunk from a replica other than the current server is not parked.
func TestStateSyncChunksBeforeOffer(t *testing.T) {
	ring := crypto.NewKeyRing(4, []byte("statesync-early-test"))
	cfg := Config{ID: 0, N: 4, F: 1, Scheme: crypto.SchemeMAC, CheckpointInterval: 2}
	const k = types.SeqNum(8)
	table := make(map[string][]byte)
	for i := 0; i < 3; i++ {
		table[fmt.Sprintf("big%d", i)] = bytes.Repeat([]byte{byte(i + 1)}, snapshotChunkSize*2/3)
	}
	server, votes := syncedServer(t, ring, cfg, k, table)

	fcfg := cfg
	fcfg.ID = 3
	fetcher := NewRuntime(fcfg, ring, fakeNet{}, RuntimeOptions{})
	s := fetcher.Sync
	for _, cp := range votes[:2] {
		fetcher.OnCheckpoint(cp)
	}
	s.Tick(time.Now())
	if !s.active {
		t.Fatal("tick should have started a transfer attempt")
	}

	offer, chunks := serveSnapshot(t, server, s.server)
	if len(chunks) < 2 {
		t.Fatalf("snapshot fits in %d chunk(s); the test needs several", len(chunks))
	}
	stray := *chunks[0]
	stray.From = (s.server + 1) % types.ReplicaID(cfg.N)
	stray.Data = []byte("not from the server")
	s.OnChunk(&stray)
	for i := len(chunks) - 1; i >= 0; i-- {
		s.OnChunk(chunks[i])
	}
	s.OnOffer(offer)

	if s.active {
		t.Fatal("transfer should have completed once the offer arrived")
	}
	if got := fetcher.Metrics.StateSyncRetries.Load(); got != 0 {
		t.Fatalf("StateSyncRetries = %d, want 0", got)
	}
	if got := fetcher.Metrics.SnapshotsInstalled.Load(); got != 1 {
		t.Fatalf("SnapshotsInstalled = %d, want 1", got)
	}
	if got := fetcher.Exec.LastExecuted(); got != k {
		t.Fatalf("fetcher executed head = %d, want %d", got, k)
	}
	wantState, _, _ := server.Exec.DigestsAt(k)
	if fetcher.Exec.StateDigest() != wantState {
		t.Fatal("installed state digest does not match the certified digest")
	}
}
