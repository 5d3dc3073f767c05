package protocol

import (
	"time"

	"github.com/poexec/poe/internal/storage"
	"github.com/poexec/poe/internal/store"
	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/wire"
)

// Snapshot state transfer: the recovery layer below the record-based Fetch.
//
// Fetch can only close gaps whose records peers still retain — RetainSlack
// sequence numbers below the stable checkpoint. A replica that fell further
// behind (long partition, crash with a wiped data directory) would stall
// forever: the records just above its head are pruned cluster-wide. The
// paper's checkpoint sub-protocol (§II-D) already produces everything needed
// to recover from that: periodic signed digests of the full state. StateSync
// turns them into a transfer protocol:
//
//  1. Detection. Checkpoint votes flow through Runtime.OnCheckpoint into
//     OnVote. When f+1 distinct replicas vote matching digests for a
//     sequence number, at least one honest replica vouches for that state;
//     if that trusted checkpoint is more than RetainSlack ahead of the local
//     executed head, Fetch cannot help and snapshot transfer starts.
//  2. Transfer. The replica asks one peer (round-robin) for its stable
//     snapshot. The server answers with a SnapshotOffer — size, chunk
//     count, and the checkpoint certificate (the signed votes that
//     stabilized the checkpoint) — followed by size-capped SnapshotChunks
//     carrying the snapshot's canonical wire encoding.
//  3. Verification. The fetcher accepts the offer only after verifying the
//     certificate itself (f+1 distinct, signature-valid, digest-matching
//     votes), and installs the reassembled snapshot only if its state
//     digest and ledger-head hash equal the certified digests. The chunks
//     are untrusted bytes until that check passes.
//  4. Install + bridge. The snapshot is persisted through internal/storage
//     as if locally taken, the executor jumps to it, and the ordinary
//     record fetch bridges the remaining distance to the live head.
//
// A per-request deadline, peer rotation, and exponential backoff keep a
// slow or Byzantine server from wedging recovery: any timeout, malformed
// offer, or corrupt chunk abandons the attempt and the next peer is asked.
//
// StateSync is owned by the replica event loop: protocols route
// SnapshotOffer/SnapshotChunk messages to it and call Tick from their
// timers. No internal locking is needed.

const (
	// snapshotChunkSize caps one SnapshotChunk's payload.
	snapshotChunkSize = 256 << 10
	// maxSnapshotBytes caps the total transfer a fetcher will accept; a
	// Byzantine offer cannot bait an arbitrarily large allocation.
	maxSnapshotBytes = 256 << 20
	// stateSyncBackoff/stateSyncMaxBackoff bound the retry backoff between
	// failed attempts.
	stateSyncBackoff    = 25 * time.Millisecond
	stateSyncMaxBackoff = time.Second
)

// StateSync drives snapshot state transfer for one replica.
type StateSync struct {
	rt *Runtime

	// target is the highest checkpoint above the local executed head with
	// f+1 matching votes in Runtime.cpVotes, the detection evidence.
	target types.SeqNum

	// One in-flight attempt.
	active   bool
	server   types.ReplicaID
	deadline time.Time
	nextTry  time.Time
	backoff  time.Duration

	// Startup probing. Vote-driven detection assumes checkpoint votes keep
	// flowing, but a replica that (re)starts behind an IDLE cluster never
	// hears one — worse, it may itself be required for the quorum that would
	// commit the next batch and emit votes, a rejoin deadlock. Probe() marks
	// the sync exploratory: attempts run exactly as for a vote-detected lag,
	// and the SERVER decides whether a snapshot is warranted (it stays
	// silent when the prober is within the fetch horizon, see
	// HandleSnapshotRequest). A probe is bounded: it ends on any execution
	// progress or after probeTries unanswered attempts.
	probing    bool
	probeMark  types.SeqNum
	probeTries int

	offer      *SnapshotOffer
	certState  types.Digest
	certLedger types.Digest
	chunks     [][]byte
	got        int
	bytes      int64

	// early parks chunks from the current server that overtook its offer (a
	// delaying or reordering transport need not keep one sender's messages
	// in order); OnOffer replays them once it accepts the offer. They are
	// capped at maxSnapshotBytes and at the most chunks a valid offer can
	// announce.
	early      []*SnapshotChunk
	earlyBytes int64

	// AfterInstall, set by the protocol, runs on the event loop after a
	// snapshot installs, with the executions the install unblocked. The
	// protocol uses it to discard per-slot state the snapshot superseded,
	// resume its sequencing past the snapshot, and kick the bridging fetch.
	AfterInstall func(snap *storage.Snapshot, events []Executed)
}

func newStateSync(rt *Runtime) *StateSync {
	return &StateSync{
		rt:      rt,
		backoff: stateSyncBackoff,
	}
}

// OnVote takes one verified checkpoint vote for seq with digest d, already
// recorded in Runtime.cpVotes, as detection evidence. Runtime.OnCheckpoint
// calls it for every signature-valid vote, including ones below the voter's
// own stable checkpoint short-circuit.
func (s *StateSync) OnVote(seq types.SeqNum, d types.Digest) {
	if seq > s.rt.Exec.LastExecuted() && seq > s.target && s.rt.cpVotes.Count(seq, d) >= s.rt.Cfg.FPlus1() {
		s.target = seq
	}
}

// Behind reports whether the trusted checkpoint has outrun Fetch's retained
// record horizon, i.e. snapshot transfer is the only way forward.
func (s *StateSync) Behind() bool {
	return s.target > s.rt.Exec.LastExecuted()+s.rt.Exec.RetainSlack
}

// Probe starts a bounded exploratory sync: a replica that (re)starts from
// durable state asks peers outright whether it needs a snapshot instead of
// waiting for checkpoint votes that an idle cluster will never send.
// Idempotent while a probe is running.
func (s *StateSync) Probe() {
	if s.rt.Cfg.N <= 1 || s.probing {
		return
	}
	s.probing = true
	s.probeMark = s.rt.Exec.LastExecuted()
	s.probeTries = 2 * (s.rt.Cfg.N - 1)
	s.nextTry = time.Time{}
}

// Tick drives deadlines and (re)starts attempts; protocols call it from
// their timer handler.
func (s *StateSync) Tick(now time.Time) {
	if s.rt.Cfg.N <= 1 {
		return
	}
	if s.probing && s.rt.Exec.LastExecuted() > s.probeMark {
		// Progress by any means — fetch, snapshot install, or normal commits
		// — answers the probe's question.
		s.probing = false
	}
	if s.active {
		if now.After(s.deadline) {
			s.fail(now)
		}
		return
	}
	if !s.Behind() && !s.probing {
		return
	}
	if now.Before(s.nextTry) {
		return
	}
	s.begin(now)
}

func (s *StateSync) begin(now time.Time) {
	peer, ok := s.rt.NextPeer()
	if !ok {
		return
	}
	s.active = true
	s.server = peer
	s.offer = nil
	s.chunks = nil
	s.got = 0
	s.bytes = 0
	s.early, s.earlyBytes = nil, 0
	s.deadline = now.Add(s.requestTimeout())
	s.rt.SendReplica(peer, &SnapshotRequest{From: s.rt.Cfg.ID, Have: s.rt.Exec.LastExecuted()})
}

// fail abandons the in-flight attempt: rotate to the next peer after an
// exponentially backed-off pause.
func (s *StateSync) fail(now time.Time) {
	s.active = false
	s.offer = nil
	s.chunks = nil
	s.early, s.earlyBytes = nil, 0
	s.rt.Metrics.StateSyncRetries.Add(1)
	s.nextTry = now.Add(s.backoff)
	s.backoff *= 2
	if s.backoff > stateSyncMaxBackoff {
		s.backoff = stateSyncMaxBackoff
	}
	if s.probing {
		// An unanswered probe usually means the server judged us within the
		// fetch horizon and stayed silent; a few rotations cover dead peers
		// too, then vote-driven detection is the steady-state answer.
		s.probeTries--
		if s.probeTries <= 0 {
			s.probing = false
		}
	}
}

func (s *StateSync) requestTimeout() time.Duration {
	t := 2 * s.rt.Cfg.ViewTimeout
	if t < 200*time.Millisecond {
		t = 200 * time.Millisecond
	}
	return t
}

// OnOffer validates a snapshot offer from the current server: plausible
// size and chunk arithmetic, and a checkpoint certificate with f+1 distinct
// signature-valid votes agreeing on one digest pair for the offered
// sequence number. Anything else abandons the attempt.
func (s *StateSync) OnOffer(m *SnapshotOffer) {
	if !s.active || m.From != s.server || s.offer != nil {
		return
	}
	now := time.Now()
	if m.Seq <= s.rt.Exec.LastExecuted() ||
		m.Size < 1 || m.Size > maxSnapshotBytes ||
		m.Chunks != int((m.Size+snapshotChunkSize-1)/snapshotChunkSize) {
		s.fail(now)
		return
	}
	state, ledgerHead, ok := s.verifyCert(m.Cert, m.Seq)
	if !ok {
		s.fail(now)
		return
	}
	s.offer = m
	s.certState = state
	s.certLedger = ledgerHead
	s.chunks = make([][]byte, m.Chunks)
	s.deadline = now.Add(s.requestTimeout())
	early := s.early
	s.early, s.earlyBytes = nil, 0
	for _, c := range early {
		s.OnChunk(c)
	}
}

// verifyCert checks a checkpoint certificate: every vote is for seq, all
// votes agree on one (state, ledger) digest pair, signatures verify, and at
// least f+1 distinct replicas signed — so at least one honest replica
// vouches for the digests.
func (s *StateSync) verifyCert(cert []Checkpoint, seq types.SeqNum) (state, ledgerHead types.Digest, ok bool) {
	signers := make(map[types.ReplicaID]bool, len(cert))
	for i := range cert {
		v := &cert[i]
		if v.Seq != seq || signers[v.From] {
			return state, ledgerHead, false
		}
		if i == 0 {
			state, ledgerHead = v.State, v.Ledger
		} else if v.State != state || v.Ledger != ledgerHead {
			return state, ledgerHead, false
		}
		if !s.rt.Keys.VerifyFrom(types.ReplicaNode(v.From), v.SignedPayload(), v.Sig) {
			return state, ledgerHead, false
		}
		signers[v.From] = true
	}
	return state, ledgerHead, len(signers) >= s.rt.Cfg.F+1
}

// OnChunk accepts one chunk of the offered snapshot; the last missing chunk
// triggers reassembly, verification against the certificate digests, and
// install. A chunk that arrives before the offer is parked for OnOffer.
func (s *StateSync) OnChunk(m *SnapshotChunk) {
	if !s.active || m.From != s.server {
		return
	}
	if s.offer == nil {
		if len(s.early) < maxSnapshotBytes/snapshotChunkSize && s.earlyBytes+int64(len(m.Data)) <= maxSnapshotBytes {
			s.early = append(s.early, m)
			s.earlyBytes += int64(len(m.Data))
		}
		return
	}
	if m.Seq != s.offer.Seq {
		return
	}
	now := time.Now()
	if m.Index < 0 || m.Index >= len(s.chunks) || s.chunks[m.Index] != nil || len(m.Data) == 0 {
		s.fail(now)
		return
	}
	s.bytes += int64(len(m.Data))
	if s.bytes > s.offer.Size {
		s.fail(now)
		return
	}
	s.chunks[m.Index] = m.Data
	s.got++
	s.rt.Metrics.SnapshotChunksRecv.Add(1)
	s.rt.Metrics.SnapshotBytesRecv.Add(int64(len(m.Data)))
	s.deadline = now.Add(s.requestTimeout())
	if s.got < len(s.chunks) {
		return
	}
	s.finish(now)
}

// finish reassembles, decodes, verifies, and installs the snapshot. Trust
// rule: the decoded snapshot is installed only if its recomputed state
// digest and its head block's hash equal the certificate's digests — the
// chunks themselves prove nothing.
func (s *StateSync) finish(now time.Time) {
	if s.bytes != s.offer.Size {
		s.fail(now)
		return
	}
	buf := make([]byte, 0, s.offer.Size)
	for _, c := range s.chunks {
		buf = append(buf, c...)
	}
	var snap storage.Snapshot
	r := wire.NewReader(buf)
	snap.ReadWire(r)
	if r.Close() != nil || snap.Seq != s.offer.Seq || snap.Head.Seq != snap.Seq {
		s.fail(now)
		return
	}
	if store.DigestOf(snap.Data, snap.Seq) != s.certState || snap.Head.Hash() != s.certLedger {
		s.fail(now)
		return
	}
	events, err := s.rt.InstallSnapshot(&snap)
	if err != nil {
		// The replica advanced past the snapshot while it streamed in;
		// nothing to install is not a server fault. Reset and re-detect.
		s.active = false
		s.offer = nil
		s.chunks = nil
		return
	}
	s.active = false
	s.offer = nil
	s.chunks = nil
	s.backoff = stateSyncBackoff
	if s.AfterInstall != nil {
		s.AfterInstall(&snap, events)
	}
}

// --- server side ---

// HandleSnapshotRequest serves the stable checkpoint snapshot to a lagging
// peer: one offer carrying the checkpoint certificate, then the snapshot's
// canonical encoding in size-capped chunks. The encoded snapshot is cached
// per checkpoint so a burst of lagging peers costs one build. Replicas that
// cannot serve (no stable checkpoint yet, stabilized without the state in
// hand, certificate already superseded) stay silent and the fetcher rotates
// on.
func (rt *Runtime) HandleSnapshotRequest(m *SnapshotRequest) {
	stable := rt.Exec.StableCheckpointSeq()
	// Serve only when the requester is beyond the fetch horizon: records
	// down to stable−RetainSlack are still retained, so a requester inside
	// that window closes its gap with ordinary Fetch pages. This is also
	// what makes startup probes cheap — a current or nearly-current prober
	// gets silence, not a snapshot.
	if stable == 0 || stable <= m.Have+rt.Exec.RetainSlack || m.From == rt.Cfg.ID {
		return
	}
	if rt.stableCertSeq != stable || len(rt.stableCert) < rt.Cfg.F+1 {
		return
	}
	data, ok := rt.encodedSnapshot(stable)
	if !ok {
		return
	}
	nchunks := (len(data) + snapshotChunkSize - 1) / snapshotChunkSize
	offer := &SnapshotOffer{
		From:   rt.Cfg.ID,
		Seq:    stable,
		Size:   int64(len(data)),
		Chunks: nchunks,
		Cert:   append([]Checkpoint(nil), rt.stableCert...),
	}
	chunks := make([]*SnapshotChunk, nchunks)
	for i := range chunks {
		lo := i * snapshotChunkSize
		hi := lo + snapshotChunkSize
		if hi > len(data) {
			hi = len(data)
		}
		chunks[i] = &SnapshotChunk{From: rt.Cfg.ID, Seq: stable, Index: i, Data: data[lo:hi]}
	}
	rt.Metrics.SnapshotsServed.Add(1)
	rt.Metrics.SnapshotChunksSent.Add(int64(nchunks))
	rt.Metrics.SnapshotBytesSent.Add(int64(len(data)))
	to := m.From
	rt.Egress.Enqueue(nil, func() {
		rt.SendReplica(to, offer)
		for _, c := range chunks {
			rt.SendReplica(to, c)
		}
	}, nil)
}

// encodedSnapshot returns the canonical encoding of the stable checkpoint
// snapshot, building and caching it on first use per checkpoint.
func (rt *Runtime) encodedSnapshot(stable types.SeqNum) ([]byte, bool) {
	if rt.snapCache.seq == stable && rt.snapCache.data != nil {
		return rt.snapCache.data, true
	}
	snap, err := rt.Exec.BuildSnapshot()
	if err != nil || snap.Seq != stable {
		return nil, false
	}
	data := snap.AppendWire(nil)
	rt.snapCache.seq, rt.snapCache.data = stable, data
	return data, true
}

// InstallSnapshot installs a verified peer snapshot into the executor and
// re-synchronizes the runtime around it: the durability watermark jumps to
// the snapshot (it was persisted as part of the install), and the
// stable-checkpoint caches prune exactly as if the checkpoint had
// stabilized locally. Returns the executions the install unblocked.
func (rt *Runtime) InstallSnapshot(snap *storage.Snapshot) ([]Executed, error) {
	events, err := rt.Exec.InstallSnapshot(snap)
	if err != nil {
		return nil, err
	}
	rt.durMu.Lock()
	if snap.Seq > rt.durWater {
		rt.durWater = snap.Seq
	}
	rt.durMu.Unlock()
	rt.PruneAtStable(snap.Seq)
	rt.Metrics.SnapshotsInstalled.Add(1)
	return events, nil
}
