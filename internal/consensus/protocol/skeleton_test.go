package protocol

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/ledger"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/storage"
	"github.com/poexec/poe/internal/types"
)

// The shared replica machine — sequencing, the read gate, the proposal
// fan-out and the view change — driven directly: no cluster, no goroutines.
// A fake clock is passed in, the transport records what would have been sent,
// and a stub stands in for a protocol's rules. The egress pipeline is not
// started, so every send happens inline.

const skelTimeout = 100 * time.Millisecond

// stubRules is the smallest protocol: its VC-REQUESTs carry the executed
// prefix, every entry is valid unless the sender is listed in reject, the
// new view starts at the end of the longest prefix, and a proposal is only
// recorded.
type stubRules struct {
	sk       *Skeleton
	reject   map[types.ReplicaID]bool
	applied  []*NVPropose
	resets   int
	proposed []types.SeqNum
	batches  []types.Batch
	handled  []network.Envelope
}

func (r *stubRules) VCEntries(executed []types.ExecRecord) []types.ExecRecord { return executed }
func (r *stubRules) ValidEntries(m *VCRequest) bool                           { return !r.reject[m.From] }
func (r *stubRules) ResetSlots()                                              { r.resets++ }
func (r *stubRules) Propose(seq types.SeqNum, b types.Batch) {
	r.proposed = append(r.proposed, seq)
	r.batches = append(r.batches, b)
}
func (r *stubRules) Handle(env network.Envelope) { r.handled = append(r.handled, env) }
func (r *stubRules) NewViewState(nv *NVPropose) {
	r.applied = append(r.applied, nv)
	r.sk.EnterView(nv.NewView, LongestPrefix(nv.Requests).End())
}

type skelFixture struct {
	t     *testing.T
	ring  *crypto.KeyRing
	rt    *Runtime
	net   *captureNet
	rules *stubRules
	sk    *Skeleton
	now   time.Time
}

// newSkelFixture builds replica id of a 4-replica, f=1 system.
func newSkelFixture(t *testing.T, id types.ReplicaID) *skelFixture {
	t.Helper()
	f := &skelFixture{t: t, ring: crypto.NewKeyRing(4, []byte("skeleton")), net: &captureNet{}, now: time.Now()}
	cfg := Config{ID: id, N: 4, F: 1, Scheme: crypto.SchemeED, ViewTimeout: skelTimeout}.WithDefaults()
	f.rt = NewRuntime(cfg, f.ring, f.net, RuntimeOptions{})
	f.rules = &stubRules{reject: map[types.ReplicaID]bool{}}
	f.sk = NewSkeleton(f.rt, f.rules)
	f.rules.sk = f.sk
	clock := func() time.Time { return f.now }
	f.sk.Now = clock
	f.sk.lastProgress = f.now
	f.rt.Lease.Now = clock
	return f
}

// singleBatches makes every request a full batch, so each one is proposed
// as it arrives, without force.
func (f *skelFixture) singleBatches() {
	f.rt.Batcher = NewBatcher(1, 0, false)
}

func (f *skelFixture) advance(d time.Duration) time.Time {
	f.now = f.now.Add(d)
	return f.now
}

// ticks advances the clock by d one tick period at a time, as the event
// loop's ticker would, and reports whether any tick suspected the primary.
func (f *skelFixture) ticks(d time.Duration) (suspected bool) {
	for d > 0 {
		step := min(f.rt.Cfg.Tick(), d)
		d -= step
		if f.sk.Tick(f.advance(step)) {
			suspected = true
		}
	}
	return suspected
}

// execute runs batch at seq through the executor and reports what executed
// to the skeleton, as a protocol does when a slot completes.
func (f *skelFixture) execute(seq types.SeqNum, batch types.Batch) {
	for _, ev := range f.rt.Exec.Commit(seq, f.sk.View(), batch, nil) {
		f.sk.NoteExecuted(ev.Rec)
	}
}

// executeSlots opens n slots after the last executed one and executes each
// lat after it opened, teaching the failure detector that latency.
func (f *skelFixture) executeSlots(n int, lat time.Duration) {
	for i := 0; i < n; i++ {
		seq := f.rt.Exec.LastExecuted() + 1
		f.sk.NoteSlot(seq)
		f.advance(lat)
		f.execute(seq, batchFor(types.ClientIDBase, uint64(seq)))
	}
}

// vc returns replica from's signed request to leave view failed.
func (f *skelFixture) vc(from types.ReplicaID, failed types.View) *VCRequest {
	m := &VCRequest{From: from, View: failed}
	m.Sig = f.ring.NodeKeys(types.ReplicaNode(from)).Sign(m.SignedPayload())
	return m
}

// sentTo returns the messages of type M recorded for one destination.
func sentTo[M any](f *skelFixture, to types.ReplicaID) []M {
	f.net.mu.Lock()
	defer f.net.mu.Unlock()
	var out []M
	for _, env := range f.net.sent {
		if m, ok := env.Msg.(M); ok && env.To == types.ReplicaNode(to) {
			out = append(out, m)
		}
	}
	return out
}

func (f *skelFixture) wantViewChange(target types.View) {
	f.t.Helper()
	if f.sk.Normal() || f.sk.vcTarget != target {
		f.t.Fatalf("normal=%v target=%d, want a view change to %d", f.sk.Normal(), f.sk.vcTarget, target)
	}
}

func (f *skelFixture) wantNormal(view types.View) {
	f.t.Helper()
	if !f.sk.Active(view) {
		f.t.Fatalf("normal=%v view=%d, want normal in view %d", f.sk.Normal(), f.sk.View(), view)
	}
}

// request returns client c's signed request seq in the given tier, a read.
func (f *skelFixture) request(c types.ClientID, seq uint64, tier types.Consistency) *types.Request {
	txn := types.Transaction{Client: c, Seq: seq, Consistency: tier, Ops: []types.Op{{Kind: types.OpRead, Key: "k"}}}
	req := SignRequest(f.ring.NodeKeys(types.ClientNode(c)), f.rt.Cfg.Scheme, f.rt.Cfg.N, txn)
	return &req
}

// stuckRequest makes the failure detector's evidence: a client request this
// backup forwarded and never saw executed, aged past the current timeout.
func (f *skelFixture) stuckRequest() {
	c := types.ClientID(types.ClientIDBase)
	f.sk.OnClientRequest(types.ClientNode(c), &types.Request{Txn: types.Transaction{Client: c, Seq: 1}})
	f.advance(f.sk.timeout() + time.Millisecond)
}

func TestViewChangeJoinRule(t *testing.T) {
	f := newSkelFixture(t, 2)
	f.sk.OnVCRequest(f.vc(1, 0))
	f.wantNormal(0) // one request could be a faulty replica's
	f.sk.OnVCRequest(f.vc(1, 0))
	f.wantNormal(0) // and repeating it does not count twice
	f.sk.OnVCRequest(f.vc(3, 0))
	f.wantViewChange(1) // f+1 distinct requests include a non-faulty one
	if got := sentTo[*VCRequest](f, 1); len(got) != 1 || got[0].From != 2 || got[0].View != 0 {
		t.Fatalf("joined without broadcasting its own request: %v", got)
	}
	if n := f.rt.Metrics.ViewChanges.Load(); n != 1 {
		t.Fatalf("ViewChanges = %d, want 1", n)
	}
}

func TestViewChangeForgedRequestIgnored(t *testing.T) {
	f := newSkelFixture(t, 2)
	forged := f.vc(1, 0)
	forged.From = 3 // signed by 1, claims 3
	f.sk.OnVCRequest(f.vc(1, 0))
	f.sk.OnVCRequest(forged)
	f.rules.reject[0] = true // entries fail the protocol's rule
	f.sk.OnVCRequest(f.vc(0, 0))
	f.wantNormal(0)
}

func TestViewChangeDivergedTargetsJoinSmallest(t *testing.T) {
	f := newSkelFixture(t, 2)
	f.sk.OnVCRequest(f.vc(1, 2)) // 1 wants view 3
	f.wantNormal(0)
	f.sk.OnVCRequest(f.vc(3, 1)) // 3 wants view 2
	// Neither target has f+1 requests, but f+1 replicas are beyond view 0:
	// adopt the smallest of their targets.
	f.wantViewChange(2)
}

func TestViewChangeNewViewFromLowestIDsAndReplay(t *testing.T) {
	f := newSkelFixture(t, 1) // primary of view 1
	// An outstanding lease promise holds this replica back while all three
	// others ask for view 1.
	f.rt.Lease.NoteGranted(0)
	for _, id := range []types.ReplicaID{3, 2, 0} {
		f.sk.OnVCRequest(f.vc(id, 0))
	}
	f.wantNormal(0)
	f.advance(f.rt.Cfg.LeaseDuration)
	f.sk.OnVCRequest(f.vc(3, 0)) // a retransmission re-triggers the join
	f.wantNormal(1)
	if len(f.rules.applied) != 1 {
		t.Fatalf("applied %d new views, want 1", len(f.rules.applied))
	}
	nv := f.rules.applied[0]
	var ids []types.ReplicaID
	for i := range nv.Requests {
		ids = append(ids, nv.Requests[i].From)
	}
	if len(ids) != 3 || ids[0] != 0 || ids[1] != 1 || ids[2] != 2 {
		t.Fatalf("NV-PROPOSE built from %v, want the nf lowest ids [0 1 2]", ids)
	}
	for _, to := range []types.ReplicaID{0, 2, 3} {
		if got := sentTo[*NVPropose](f, to); len(got) != 1 || got[0] != nv {
			t.Fatalf("replica %d was sent %d NV-PROPOSEs, want the one applied", to, len(got))
		}
	}
	if n := f.rt.Metrics.ViewChangesDone.Load(); n != 1 {
		t.Fatalf("ViewChangesDone = %d, want 1", n)
	}
	// A straggler still asking for view 1 gets the cached proposal again.
	f.sk.OnVCRequest(f.vc(3, 0))
	if got := sentTo[*NVPropose](f, 3); len(got) != 2 || got[1] != nv {
		t.Fatalf("straggler was sent %d NV-PROPOSEs, want the cached one replayed", len(got))
	}
}

// TestViewChangeRequestSenderPinned: view 1's primary replays its cached
// NV-PROPOSE to whoever a VC-REQUEST names, before checking its signature,
// so the inbound check must drop a request that does not come from the
// replica it names — from another replica or from a client.
func TestViewChangeRequestSenderPinned(t *testing.T) {
	f := newSkelFixture(t, 1)
	for _, id := range []types.ReplicaID{3, 2, 0} {
		f.sk.OnVCRequest(f.vc(id, 0))
	}
	f.wantNormal(1)
	sent := len(sentTo[*NVPropose](f, 3))
	for _, from := range []types.NodeID{types.ReplicaNode(2), types.ClientNode(types.ClientIDBase)} {
		env := network.Envelope{From: from, To: types.ReplicaNode(1), Msg: &VCRequest{From: 3, View: 0}}
		if keep, _ := f.rt.VerifyCommonInbound(&env); keep {
			f.sk.Dispatch(env)
		}
		if got := len(sentTo[*NVPropose](f, 3)); got != sent {
			t.Fatalf("a VC-REQUEST naming replica 3 sent by %v made the primary send it %d more NV-PROPOSEs", from, got-sent)
		}
	}
}

func TestViewChangeRetransmitBackoffAndReset(t *testing.T) {
	f := newSkelFixture(t, 2)
	f.sk.OnVCRequest(f.vc(3, 0))
	f.sk.Suspect() // with 3's request that is f+1: not a lonely view change
	f.wantViewChange(1)
	if f.sk.timeout() != 2*skelTimeout {
		t.Fatalf("timeout %v after one view change, want doubled", f.sk.timeout())
	}
	f.sk.Tick(f.advance(skelTimeout / 2))
	if n := len(sentTo[*VCRequest](f, 1)); n != 1 {
		t.Fatalf("%d requests sent before ViewTimeout elapsed, want 1", n)
	}
	f.sk.Tick(f.advance(skelTimeout))
	f.wantViewChange(1)
	if n := len(sentTo[*VCRequest](f, 1)); n != 2 {
		t.Fatalf("%d requests sent after ViewTimeout, want a retransmission", n)
	}
	// The doubled timeout runs out with no NV-PROPOSE: the next primary is
	// faulty too. Move on, doubling again.
	f.sk.Tick(f.advance(skelTimeout))
	f.wantViewChange(2)
	if f.sk.timeout() != 4*skelTimeout {
		t.Fatalf("timeout %v after two view changes, want quadrupled", f.sk.timeout())
	}
	// A client request arrives mid view change: one request, far short of a
	// full batch.
	c := types.ClientID(types.ClientIDBase)
	f.sk.OnClientRequest(types.ClientNode(c), f.request(c, 1, types.ConsistencyOrdered))
	// View 2's primary (replica 2 itself) completes once nf requests are in.
	f.sk.OnVCRequest(f.vc(0, 1))
	f.sk.OnVCRequest(f.vc(1, 1))
	f.wantNormal(2)
	if f.sk.timeout() != skelTimeout {
		t.Fatalf("timeout %v after entering a view, want it reset", f.sk.timeout())
	}
	if f.rules.resets != 1 {
		t.Fatalf("entering the view reset slots %d times, want once", f.rules.resets)
	}
	// The new primary forces the partial batch out at kmax+1 rather than
	// waiting for it to fill.
	if got := f.rules.proposed; len(got) != 1 || got[0] != 1 {
		t.Fatalf("proposed %v on entering view 2 with kmax 0, want the pending request at seq 1", got)
	}
}

func TestViewChangeLeaseDelaysButNeverLosesStart(t *testing.T) {
	f := newSkelFixture(t, 2)
	f.stuckRequest()
	f.rt.Lease.NoteGranted(0) // promised view 0's primary not to leave yet
	if !f.sk.Tick(f.now) {
		t.Fatal("not suspecting a primary with a request stuck past the timeout")
	}
	f.wantNormal(0)
	if n := f.rt.Metrics.ViewChanges.Load(); n != 0 {
		t.Fatalf("ViewChanges = %d while the lease promise holds", n)
	}
	f.sk.Tick(f.advance(f.rt.Cfg.LeaseDuration - time.Millisecond))
	f.wantNormal(0)
	f.sk.Tick(f.advance(time.Millisecond))
	f.wantViewChange(1)
}

// TestViewChangeLeaseHeldJoinLapses: a grantor that does not suspect the
// primary itself still joins the view change f+1 others asked for. The join
// waits out the outstanding promise, no grant renews it meanwhile, and the
// tick joins without another VC-REQUEST arriving.
func TestViewChangeLeaseHeldJoinLapses(t *testing.T) {
	f := newSkelFixture(t, 2)
	lease := f.rt.Cfg.LeaseDuration
	tick := func(d time.Duration) {
		now := f.advance(d)
		f.sk.TendReads(now, f.sk.Tick(now))
	}
	grants := func() int { return len(sentTo[*LeaseGrant](f, 0)) }
	tick(0)
	if grants() != 1 {
		t.Fatalf("%d grants on the first tick, want 1", grants())
	}
	f.sk.OnVCRequest(f.vc(1, 0))
	f.sk.OnVCRequest(f.vc(3, 0))
	f.wantNormal(0) // the promise holds the join back
	tick(lease / 2)
	tick(lease - lease/2 - time.Millisecond)
	f.wantNormal(0)
	if grants() != 1 {
		t.Fatalf("%d grants while a join was held, want no renewal", grants())
	}
	tick(time.Millisecond)
	f.wantViewChange(1)
}

// TestViewChangeNewPrimaryProposesPendingInOrder: the new primary re-batches
// the requests it was tracking in client-sequence order. Out of order, the
// batcher's per-client watermark would drop every request a later one of
// the same client overtook.
func TestViewChangeNewPrimaryProposesPendingInOrder(t *testing.T) {
	f := newSkelFixture(t, 1) // view 1's primary
	c := types.ClientID(types.ClientIDBase)
	const n = 6
	for seq := uint64(1); seq <= n; seq++ {
		f.sk.OnClientRequest(types.ClientNode(c), f.request(c, seq, types.ConsistencyOrdered))
	}
	f.sk.OnVCRequest(f.vc(0, 0))
	f.sk.OnVCRequest(f.vc(3, 0)) // f+1: replica 1 joins, and with its own that is nf
	f.wantNormal(1)
	if len(f.rules.batches) != 1 {
		t.Fatalf("%d batches proposed on entering the view, want 1", len(f.rules.batches))
	}
	got := f.rules.batches[0].Requests
	if len(got) != n {
		t.Fatalf("the new primary proposed %d of the %d outstanding requests", len(got), n)
	}
	for i := range got {
		if got[i].Txn.Seq != uint64(i+1) {
			t.Fatalf("request %d of the batch has client seq %d, want %d", i, got[i].Txn.Seq, i+1)
		}
	}
}

func TestViewChangeInvalidNewViewMovesOn(t *testing.T) {
	nf := func(f *skelFixture) *NVPropose {
		return &NVPropose{NewView: 1, Requests: []VCRequest{*f.vc(0, 0), *f.vc(1, 0), *f.vc(3, 0)}}
	}
	cases := map[string]func(f *skelFixture, nv *NVPropose){
		"too few requests":  func(f *skelFixture, nv *NVPropose) { nv.Requests = nv.Requests[:2] },
		"duplicate sender":  func(f *skelFixture, nv *NVPropose) { nv.Requests[2] = nv.Requests[0] },
		"wrong failed view": func(f *skelFixture, nv *NVPropose) { nv.Requests[1] = *f.vc(1, 1) },
		"bad signature":     func(f *skelFixture, nv *NVPropose) { nv.Requests[1].Sig = []byte("forged") },
		"invalid entries":   func(f *skelFixture, nv *NVPropose) { f.rules.reject[3] = true },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			f := newSkelFixture(t, 2)
			nv := nf(f)
			corrupt(f, nv)
			f.sk.OnNVPropose(types.ReplicaNode(1), nv)
			// The new primary exposed itself as faulty.
			f.wantViewChange(2)
			if len(f.rules.applied) != 0 {
				t.Fatal("an invalid NV-PROPOSE was applied")
			}
		})
	}
	t.Run("valid", func(t *testing.T) {
		f := newSkelFixture(t, 2)
		f.sk.OnNVPropose(types.ReplicaNode(3), nf(f)) // not view 1's primary
		f.wantNormal(0)
		f.sk.OnNVPropose(types.ReplicaNode(1), nf(f))
		f.wantNormal(1)
	})
}

// TestViewChangeFarFutureNVProposeDropped: an invalid NV-PROPOSE exposes its
// sender, but only a proposal for the view change this replica is in (or
// would start next) moves it on. One for a view the sender picked is dropped.
func TestViewChangeFarFutureNVProposeDropped(t *testing.T) {
	f := newSkelFixture(t, 2)
	f.sk.OnNVPropose(types.ReplicaNode(1), &NVPropose{NewView: 4001}) // 1 leads view 4001
	f.wantNormal(0)
	if n := f.rt.Metrics.ViewChanges.Load(); n != 0 || len(sentTo[*VCRequest](f, 1)) != 0 {
		t.Fatalf("a far-future NV-PROPOSE started %d view changes", n)
	}
	f.sk.startViewChange(3)
	f.sk.OnNVPropose(types.ReplicaNode(3), &NVPropose{NewView: 7})
	f.wantViewChange(3)
	f.sk.OnNVPropose(types.ReplicaNode(3), &NVPropose{NewView: 3})
	f.wantViewChange(4)
}

func TestViewChangeLonelyResumes(t *testing.T) {
	f := newSkelFixture(t, 2)
	f.stuckRequest()
	f.sk.Tick(f.now)
	f.wantViewChange(1)
	// Nobody joins. When the doubled timeout runs out the suspicion was
	// spurious: back to view 0, and fetch what may have committed meanwhile.
	f.sk.Tick(f.advance(2*skelTimeout + time.Millisecond))
	f.wantNormal(0)
	if f.sk.timeout() != 2*skelTimeout {
		t.Fatalf("timeout %v after a lonely view change, want it to stay doubled", f.sk.timeout())
	}
	if n := len(sentTo[*Fetch](f, 3)) + len(sentTo[*Fetch](f, 1)) + len(sentTo[*Fetch](f, 0)); n != 1 {
		t.Fatalf("%d fetches after resuming, want 1", n)
	}
	// The stuck request gets a fresh full timeout before it counts again.
	if f.ticks(2 * skelTimeout) {
		t.Fatal("suspecting again before the re-stamped request aged past the timeout")
	}
	f.ticks(2 * time.Millisecond)
	f.wantViewChange(1)
}

// TestFailureDetectorIdleLullGrace pins the per-item age gate: after a long idle
// spell the progress clock is stale, and work arriving into the lull must
// get a full timeout before it is evidence against the primary.
func TestFailureDetectorIdleLullGrace(t *testing.T) {
	f := newSkelFixture(t, 2)
	f.advance(10 * skelTimeout)
	f.sk.NoteSlot(1)
	if f.ticks(skelTimeout / 2) {
		t.Fatal("suspected the primary for a slot opened half a timeout ago")
	}
	if !f.ticks(skelTimeout) {
		t.Fatal("a slot open past the timeout is not suspicious")
	}
}

// TestFailureDetectorExecutedRetryNotTracked pins the executed-request check:
// a broadcast retry that arrives after its request executed must not be
// tracked as pending.
func TestFailureDetectorExecutedRetryNotTracked(t *testing.T) {
	f := newSkelFixture(t, 2)
	c := types.ClientID(types.ClientIDBase)
	executed := batchFor(c, 4)
	f.execute(1, executed)
	req := executed.Requests[0]
	older := batchFor(c, 3).Requests[0]
	f.sk.OnClientRequest(types.ClientNode(c), &req)
	f.sk.OnClientRequest(types.ClientNode(c), &older)
	if n := len(f.sk.pendingReqs); n != 0 {
		t.Fatalf("%d executed requests tracked as pending", n)
	}
}

// TestFailureDetectorRolledBackRetryTracked: a request that executed
// speculatively and was then rolled back has not executed any more, so a
// retry of it is outstanding work the detector must wait on, not a
// duplicate to answer from the reply cache.
func TestFailureDetectorRolledBackRetryTracked(t *testing.T) {
	f := newSkelFixture(t, 2)
	c := types.ClientID(types.ClientIDBase)
	b := batchFor(c, 1)
	for _, ev := range f.rt.Exec.Commit(1, 0, b, nil) {
		f.sk.NoteExecuted(ev.Rec)
		f.rt.InformBatch(ev.Rec, ev.Results, true, nil, nil)
	}
	if !f.rt.ReplayReply(&b.Requests[0]) {
		t.Fatal("the executed request's reply was not cached")
	}
	if err := f.rt.Exec.Rollback(0); err != nil {
		t.Fatal(err)
	}
	f.sk.OnClientRequest(types.ClientNode(c), &b.Requests[0])
	if n := len(f.sk.pendingReqs); n != 1 {
		t.Fatalf("%d requests tracked after a retry of a rolled-back one, want 1", n)
	}
}

// TestFailureDetectorInstallDropsPending pins the snapshot-install reset: requests
// executed inside an installed snapshot's prefix never pass NoteExecuted, so
// whatever was being tracked must go, and the view jumps with the snapshot.
func TestFailureDetectorInstallDropsPending(t *testing.T) {
	f := newSkelFixture(t, 2)
	f.stuckRequest()
	f.sk.NoteSlot(3)
	f.sk.NoteSlot(9)
	f.sk.Tick(f.now)
	f.wantViewChange(1)
	f.sk.Installed(&storage.Snapshot{Seq: 8, Head: ledger.Block{Seq: 8, View: 2}})
	f.wantNormal(2)
	if len(f.sk.pendingReqs) != 0 || len(f.sk.openSlots) != 1 || f.sk.timeout() != skelTimeout {
		t.Fatalf("after install: %d pending, %d open slots, timeout %v", len(f.sk.pendingReqs), len(f.sk.openSlots), f.sk.timeout())
	}
	if f.sk.Tick(f.advance(skelTimeout / 2)) {
		t.Fatal("suspecting on state the snapshot superseded")
	}
}

// TestFailureDetectorLearnedGate pins the age gate's rule, clamp(2·wait,
// GateFloor, ViewTimeout), where wait is the RTO of how long the slots and
// forwarded requests this replica tracked took to execute.
func TestFailureDetectorLearnedGate(t *testing.T) {
	floor := skelTimeout / 3
	t.Run("unsampled", func(t *testing.T) {
		f := newSkelFixture(t, 2)
		if g := f.sk.gate(); g != skelTimeout {
			t.Fatalf("gate %v before any execution, want ViewTimeout %v", g, skelTimeout)
		}
	})
	t.Run("fast", func(t *testing.T) {
		f := newSkelFixture(t, 2)
		f.executeSlots(20, time.Millisecond)
		if g := f.sk.gate(); g != floor {
			t.Fatalf("gate %v after 1 ms executions, want the floor %v", g, floor)
		}
		f.sk.NoteSlot(f.rt.Exec.LastExecuted() + 1)
		if f.ticks(floor - time.Millisecond) {
			t.Fatal("suspected the primary before the open slot aged past the gate")
		}
		if !f.ticks(2 * time.Millisecond) {
			t.Fatal("a slot open past the gate is not suspicious")
		}
	})
	t.Run("forwarded requests", func(t *testing.T) {
		f := newSkelFixture(t, 2)
		for seq := uint64(1); seq <= 20; seq++ {
			b := batchFor(types.ClientIDBase, seq)
			f.sk.OnClientRequest(types.ClientNode(types.ClientIDBase), &b.Requests[0])
			f.advance(time.Millisecond)
			f.execute(types.SeqNum(seq), b)
		}
		if g := f.sk.gate(); g != floor {
			t.Fatalf("gate %v after requests executed 1 ms after they were forwarded, want the floor %v", g, floor)
		}
	})
	t.Run("slow", func(t *testing.T) {
		f := newSkelFixture(t, 2)
		f.executeSlots(10, 5*time.Millisecond)
		// srtt 5 ms and rttvar decayed far below it: wait = 4·srtt = 20 ms.
		if g := f.sk.gate(); g != 40*time.Millisecond {
			t.Fatalf("gate %v after 5 ms executions, want 2 × 20 ms", g)
		}
		f.sk.NoteSlot(f.rt.Exec.LastExecuted() + 1)
		if f.ticks(30 * time.Millisecond) {
			t.Fatal("suspected the primary past the floor but inside the learned gate")
		}
		if !f.ticks(20 * time.Millisecond) {
			t.Fatal("a slot open past the learned gate is not suspicious")
		}
	})
	t.Run("capped", func(t *testing.T) {
		f := newSkelFixture(t, 2)
		f.executeSlots(3, skelTimeout)
		if g := f.sk.gate(); g != skelTimeout {
			t.Fatalf("gate %v after executions as slow as ViewTimeout, want the cap %v", g, skelTimeout)
		}
	})
}

// TestFailureDetectorLearnedGateBackoff: Theorem 7's doubling applies on top
// of the learned gate, and entering a view resets the doubling but keeps
// what the gate learned. The view change retransmits its request once a
// gate passes, as the age gate does.
func TestFailureDetectorLearnedGateBackoff(t *testing.T) {
	f := newSkelFixture(t, 2)
	floor := f.rt.Cfg.GateFloor()
	f.executeSlots(20, time.Millisecond)
	f.sk.OnVCRequest(f.vc(3, 0))
	f.sk.Suspect() // with 3's request that is f+1: not a lonely view change
	f.wantViewChange(1)
	if got := f.sk.timeout(); got != 2*floor {
		t.Fatalf("timeout %v after one view change, want 2 × the learned gate %v", got, floor)
	}
	f.ticks(floor + 5*time.Millisecond)
	if n := len(sentTo[*VCRequest](f, 1)); n != 2 {
		t.Fatalf("%d requests sent once the gate passed, want a retransmission", n)
	}
	f.ticks(floor)
	f.wantViewChange(2)
	if got := f.sk.timeout(); got != 4*floor {
		t.Fatalf("timeout %v after two view changes, want 4 × the learned gate %v", got, floor)
	}
	// View 2's primary (replica 2 itself) completes once nf requests are in.
	f.sk.OnVCRequest(f.vc(0, 1))
	f.sk.OnVCRequest(f.vc(1, 1))
	f.wantNormal(2)
	f.ticks(f.rt.Cfg.Tick())
	if got := f.sk.timeout(); got != floor {
		t.Fatalf("timeout %v after entering a view, want the learned gate %v", got, floor)
	}
	if got := f.rt.Metrics.Snapshot().DetectorGateMs; got != float64(floor)/1e6 {
		t.Fatalf("metrics report a gate of %v ms, want %v", got, floor)
	}
}

// TestFailureDetectorNoSampleAcrossViewChange pins Karn's rule: an item
// tracked before a view change started or ended and executed after it timed
// the view change, not an execution, and must not teach the gate.
func TestFailureDetectorNoSampleAcrossViewChange(t *testing.T) {
	floor := skelTimeout / 3
	t.Run("request across a new view", func(t *testing.T) {
		f := newSkelFixture(t, 2)
		f.executeSlots(20, time.Millisecond)
		c := types.ClientID(types.ClientIDBase + 1)
		b := batchFor(c, 1)
		f.sk.OnClientRequest(types.ClientNode(c), &b.Requests[0])
		f.sk.OnVCRequest(f.vc(3, 0))
		f.sk.Suspect()
		f.advance(skelTimeout)
		f.sk.OnNVPropose(types.ReplicaNode(1), &NVPropose{NewView: 1, Requests: []VCRequest{*f.vc(0, 0), *f.vc(1, 0), *f.vc(3, 0)}})
		f.wantNormal(1)
		f.execute(f.rt.Exec.LastExecuted()+1, b)
		if len(f.sk.pendingReqs) != 0 {
			t.Fatal("the executed request is still tracked")
		}
		if g := f.sk.gate(); g != floor {
			t.Fatalf("gate %v after a request that waited out a view change, want it unsampled at %v", g, floor)
		}
	})
	t.Run("slot across a lonely resume", func(t *testing.T) {
		f := newSkelFixture(t, 2)
		f.executeSlots(20, time.Millisecond)
		seq := f.rt.Exec.LastExecuted() + 1
		f.sk.NoteSlot(seq)
		f.sk.Suspect()
		f.ticks(2*floor + f.rt.Cfg.Tick())
		f.wantNormal(0) // nobody joined: back to view 0, the slot re-stamped
		f.advance(skelTimeout)
		f.execute(seq, batchFor(types.ClientIDBase, uint64(seq)))
		if g := f.sk.gate(); g != floor {
			t.Fatalf("gate %v after a slot that waited out a lonely view change, want it unsampled at %v", g, floor)
		}
	})
}

// TestFailureDetectorLateTickSuspectsNobody: a tick that comes more than one
// tick period late shows a starved event loop, not a faulty primary. It
// suspects nobody; the next tick on time judges again, after the loop has
// drained what queued during the stall.
func TestFailureDetectorLateTickSuspectsNobody(t *testing.T) {
	t.Run("next tick judges", func(t *testing.T) {
		f := newSkelFixture(t, 2)
		tick := f.rt.Cfg.Tick()
		f.executeSlots(20, time.Millisecond)
		f.sk.NoteSlot(f.rt.Exec.LastExecuted() + 1)
		if f.ticks(2 * tick) {
			t.Fatal("suspected the primary inside the gate")
		}
		// The loop stalls for three tick periods; the open slot is now
		// older than the gate.
		if f.sk.Tick(f.advance(3 * tick)) {
			t.Fatal("a late tick suspected the primary")
		}
		f.wantNormal(0)
		if !f.sk.Tick(f.advance(tick)) {
			t.Fatal("the next tick on time did not suspect the primary")
		}
		f.wantViewChange(1)
	})
	t.Run("backlog shows progress", func(t *testing.T) {
		f := newSkelFixture(t, 2)
		tick := f.rt.Cfg.Tick()
		f.executeSlots(20, time.Millisecond)
		seq := f.rt.Exec.LastExecuted() + 1
		f.sk.NoteSlot(seq)
		f.sk.Tick(f.advance(tick))
		if f.sk.Tick(f.advance(10 * tick)) {
			t.Fatal("a late tick suspected the primary")
		}
		// The slot's execution was waiting in the inbox behind the stall.
		f.execute(seq, batchFor(types.ClientIDBase, uint64(seq)))
		if f.ticks(tick) {
			t.Fatal("suspected the primary after the backlog showed its progress")
		}
	})
}

// TestQuickNewViewChoiceDeterministic: every replica must derive the same
// E' from the same NV-PROPOSE regardless of request order — otherwise the
// new view would fork.
// TestAdoptLongestPrefixDropsUnexecutedDecisions: view 0 decided seq 2 but
// this replica never executed it (seq 1 was missing), so it is not in the
// adopted history. View 1 gives seq 2 to another batch, and that batch is
// the one that runs once seq 1 arrives.
func TestAdoptLongestPrefixDropsUnexecutedDecisions(t *testing.T) {
	f := newSkelFixture(t, 2)
	stale, fresh := batchFor(types.ClientIDBase, 1), batchFor(types.ClientIDBase+1, 1)
	f.rt.Exec.Commit(2, 0, stale, nil)
	nv := &NVPropose{NewView: 1, Requests: []VCRequest{*f.vc(0, 0), *f.vc(1, 0), *f.vc(3, 0)}}
	if kmax, _, err := f.rt.AdoptLongestPrefix(nv); err != nil || kmax != 0 {
		t.Fatalf("AdoptLongestPrefix = kmax %d, %v; want 0, nil", kmax, err)
	}
	f.rt.Exec.Commit(2, 1, fresh, nil)
	if evs := f.rt.Exec.Commit(1, 1, batchFor(types.ClientIDBase+2, 1), nil); len(evs) != 2 {
		t.Fatalf("filling seq 1 executed %d batches, want 2", len(evs))
	}
	if rec, _ := f.rt.Exec.Record(2); rec.View != 1 || rec.Digest != fresh.Digest() {
		t.Fatalf("seq 2 executed view %d's batch %x, want view 1's %x", rec.View, rec.Digest[:4], fresh.Digest())
	}
}

func TestQuickNewViewChoiceDeterministic(t *testing.T) {
	f := func(stables []uint8, lens []uint8, perm uint8) bool {
		n := min(len(stables), len(lens))
		if n < 2 {
			return true
		}
		reqs := make([]VCRequest, n)
		for i := 0; i < n; i++ {
			reqs[i] = VCRequest{From: types.ReplicaID(i), StableSeq: types.SeqNum(stables[i])}
			for j := 0; j < int(lens[i]%8); j++ {
				reqs[i].Entries = append(reqs[i].Entries, types.ExecRecord{
					Seq: reqs[i].StableSeq + types.SeqNum(j) + 1,
				})
			}
		}
		a := LongestPrefix(reqs)
		// Rotate the slice: the choice must not depend on order.
		k := int(perm) % n
		rotated := append(append([]VCRequest(nil), reqs[k:]...), reqs[:k]...)
		b := LongestPrefix(rotated)
		return a.From == b.From && a.StableSeq == b.StableSeq && len(a.Entries) == len(b.Entries)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSkeletonProposeReadyWindowAndResume(t *testing.T) {
	f := newSkelFixture(t, 0) // primary of view 0
	f.singleBatches()
	f.rt.Cfg.Window = 3
	c := types.ClientID(types.ClientIDBase)
	for seq := uint64(1); seq <= 5; seq++ {
		f.sk.OnClientRequest(types.ClientNode(c), f.request(c, seq, types.ConsistencyOrdered))
	}
	if got := f.rules.proposed; len(got) != 3 || got[0] != 1 || got[2] != 3 || f.rt.Batcher.Pending() != 2 {
		t.Fatalf("proposed %v with %d pending, want seqs 1..3 (the window) and 2 pending", got, f.rt.Batcher.Pending())
	}
	if n := f.rt.Metrics.ProposedBatches.Load(); n != 3 {
		t.Fatalf("ProposedBatches = %d, want 3", n)
	}
	// Executing seq 1 frees one window slot.
	f.rt.Exec.Commit(1, 0, types.Batch{}, nil)
	f.sk.ProposeReady(false)
	if got := f.rules.proposed; len(got) != 4 || got[3] != 4 {
		t.Fatalf("proposed %v after executing seq 1, want seq 4 next", got)
	}
	// A backup never proposes.
	b := newSkelFixture(t, 1)
	b.rt.Batcher.Add(*b.request(c, 1, types.ConsistencyOrdered))
	b.sk.ProposeReady(true)
	if len(b.rules.proposed) != 0 {
		t.Fatalf("backup proposed %v", b.rules.proposed)
	}

	// A new view resumes at max(kmax, lastExec)+1: past this replica's own
	// execution when kmax trails it...
	f.rt.Exec.Commit(2, 0, types.Batch{}, nil)
	f.sk.EnterView(4, 1)
	if got := f.rules.proposed; len(got) != 5 || got[4] != 3 {
		t.Fatalf("proposed %v after entering view 4 with kmax 1 at lastExec 2, want seq 3 next", got)
	}
	// ...and past kmax when kmax leads.
	f.sk.EnterView(8, 10)
	if f.sk.nextPropose != 11 {
		t.Fatalf("next proposal %d after entering view 8 with kmax 10, want 11", f.sk.nextPropose)
	}
	// An installed snapshot moves sequencing forward, never back.
	f.sk.Installed(&storage.Snapshot{Seq: 20, Head: ledger.Block{Seq: 20, View: 8}})
	f.sk.Installed(&storage.Snapshot{Seq: 5, Head: ledger.Block{Seq: 5, View: 8}})
	if f.sk.nextPropose != 21 {
		t.Fatalf("next proposal %d after installing snapshots at 20 and 5, want 21", f.sk.nextPropose)
	}
}

func TestSkeletonStrongReadGate(t *testing.T) {
	f := newSkelFixture(t, 0) // primary of view 0
	f.singleBatches()
	c := types.ClientID(types.ClientIDBase + 1)
	served := func() int64 { return f.rt.Metrics.StrongReads.Load() }
	ordered := func() int64 { return f.rt.Metrics.ReadFallbacks.Load() }

	// Without a lease the primary parks the read, then orders it once it
	// has waited half a lease duration.
	f.sk.OnReadRequest(f.request(c, 1, types.ConsistencyStrong))
	if served() != 0 || ordered() != 0 || f.sk.strongQ.Len() != 1 {
		t.Fatalf("no lease: served %d, ordered %d, queued %d; want the read parked", served(), ordered(), f.sk.strongQ.Len())
	}
	half := f.rt.Cfg.LeaseDuration / 2
	f.sk.TendReads(f.advance(half-time.Millisecond), false)
	if ordered() != 0 {
		t.Fatal("a parked read was ordered before half a lease duration")
	}
	f.sk.TendReads(f.advance(time.Millisecond), false)
	if ordered() != 1 || f.sk.strongQ.Len() != 0 || len(f.rules.proposed) != 1 {
		t.Fatalf("after half a lease: ordered %d, queued %d, proposed %v; want the read ordered", ordered(), f.sk.strongQ.Len(), f.rules.proposed)
	}

	// nf grants (two plus the primary's own) make the lease valid, but the
	// ordered read's slot is still open: the head trails, so the read waits
	// and is served the moment that slot executes.
	for _, from := range []types.ReplicaID{1, 2} {
		f.rt.Lease.OnGrant(&LeaseGrant{From: from, View: 0, DurationNanos: int64(f.rt.Cfg.LeaseDuration)})
	}
	f.sk.OnReadRequest(f.request(c, 2, types.ConsistencyStrong))
	if served() != 0 || f.sk.strongQ.Len() != 1 {
		t.Fatalf("head trailing: served %d, queued %d; want the read parked", served(), f.sk.strongQ.Len())
	}
	f.rt.Exec.Commit(1, 0, types.Batch{}, nil)
	f.sk.TendReads(f.now, false)
	if served() != 1 || f.sk.strongQ.Len() != 0 {
		t.Fatalf("head caught up: served %d, queued %d; want the parked read served", served(), f.sk.strongQ.Len())
	}
	f.sk.OnReadRequest(f.request(c, 3, types.ConsistencyStrong))
	if served() != 2 {
		t.Fatal("a caught-up primary under a valid lease did not serve at once")
	}
	replies := f.net.readReplies()
	if len(replies) != 2 || replies[1].Tier != types.ConsistencyStrong || replies[1].ExecSeq != 1 {
		t.Fatalf("read replies %+v, want two STRONG serves at seq 1", replies)
	}

	// A view change flushes parked reads to ordering: replica 0 is a backup
	// in view 1 and forwards them to the new primary.
	f.sk.OnClientRequest(types.ClientNode(c), f.request(c, 4, types.ConsistencyOrdered))
	f.sk.OnReadRequest(f.request(c, 5, types.ConsistencyStrong))
	if f.sk.strongQ.Len() != 1 {
		t.Fatal("read not parked behind an open slot")
	}
	f.sk.EnterView(1, 1)
	if f.sk.strongQ.Len() != 0 || ordered() != 2 || len(sentTo[*ForwardRequest](f, 1)) != 1 {
		t.Fatalf("after the view change: queued %d, ordered %d; want the parked read forwarded", f.sk.strongQ.Len(), ordered())
	}
	// A backup orders STRONG reads.
	f.sk.OnReadRequest(f.request(c, 6, types.ConsistencyStrong))
	if served() != 2 || ordered() != 3 {
		t.Fatalf("backup: served %d, ordered %d; want the read ordered", served(), ordered())
	}
	// A replica changing views orders STRONG reads but serves SPECULATIVE
	// ones from its executed prefix.
	f.sk.Suspect()
	f.wantViewChange(2)
	f.sk.OnReadRequest(f.request(c, 7, types.ConsistencyStrong))
	f.sk.OnReadRequest(f.request(c, 8, types.ConsistencySpeculative))
	if served() != 2 || ordered() != 4 || f.rt.Metrics.SpecReads.Load() != 1 {
		t.Fatalf("view-changing: served %d strong, ordered %d, served %d speculative; want 2, 4, 1",
			served(), ordered(), f.rt.Metrics.SpecReads.Load())
	}
}

// testProposal is the smallest SignedProposal; it counts its signings.
type testProposal struct {
	Batch types.Batch
	Auth  [][]byte
	signs int
}

func (m *testProposal) SignedPayload() []byte { d := m.Batch.Digest(); return d[:] }
func (m *testProposal) SetAuth(auth [][]byte) { m.Auth = auth; m.signs++ }

func TestSkeletonFanOut(t *testing.T) {
	const n = 7
	ring := crypto.NewKeyRing(n, []byte("fan-out"))
	net := &captureNet{}
	rt := NewRuntime(Config{ID: 0, N: n, F: 2, Scheme: crypto.SchemeED}, ring, net, RuntimeOptions{})
	req := SignRequest(ring.NodeKeys(types.ClientNode(types.ClientIDBase)), crypto.SchemeED, n,
		types.Transaction{Client: types.ClientIDBase, Seq: 1})
	received := func(to types.ReplicaID) []any {
		var out []any
		for _, env := range net.sent {
			if env.To == types.ReplicaNode(to) {
				out = append(out, env.Msg)
			}
		}
		return out
	}
	verifies := func(m *testProposal) bool {
		return ring.NodeKeys(types.ReplicaNode(1)).VerifyFrom(types.ReplicaNode(0), m.SignedPayload(), m.Auth[0])
	}

	// Honest: one signed broadcast.
	m := &testProposal{Batch: types.Batch{Requests: []types.Request{req}}}
	rt.FanOut(m, nil, nil)
	if net.broadcasts != 1 || m.signs != 1 || !verifies(m) {
		t.Fatalf("honest: %d broadcasts, %d signings, valid=%v; want one signed broadcast", net.broadcasts, m.signs, verifies(m))
	}
	for id := types.ReplicaID(1); id < n; id++ {
		if got := received(id); len(got) != 1 || got[0] != m {
			t.Fatalf("honest: replica %d received %v", id, got)
		}
	}

	// Byzantine: 1 and 2 get the variant, 3 and 4 nothing, 5 and 6 the
	// original.
	net.sent, net.broadcasts = nil, 0
	adv := &AdversarySpec{
		EquivocateTo: map[types.ReplicaID]bool{1: true, 2: true},
		SilenceTo:    map[types.ReplicaID]bool{3: true, 4: true},
	}
	m = &testProposal{Batch: types.Batch{Requests: []types.Request{req}}}
	var variants []*testProposal
	rt.FanOut(m, adv, func() SignedProposal {
		v := &testProposal{Batch: adv.Variant(m.Batch)}
		variants = append(variants, v)
		return v
	})
	if len(variants) != 1 || variants[0].signs != 1 || m.signs != 1 || net.broadcasts != 0 {
		t.Fatalf("byzantine: %d variants, broadcasts %d; want one variant, each proposal signed once, no broadcast", len(variants), net.broadcasts)
	}
	v := variants[0]
	if string(v.SignedPayload()) == string(m.SignedPayload()) || !verifies(v) || !verifies(m) {
		t.Fatal("byzantine: the variant must carry a different, validly signed payload")
	}
	for id, want := range map[types.ReplicaID]any{1: v, 2: v, 3: nil, 4: nil, 5: m, 6: m} {
		got := received(id)
		if want == nil && len(got) != 0 || want != nil && (len(got) != 1 || got[0] != want) {
			t.Fatalf("byzantine: replica %d received %v, want %v", id, got, want)
		}
	}
}

// TestSkeletonLeaseLapsesBeforeSuspicion: a backup stops renewing its lease
// grant once its failure detector would fire within one LeaseDuration, so
// when suspicion fires the promise has already lapsed and the view change
// starts on that very tick. It holds at ViewTimeout, the gate before any
// sample, and at the learned gate's floor, the smallest the lease must stay
// below.
func TestSkeletonLeaseLapsesBeforeSuspicion(t *testing.T) {
	for _, tc := range []struct {
		name    string
		learned bool
	}{{"unsampled", false}, {"learned floor", true}} {
		t.Run(tc.name, func(t *testing.T) {
			f := newSkelFixture(t, 2)
			if tc.learned {
				f.executeSlots(20, time.Millisecond)
			}
			gate, lease := f.sk.gate(), f.rt.Cfg.LeaseDuration
			// tick advances by d one tick period at a time, as the event loop
			// ticks, tending reads on each tick.
			tick := func(d time.Duration) {
				for {
					step := min(f.rt.Cfg.Tick(), d)
					now := f.advance(step)
					f.sk.TendReads(now, f.sk.Tick(now))
					if d -= step; d <= 0 {
						return
					}
				}
			}
			grants := func() int { return len(sentTo[*LeaseGrant](f, 0)) }
			c := types.ClientID(types.ClientIDBase + 1)
			f.sk.OnClientRequest(types.ClientNode(c), &types.Request{Txn: types.Transaction{Client: c, Seq: 1}})
			tick(0)
			if grants() != 1 {
				t.Fatalf("%d grants on the first tick, want 1", grants())
			}
			// The request is gate − LeaseDuration − 1ms old: the detector is
			// still more than a lease away from firing, so the grant is renewed.
			tick(gate - lease - time.Millisecond)
			renewed := grants()
			if renewed < 2 {
				t.Fatalf("%d grants a lease before the detector fires, want a renewal", renewed)
			}
			// A renewal falls due, but the detector would now fire within one lease.
			tick(lease/3 + time.Millisecond)
			if grants() != renewed {
				t.Fatalf("%d grants within a lease of suspicion, want none after the %dth", grants(), renewed)
			}
			f.wantNormal(0)
			// The request ages past the gate: the last promise ran out two
			// milliseconds ago, so the view change starts at once.
			tick(lease - lease/3 + time.Millisecond)
			f.wantViewChange(1)
		})
	}
}

// viewMsg is the smallest normal-case message.
type viewMsg struct{ v types.View }

func (m *viewMsg) InView() types.View { return m.v }

// TestSkeletonParksNextViewMessages pins Deliver's park: messages of the view
// this replica is changing into wait for it, everything of the current view
// is handled at once, and the rest is dropped.
func TestSkeletonParksNextViewMessages(t *testing.T) {
	f := newSkelFixture(t, 2)
	deliver := func(v types.View) *viewMsg {
		m := &viewMsg{v}
		f.sk.Deliver(network.Envelope{From: types.ReplicaNode(3), Msg: m})
		return m
	}
	handled := func() []any {
		var out []any
		for _, env := range f.rules.handled {
			out = append(out, env.Msg)
		}
		return out
	}
	cur := deliver(0)
	early := deliver(1) // the view after the current one, before any view change
	deliver(2)          // two views ahead: dropped
	f.sk.OnVCRequest(f.vc(1, 0))
	f.sk.OnVCRequest(f.vc(3, 0))
	f.wantViewChange(1)
	vc := deliver(1) // the view being entered
	deliver(0)       // the view being left: handled, and dropped by the protocol
	if got := handled(); len(got) != 2 || got[0] != cur {
		t.Fatalf("handled %v before the new view, want only the view-0 messages", got)
	}
	f.sk.OnNVPropose(types.ReplicaNode(1), &NVPropose{NewView: 1, Requests: []VCRequest{*f.vc(0, 0), *f.vc(1, 0), *f.vc(3, 0)}})
	f.wantNormal(1)
	if got := handled(); len(got) != 4 || got[2] != early || got[3] != vc {
		t.Fatalf("handled %v after entering view 1, want the two parked view-1 messages replayed in order", got)
	}
	if len(f.sk.parked) != 0 {
		t.Fatalf("%d messages still parked", len(f.sk.parked))
	}
	// The park is bounded.
	limit := f.rt.Cfg.N * f.rt.Cfg.Window
	for i := 0; i < limit+10; i++ {
		deliver(2)
	}
	if len(f.sk.parked) != limit {
		t.Fatalf("%d messages parked, want the bound %d", len(f.sk.parked), limit)
	}
}
