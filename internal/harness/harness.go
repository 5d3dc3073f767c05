// Package harness runs in-process clusters of any of the five protocols and
// drives them with YCSB-style client load, reproducing the paper's
// evaluation setups (§IV): warmup + measurement windows, batching, zero
// payload, backup crashes (Fig 9 a/e/i), primary crashes with throughput
// timelines (Fig 10), pipelined or closed-loop clients (Fig 9 k/l), and the
// no-consensus upper-bound runs (Fig 7).
//
// Beyond the paper's figures, the harness opens two scenario families
// (catalogued in docs/SCENARIOS.md). Crash-recovery: with Options.DataDir
// set every replica is durable (WAL + checkpoint snapshots), and
// RunCrashRestart kills a replica mid-run, restarts it from its data
// directory, and checks that it rejoins on the same executed-batch digest
// prefix as the live replicas. Chaos: RunChaos drives any protocol through
// scheduled partitions with heal, lossy/reordering links, mid-run crashes
// (Options.CrashBackupAfter uses the same fault plan), and the Byzantine
// leader attacks of protocol.AdversarySpec, asserting digest-prefix safety
// and post-disruption liveness.
//
// The harness substitutes the paper's Google-Cloud deployment (91 c2
// machines, 320k clients) with goroutines over the in-process channel
// network; see DESIGN.md §3 for why the protocol-relative comparisons
// survive the substitution.
package harness

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/poexec/poe/internal/client"
	"github.com/poexec/poe/internal/consensus/hotstuff"
	"github.com/poexec/poe/internal/consensus/pbft"
	"github.com/poexec/poe/internal/consensus/poe"
	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/consensus/sbft"
	"github.com/poexec/poe/internal/consensus/zyzzyva"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/storage"
	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/workload"
)

// Protocol names a consensus protocol under test.
type Protocol string

// The five protocols of the paper's evaluation.
const (
	PoE      Protocol = "poe"
	PBFT     Protocol = "pbft"
	Zyzzyva  Protocol = "zyzzyva"
	SBFT     Protocol = "sbft"
	HotStuff Protocol = "hotstuff"
)

// AllProtocols lists the evaluation order used in the paper's figures.
var AllProtocols = []Protocol{PoE, PBFT, SBFT, HotStuff, Zyzzyva}

// Options configure one experiment run.
type Options struct {
	Protocol Protocol
	N, F     int
	Scheme   crypto.Scheme

	BatchSize          int
	Window             int
	CheckpointInterval int

	// Clients is the number of concurrent client identities; Outstanding is
	// how many requests each keeps in flight (1 = closed loop, the Fig 9k/l
	// configuration).
	Clients     int
	Outstanding int

	ZeroPayload bool
	Records     int // YCSB table size (0 = default small table)

	Warmup  time.Duration
	Measure time.Duration

	// CrashBackup crashes the last replica before the run starts. This is
	// the original Fig 9 knob; it under-reproduces the paper's mid-run
	// failure (the cluster never sees the transition), so new code should
	// prefer CrashBackupAfter. Kept for comparability with old numbers.
	CrashBackup bool
	// CrashBackupAfter crashes the last replica this long into the run via
	// a scheduled fault plan (Fig 9's actual mid-run failure: the cluster
	// runs clean, then degrades). Zero means never.
	CrashBackupAfter time.Duration
	// CrashPrimaryAfter crashes the view-0 primary this long into the run
	// (Fig 10). Zero means never.
	CrashPrimaryAfter time.Duration

	ViewTimeout      time.Duration
	ClientTimeout    time.Duration
	CollectorTimeout time.Duration // SBFT only

	// SampleEvery enables a throughput timeline with the given resolution
	// (Fig 10). Zero disables sampling.
	SampleEvery time.Duration

	// SendCost is the per-message CPU cost charged to senders, standing in
	// for the serialization/syscall cost of a real network stack (the cost
	// that penalizes quadratic protocols). Negative disables it.
	SendCost time.Duration

	// WireCost replaces the flat SendCost with the size-calibrated model
	// (network.WithWireCost, DESIGN.md §3): each logical message is encoded
	// once through the real wire codec — so a broadcast pays serialization
	// once, like TCPNet's marshal-once fan-out — and each destination is
	// charged a per-write busy-wait scaled by the true encoded size. The
	// flat default is kept for comparability with the PR 1–4 baselines.
	WireCost bool

	// NetDelay adds a one-way link delay to every message, turning the
	// in-process network into a WAN-ish one. The out-of-order experiments
	// (Fig 9k/l, window ablation) need it: with microsecond links the
	// window never binds.
	NetDelay time.Duration

	// DataDir, when set, makes every replica durable: replica i logs its
	// executed batches and checkpoint snapshots under DataDir/replica-i.
	// Required by the crash-restart scenarios (RunCrashRestart), optional
	// everywhere else.
	DataDir string
	// Fsync makes durable replicas sync the WAL on every commit group
	// (machine-crash durability). Meaningless without DataDir.
	Fsync bool
	// NoGroupCommit disables WAL group commit: every record is appended and
	// synced individually, the pre-group-commit baseline the durable
	// benchmarks compare against.
	NoGroupCommit bool

	// ReadFraction, when > 0, overrides the workload's write fraction so
	// that this fraction of transactions is read-only (YCSB-B is 0.95,
	// YCSB-C is 1.0). SpeculativeFraction and StrongFraction then set the
	// consistency mix among read-only transactions (workload.Config); both
	// zero keeps every read ORDERED — the all-consensus baseline the tiered
	// paths are benchmarked against.
	ReadFraction        float64
	SpeculativeFraction float64
	StrongFraction      float64

	Seed int64
}

// storageOptions derives the storage configuration of a durable run.
func (o Options) storageOptions() storage.Options {
	return storage.Options{Sync: o.Fsync, NoGroupCommit: o.NoGroupCommit}
}

func (o Options) withDefaults() Options {
	if o.N == 0 {
		o.N = 4
	}
	if o.F == 0 {
		o.F = (o.N - 1) / 3
	}
	if o.Scheme == 0 && o.Protocol != "" {
		o.Scheme = DefaultScheme(o.Protocol)
		// Ingredient I3: PoE switches from MACs to threshold signatures for
		// larger clusters (the paper's guidance is around 16 replicas).
		if o.Protocol == PoE && o.N >= 16 {
			o.Scheme = crypto.SchemeTS
		}
	}
	if o.BatchSize == 0 {
		o.BatchSize = 100
	}
	if o.Window == 0 {
		o.Window = 128
	}
	if o.CheckpointInterval == 0 {
		o.CheckpointInterval = 256
	}
	if o.Clients == 0 {
		o.Clients = 16
	}
	if o.Outstanding == 0 {
		o.Outstanding = 8
	}
	if o.Records == 0 {
		o.Records = 4096
	}
	if o.Warmup == 0 {
		o.Warmup = 300 * time.Millisecond
	}
	if o.Measure == 0 {
		o.Measure = time.Second
	}
	if o.ViewTimeout == 0 {
		// Keep failure detection comfortably above saturated client
		// latencies; the paper makes the same point about timeout
		// calibration in §IV-D.
		o.ViewTimeout = 2 * time.Second
	}
	if o.ClientTimeout == 0 {
		o.ClientTimeout = time.Second
	}
	if o.CollectorTimeout == 0 {
		o.CollectorTimeout = 40 * time.Millisecond
	}
	if o.SendCost == 0 {
		o.SendCost = 10 * time.Microsecond
	}
	if o.SendCost < 0 {
		o.SendCost = 0
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// DefaultScheme returns the paper's authentication configuration for each
// protocol (§IV-A): PBFT and Zyzzyva use MACs between replicas, PoE adapts
// (MAC below 16 replicas, TS above — ingredient I3), SBFT and HotStuff are
// threshold-signature protocols.
func DefaultScheme(p Protocol) crypto.Scheme {
	switch p {
	case PBFT, Zyzzyva:
		return crypto.SchemeMAC
	case SBFT, HotStuff:
		return crypto.SchemeTS
	case PoE:
		return crypto.SchemeMAC
	default:
		return crypto.SchemeMAC
	}
}

// TimelinePoint is one sample of a throughput timeline (Fig 10).
type TimelinePoint struct {
	Offset     time.Duration
	Throughput float64 // txn/s over the sampling interval
}

// Result reports one experiment run.
type Result struct {
	Protocol    Protocol
	N           int
	BatchSize   int
	Throughput  float64       // client-visible transactions per second
	AvgLatency  time.Duration // request send → quorum reply
	Completed   int64
	ViewChanges int64
	// ViewChangesDone counts view changes that completed (a new view was
	// entered), summed across replicas; ViewChanges counts starts.
	ViewChangesDone int64
	Rollbacks       int64
	Timeline        []TimelinePoint

	// ExecutedTxns (Run only) is the number of ordered transactions every
	// replica executed — the fewest any of them did, warm-up included — and
	// ClientSigVerifies the Ed25519 checks of client request signatures the
	// replicas spent between them: their ratio is the signature cost of one
	// ordered transaction.
	ExecutedTxns      int64
	ClientSigVerifies int64

	// Snapshot state transfer, summed across replicas: snapshots served to
	// lagging peers, snapshots installed from peers, chunk/byte volume, the
	// Fetch pages used to bridge snapshot → live head, and attempts that
	// timed out or failed verification and were retried on another peer.
	SnapshotsServed    int64
	SnapshotsInstalled int64
	SnapshotChunks     int64
	SnapshotBytes      int64
	FetchPages         int64
	StateSyncRetries   int64

	// Egress pipeline saturation, summed (EgressSigned) and maxed
	// (EgressMaxDepth) across replicas: authenticators computed off the
	// event loops, and the deepest signing backlog any replica accumulated.
	EgressSigned   int64
	EgressMaxDepth int64
	// WAL group commit (durable runs only): groups written and records they
	// carried across all replicas; WALGroupMean = records/groups is the mean
	// group size — how many fsyncs were amortized into one.
	WALGroups         int64
	WALGroupedRecords int64

	// Hybrid-consistency read path, replica side (summed): reads served
	// locally per tier, reads pushed into ordering instead, speculative
	// serves re-answered after a rollback, and lease grants sent.
	SpecServes    int64
	StrongServes  int64
	ReadFallbacks int64
	ReadRepairs   int64
	LeaseGrants   int64
	// Client side: tiered reads completed, completions that came through
	// the ordering pipeline (Inform quorum), and repair re-answers received.
	ReadsCompleted int64
	ReadsFallback  int64
	ReadsRepaired  int64
	// Digest-prefix safety audit over unrepaired speculative answers: each
	// sampled answer's (ExecSeq, StateDigest) tag is compared against the
	// digests the replicas recorded when that sequence executed. Skipped
	// counts samples whose digests were already pruned (retention window).
	// Mismatches must be zero.
	ReadAuditChecked    int64
	ReadAuditSkipped    int64
	ReadAuditMismatches int64
}

// WALGroupMean is the mean WAL commit-group size across replicas (0 for
// volatile runs).
func (r Result) WALGroupMean() float64 {
	if r.WALGroups == 0 {
		return 0
	}
	return float64(r.WALGroupedRecords) / float64(r.WALGroups)
}

// String formats the result as the paper's table rows do, extended with the
// pipeline-saturation counters bench runs watch.
func (r Result) String() string {
	s := fmt.Sprintf("%-9s n=%-3d batch=%-4d %10.0f txn/s  %8.1fms  vc=%d  egress=%d(maxq %d)",
		r.Protocol, r.N, r.BatchSize, r.Throughput,
		float64(r.AvgLatency.Microseconds())/1000, r.ViewChanges,
		r.EgressSigned, r.EgressMaxDepth)
	if r.WALGroups > 0 {
		s += fmt.Sprintf("  wal-groups=%d(mean %.1f)", r.WALGroups, r.WALGroupMean())
	}
	if r.SnapshotsInstalled > 0 || r.StateSyncRetries > 0 {
		s += fmt.Sprintf("  snap=%d(%dB, retries=%d)", r.SnapshotsInstalled, r.SnapshotBytes, r.StateSyncRetries)
	}
	if r.SpecServes > 0 || r.StrongServes > 0 || r.ReadFallbacks > 0 {
		s += fmt.Sprintf("  reads=spec:%d strong:%d fb:%d rep:%d audit=%d/%d(miss %d)",
			r.SpecServes, r.StrongServes, r.ReadFallbacks, r.ReadRepairs,
			r.ReadAuditChecked, r.ReadAuditChecked+r.ReadAuditSkipped, r.ReadAuditMismatches)
	}
	return s
}

// replicaHandle abstracts the per-protocol replica for the harness.
type replicaHandle interface {
	Run(ctx context.Context)
	Runtime() *protocol.Runtime
}

// submitter abstracts the two client implementations.
type submitter interface {
	SubmitTxn(ctx context.Context, txn types.Transaction) (types.Result, error)
	NextSeq() uint64
	Start(ctx context.Context)
}

// tieredReader is the optional read-path side of a submitter. Clients
// without it (the Zyzzyva wrapper) get their reads downgraded to ORDERED.
type tieredReader interface {
	ReadTxn(ctx context.Context, txn types.Transaction) (client.ReadAnswer, error)
	NextReadSeq() uint64
}

// readStats accumulates client-side read-path outcomes and the samples for
// the digest-prefix safety audit. Samples are keyed by (client, read seq) so
// a later repair can retract the original answer from the audit set — a
// repaired serve observed state the cluster abandoned, and its prefix tag is
// deliberately no longer expected to match.
type readStats struct {
	completed atomic.Int64
	fallback  atomic.Int64
	repaired  atomic.Int64

	mu      sync.Mutex
	samples map[readSampleKey]readSample
}

type readSampleKey struct {
	client types.ClientID
	seq    uint64
}

type readSample struct {
	execSeq types.SeqNum
	state   types.Digest
}

// maxReadSamples bounds the audit set; benches at full throughput would
// otherwise retain millions of digests.
const maxReadSamples = 8192

func newReadStats() *readStats {
	return &readStats{samples: make(map[readSampleKey]readSample)}
}

func (s *readStats) observe(txn types.Transaction, ans client.ReadAnswer) {
	s.completed.Add(1)
	if ans.Fallback {
		s.fallback.Add(1)
		return
	}
	// Only unrepaired speculative serves carry an auditable prefix tag;
	// strong serves are covered by the lease argument, and ExecSeq 0 means
	// the serve saw only the initial table (nothing recorded to compare).
	if ans.Tier != types.ConsistencySpeculative || ans.Repaired || ans.ExecSeq == 0 {
		return
	}
	s.mu.Lock()
	if len(s.samples) < maxReadSamples {
		s.samples[readSampleKey{txn.Client, txn.Seq}] = readSample{ans.ExecSeq, ans.StateDigest}
	}
	s.mu.Unlock()
}

func (s *readStats) onRepair(ans client.ReadAnswer) {
	s.repaired.Add(1)
	s.mu.Lock()
	delete(s.samples, readSampleKey{ans.Result.Client, ans.Result.Seq})
	s.mu.Unlock()
}

// audit compares every retained sample against the digests the replicas
// recorded at its executed sequence number: the answer passes if any replica
// still retaining that sequence recorded the same state digest, is skipped
// if every replica already pruned it, and is a safety violation otherwise.
func (s *readStats) audit(replicas []replicaHandle) (checked, skipped, mismatches int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, smp := range s.samples {
		retained, matched := false, false
		for _, h := range replicas {
			state, _, ok := h.Runtime().Exec.DigestsAt(smp.execSeq)
			if !ok {
				continue
			}
			retained = true
			if state == smp.state {
				matched = true
				break
			}
		}
		switch {
		case matched:
			checked++
		case retained:
			checked++
			mismatches++
		default:
			skipped++
		}
	}
	return checked, skipped, mismatches
}

// Calibration of the size-based send-cost model (Options.WireCost): one
// write(2) on a loopback stream costs a few microseconds regardless of
// size, plus a per-KB copy cost. The constants are chosen so a typical
// 50-request PROPOSE frame (~7 KB) costs about what the flat model charged
// per message (≈10 µs) while a 60-byte share message costs ~3 µs — the
// size structure the flat model could not express.
const (
	wireWriteBase  = 3 * time.Microsecond
	wireWritePerKB = time.Microsecond
)

// netOptions translates the harness cost/delay knobs into ChanNet options.
func (o Options) netOptions() []network.ChanNetOption {
	netOpts := []network.ChanNetOption{
		network.WithSeed(o.Seed),
		network.WithDelay(o.NetDelay, 0),
	}
	if o.WireCost {
		netOpts = append(netOpts, network.WithWireCost(wireWriteBase, wireWritePerKB))
	} else {
		netOpts = append(netOpts, network.WithSendCost(o.SendCost))
	}
	return netOpts
}

// Run executes one experiment and reports its result.
func Run(opts Options) (Result, error) {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	net := network.NewChanNet(opts.netOptions()...)
	defer net.Close()
	// Scheduled faults route every send through the fault fabric; plain runs
	// keep the bare ChanNet (no per-message fabric cost on benchmarks).
	var joiner network.Net = net
	var plan *network.Plan
	if opts.CrashBackupAfter > 0 {
		fn := network.NewFaultNet(net, network.WithFaultSeed(opts.Seed))
		defer fn.Close()
		plan = network.NewPlan().CrashAt(opts.CrashBackupAfter,
			types.ReplicaNode(types.ReplicaID(opts.N-1)))
		joiner = fn
	}
	ring := crypto.NewKeyRing(opts.N, []byte(fmt.Sprintf("harness-%d", opts.Seed)))

	wcfg := workload.DefaultConfig(opts.Records)
	wcfg.Seed = opts.Seed
	if opts.ReadFraction > 0 {
		wcfg.WriteFraction = 1 - opts.ReadFraction
	}
	wcfg.SpeculativeFraction = opts.SpeculativeFraction
	wcfg.StrongFraction = opts.StrongFraction
	var table map[string][]byte
	if !opts.ZeroPayload {
		table = workload.InitialTable(wcfg)
	}

	replicas := make([]replicaHandle, opts.N)
	replicaDone := make([]chan struct{}, opts.N)
	for i := 0; i < opts.N; i++ {
		ropts := protocol.RuntimeOptions{ZeroPayload: opts.ZeroPayload, InitialTable: table}
		if opts.DataDir != "" {
			st, err := storage.Open(replicaDir(opts.DataDir, i), opts.storageOptions())
			if err != nil {
				return Result{}, err
			}
			defer st.Close()
			ropts.Storage = st
		}
		tr := joiner.Join(types.ReplicaNode(types.ReplicaID(i)))
		h, err := buildReplica(opts, replicaConfig(opts, i), ring, tr, ropts, nil)
		if err != nil {
			return Result{}, err
		}
		replicas[i] = h
		done := make(chan struct{})
		replicaDone[i] = done
		go func(h replicaHandle) {
			h.Run(ctx)
			close(done)
		}(h)
	}

	if opts.CrashBackup {
		net.Crash(types.ReplicaNode(types.ReplicaID(opts.N - 1)))
	}
	if opts.CrashPrimaryAfter > 0 {
		time.AfterFunc(opts.CrashPrimaryAfter, func() {
			net.Crash(types.ReplicaNode(0))
		})
	}
	if plan != nil {
		joiner.(*network.FaultNet).Execute(ctx, plan)
	}

	// Client pool.
	var completed atomic.Int64
	var latencySum atomic.Int64 // nanoseconds
	var measuring atomic.Bool

	stats := newReadStats()
	clients := make([]submitter, opts.Clients)
	for i := 0; i < opts.Clients; i++ {
		s, err := buildClient(opts, i, ring, joiner)
		if err != nil {
			return Result{}, err
		}
		if cc, ok := s.(*client.Client); ok {
			cc.OnRepair = stats.onRepair
		}
		s.Start(ctx)
		clients[i] = s
	}

	var wg sync.WaitGroup
	startLoad(ctx, &wg, opts, wcfg, clients, &completed, &latencySum, &measuring, stats)

	// Warmup, then measure (the paper uses 60 s + 120 s; scaled here).
	select {
	case <-time.After(opts.Warmup):
	case <-ctx.Done():
	}
	measuring.Store(true)
	start := time.Now()

	var timeline []TimelinePoint
	if opts.SampleEvery > 0 {
		ticker := time.NewTicker(opts.SampleEvery)
		defer ticker.Stop()
		var prev int64
		for elapsed := time.Duration(0); elapsed < opts.Measure; {
			<-ticker.C
			elapsed = time.Since(start)
			cur := completed.Load()
			rate := float64(cur-prev) / opts.SampleEvery.Seconds()
			prev = cur
			timeline = append(timeline, TimelinePoint{Offset: elapsed, Throughput: rate})
		}
	} else {
		select {
		case <-time.After(opts.Measure):
		case <-ctx.Done():
		}
	}
	measuring.Store(false)
	elapsed := time.Since(start)
	cancel()
	net.Close()
	wg.Wait()
	// Join the replica goroutines before the deferred storage closes run: a
	// replica may still be inside a WAL append, and closing the store under
	// it would turn an orderly shutdown into a crash-stop panic.
	for _, done := range replicaDone {
		<-done
	}

	total := completed.Load()
	res := Result{
		Protocol:   opts.Protocol,
		N:          opts.N,
		BatchSize:  opts.BatchSize,
		Completed:  total,
		Throughput: float64(total) / elapsed.Seconds(),
		Timeline:   timeline,
	}
	if total > 0 {
		res.AvgLatency = time.Duration(latencySum.Load() / total)
	}
	for i, h := range replicas {
		m := h.Runtime().Metrics
		res.addReplicaMetrics(m)
		if n := m.ExecutedTxns.Load(); i == 0 || n < res.ExecutedTxns {
			res.ExecutedTxns = n
		}
	}
	res.ReadsCompleted = stats.completed.Load()
	res.ReadsFallback = stats.fallback.Load()
	res.ReadsRepaired = stats.repaired.Load()
	res.ReadAuditChecked, res.ReadAuditSkipped, res.ReadAuditMismatches = stats.audit(replicas)
	return res, nil
}

// addReplicaMetrics folds one replica's runtime counters into the result.
func (r *Result) addReplicaMetrics(m *protocol.Metrics) {
	r.ClientSigVerifies += m.ClientSigVerifies.Load()
	r.ViewChanges += m.ViewChanges.Load()
	r.ViewChangesDone += m.ViewChangesDone.Load()
	r.Rollbacks += m.Rollbacks.Load()
	r.SnapshotsServed += m.SnapshotsServed.Load()
	r.SnapshotsInstalled += m.SnapshotsInstalled.Load()
	r.SnapshotChunks += m.SnapshotChunksRecv.Load()
	r.SnapshotBytes += m.SnapshotBytesRecv.Load()
	r.FetchPages += m.FetchPages.Load()
	r.StateSyncRetries += m.StateSyncRetries.Load()
	r.EgressSigned += m.EgressSignedOffLoop.Load()
	if d := m.EgressMaxDepth.Load(); d > r.EgressMaxDepth {
		r.EgressMaxDepth = d
	}
	r.WALGroups += m.WALGroups.Load()
	r.WALGroupedRecords += m.WALGroupedRecords.Load()
	r.SpecServes += m.SpecReads.Load()
	r.StrongServes += m.StrongReads.Load()
	r.ReadFallbacks += m.ReadFallbacks.Load()
	r.ReadRepairs += m.ReadRepairs.Load()
	r.LeaseGrants += m.LeaseGrants.Load()
}

// replicaConfig derives replica i's protocol configuration from the run
// options.
func replicaConfig(opts Options, i int) protocol.Config {
	return protocol.Config{
		ID: types.ReplicaID(i), N: opts.N, F: opts.F, Scheme: opts.Scheme,
		BatchSize: opts.BatchSize, Window: opts.Window,
		CheckpointInterval: types.SeqNum(opts.CheckpointInterval),
		ViewTimeout:        opts.ViewTimeout,
	}
}

// replicaDir is replica i's data directory under a run's DataDir root.
func replicaDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("replica-%d", i))
}

// startLoad spawns the open workload: Outstanding goroutines per client,
// each submitting generated transactions until the context ends, counting
// completions and latency while the measurement window is open.
func startLoad(ctx context.Context, wg *sync.WaitGroup, opts Options, wcfg workload.Config,
	clients []submitter, completed, latencySum *atomic.Int64, measuring *atomic.Bool, stats *readStats) {
	for i, s := range clients {
		gen := workload.NewGenerator(wcfg, types.ClientID(types.ClientIDBase)+types.ClientID(i))
		genMu := &sync.Mutex{}
		for j := 0; j < opts.Outstanding; j++ {
			wg.Add(1)
			go func(s submitter) {
				defer wg.Done()
				rd, canRead := s.(tieredReader)
				for ctx.Err() == nil {
					genMu.Lock()
					txn := gen.Next()
					genMu.Unlock()
					// Tiered reads travel the fast read path with their own
					// sequence space; everything else (including reads on a
					// client without the read API, or zero-payload mode,
					// which strips the ops) orders normally.
					tiered := canRead && !opts.ZeroPayload &&
						txn.Consistency != types.ConsistencyOrdered
					if tiered {
						txn.Seq = rd.NextReadSeq()
					} else {
						txn.Consistency = types.ConsistencyOrdered
						txn.Seq = s.NextSeq()
					}
					if opts.ZeroPayload {
						txn.Ops = nil
					}
					start := time.Now()
					txn.TimeNanos = start.UnixNano()
					if tiered {
						ans, err := rd.ReadTxn(ctx, txn)
						if err != nil {
							return
						}
						stats.observe(txn, ans)
					} else if _, err := s.SubmitTxn(ctx, txn); err != nil {
						return
					}
					if measuring.Load() {
						completed.Add(1)
						latencySum.Add(int64(time.Since(start)))
					}
				}
			}(s)
		}
	}
}

// buildReplica constructs one replica of the selected protocol. A non-nil
// adv installs the shared Byzantine adversary spec on it (chaos scenarios).
func buildReplica(opts Options, cfg protocol.Config, ring *crypto.KeyRing, tr network.Transport, ropts protocol.RuntimeOptions, adv *protocol.AdversarySpec) (replicaHandle, error) {
	switch opts.Protocol {
	case PoE:
		return poe.New(cfg, ring, tr, poe.Options{RuntimeOptions: ropts, Adversary: adv})
	case PBFT:
		return pbft.New(cfg, ring, tr, pbft.Options{RuntimeOptions: ropts, Adversary: adv})
	case Zyzzyva:
		return zyzzyva.New(cfg, ring, tr, zyzzyva.Options{RuntimeOptions: ropts, Adversary: adv})
	case SBFT:
		return sbft.New(cfg, ring, tr, sbft.Options{RuntimeOptions: ropts, Adversary: adv, CollectorTimeout: opts.CollectorTimeout})
	case HotStuff:
		return hotstuff.New(cfg, ring, tr, hotstuff.Options{RuntimeOptions: ropts, Adversary: adv})
	default:
		return nil, fmt.Errorf("harness: unknown protocol %q", opts.Protocol)
	}
}

func buildClient(opts Options, i int, ring *crypto.KeyRing, net network.Net) (submitter, error) {
	id := types.ClientID(types.ClientIDBase) + types.ClientID(i)
	tr := net.Join(types.ClientNode(id))
	switch opts.Protocol {
	case Zyzzyva:
		return zyzzyva.NewClient(zyzzyva.ClientConfig{
			ID: id, N: opts.N, F: opts.F, Scheme: opts.Scheme,
			SpecTimeout: opts.ClientTimeout,
		}, ring, tr)
	case SBFT:
		verifier := crypto.NewVerifier(ring, opts.N-opts.F,
			opts.Scheme == crypto.SchemeTS || opts.Scheme == crypto.SchemeED)
		return client.New(client.Config{
			ID: id, N: opts.N, F: opts.F, Scheme: opts.Scheme,
			Quorum:  1,
			Timeout: opts.ClientTimeout,
			CertAccept: func(m *protocol.Inform) bool {
				return len(m.Cert) > 0 && verifier.Verify(sbft.ExecPayload(m.Seq, m.OrderProof), m.Cert)
			},
		}, ring, tr)
	case PBFT:
		return client.New(client.Config{
			ID: id, N: opts.N, F: opts.F, Scheme: opts.Scheme,
			Quorum: opts.F + 1, Timeout: opts.ClientTimeout,
		}, ring, tr)
	case HotStuff:
		return client.New(client.Config{
			ID: id, N: opts.N, F: opts.F, Scheme: opts.Scheme,
			Quorum: opts.F + 1, Timeout: opts.ClientTimeout,
			BroadcastRequests: true,
		}, ring, tr)
	default: // PoE: nf identical replies — the proof of execution
		return client.New(client.Config{
			ID: id, N: opts.N, F: opts.F, Scheme: opts.Scheme,
			Quorum: opts.N - opts.F, Timeout: opts.ClientTimeout,
		}, ring, tr)
	}
}
