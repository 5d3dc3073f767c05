// Package harness runs in-process clusters of any of the five protocols and
// drives them with YCSB-style client load, reproducing the paper's
// evaluation setups (§IV): warmup + measurement windows, batching, zero
// payload, mid-run backup crashes (Fig 9 a/e/i), primary crashes with
// throughput timelines (Fig 10), pipelined or closed-loop clients (Fig 9
// k/l), and the no-consensus upper-bound runs (Fig 7).
//
// One builder (cluster.go) owns the network, key ring, initial table,
// per-replica storage, replica start/crash/kill/restart, the client load,
// the measurement window, shutdown and result assembly. Four scripts run on
// it: Run (the figures, with the throughput timeline and the read-path
// audit), RunChaos (scheduled partitions with heal, lossy/reordering links
// and the Byzantine leader attacks of protocol.AdversarySpec over a
// network.FaultNet, checking digest-prefix safety and post-disruption
// liveness), and RunCrashRestart and RunColdJoin (with Options.DataDir every
// replica is durable; one replica is killed mid-run and restarted from its
// data directory — or, cold, from a wiped one — and must rejoin on the same
// executed-batch digest prefix). docs/SCENARIOS.md catalogues them.
// RunUpperBound keeps its own one-replica echo primary and shares only the
// load and measurement window.
//
// The harness substitutes the paper's Google-Cloud deployment (91 c2
// machines, 320k clients) with goroutines over the in-process channel
// network; see DESIGN.md §3 for why the protocol-relative comparisons
// survive the substitution.
package harness

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/poexec/poe/internal/client"
	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/types"
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

	// CrashBackupAfter crashes the last replica this long into the run
	// (Fig 9's mid-run failure: the cluster runs clean, then degrades).
	// Zero means never.
	CrashBackupAfter time.Duration
	// CrashPrimaryAfter crashes the view-0 primary this long into the run
	// (Fig 10). Zero means never.
	CrashPrimaryAfter time.Duration

	ViewTimeout   time.Duration
	ClientTimeout time.Duration

	// SampleEvery enables a throughput timeline with the given resolution
	// (Fig 10). Zero disables sampling.
	SampleEvery time.Duration

	// SendCost is the per-message CPU cost charged to senders, standing in
	// for the serialization/syscall cost of a real network stack (the cost
	// that penalizes quadratic protocols). Negative disables it.
	SendCost time.Duration

	// NetDelay adds a one-way link delay to every message, turning the
	// in-process network into a WAN-ish one. The out-of-order experiments
	// (Fig 9k/l, window ablation) need it: with microsecond links the
	// window never binds.
	NetDelay time.Duration

	// DataDir, when set, makes every replica durable: replica i logs its
	// executed batches and checkpoint snapshots under DataDir/replica-i.
	// Required by RunCrashRestart and RunColdJoin, optional everywhere else.
	DataDir string
	// Fsync makes durable replicas sync the WAL on every commit group
	// (machine-crash durability). Meaningless without DataDir.
	Fsync bool

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
	// LongestGap is the longest stretch of the measurement window between
	// two completed requests: under a primary crash, the outage.
	LongestGap time.Duration

	// ExecutedTxns is the number of ordered transactions every replica
	// executed — the fewest any of them did, warm-up included — and
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

	// Egress loop saturation, summed (EgressSigned) and maxed
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
func (s *readStats) audit(replicas []*replica) (checked, skipped, mismatches int64) {
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

// Run executes one experiment and reports its result. CrashBackupAfter and
// CrashPrimaryAfter count from the start of the run, before warmup.
func Run(opts Options) (Result, error) {
	opts = opts.withDefaults()
	c := newCluster(opts, false)
	defer c.stop()
	if err := c.start(); err != nil {
		return Result{}, err
	}
	c.crashAfter(opts.N-1, opts.CrashBackupAfter)
	c.crashAfter(0, opts.CrashPrimaryAfter)
	c.warmUp()

	var timeline []TimelinePoint
	if opts.SampleEvery > 0 {
		ticker := time.NewTicker(opts.SampleEvery)
		defer ticker.Stop()
		var prev int64
		for elapsed := time.Duration(0); elapsed < opts.Measure; {
			<-ticker.C
			elapsed = time.Since(c.opened)
			cur := c.completed.Load()
			timeline = append(timeline, TimelinePoint{Offset: elapsed, Throughput: float64(cur-prev) / opts.SampleEvery.Seconds()})
			prev = cur
		}
	} else {
		c.sleepUntil(opts.Measure)
	}
	c.stop()
	res := c.result()
	res.Timeline = timeline
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
