package harness

// Chaos scenarios: the harness-level entry point to the fault fabric
// (network.FaultNet) and the cross-protocol Byzantine adversary spec
// (protocol.AdversarySpec). One RunChaos call runs any of the five
// protocols under a scripted combination of a Byzantine leader, dynamic
// partitions with heal, scheduled crashes, and lossy/slow links — then
// checks the two properties every scenario in docs/SCENARIOS.md reduces to:
//
//	safety:   all honest replicas share an executed-batch digest prefix
//	          (pairwise, over every sequence number both retain), and each
//	          honest ledger is internally hash-linked;
//	liveness: client-visible throughput resumes after the last scheduled
//	          disruption (view change completed, partition healed).
//
// The fault taxonomy and which layer injects each fault class are laid out
// in DESIGN.md §6.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/storage"
	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/workload"
)

// Attack names a Byzantine behaviour for the faulty replica.
type Attack string

// The attack library. Each maps to a protocol.AdversarySpec the faulty
// replica applies whenever it holds the leader role.
const (
	// AttackNone runs every replica honest.
	AttackNone Attack = ""
	// AttackEquivocate is the quorum-splitting equivocator (Example 3(1)):
	// half the backups receive a conflicting, validly signed batch, so
	// neither version can gather n−f support and the view must change.
	AttackEquivocate Attack = "equivocate"
	// AttackDark keeps f backups in the dark (Example 3(2)): the cluster
	// keeps deciding without them; the dark replicas recover via state
	// transfer.
	AttackDark Attack = "dark"
	// AttackSilenceCert withholds leader-distributed certificates (PoE's
	// CERTIFY, SBFT's FULL-COMMIT-PROOF): backups prepare but cannot
	// commit, forcing the failure detector to fire.
	AttackSilenceCert Attack = "silence-cert"
	// AttackForge has the leader collude with a client: every backup receives
	// the real batch plus one request the leader never verified — its
	// signature is invalid, and of its MAC tags only the one for the next
	// view's primary is genuine. That backup accepts the proposals, the
	// others drop them, nothing gathers a quorum and the view changes; the
	// forged request must then never surface again, because accepting it on
	// a tag made no replica willing to propose it.
	AttackForge Attack = "forge"
)

// forgedKey is the record the AttackForge request writes: finding it in an
// honest replica's store means the forgery was executed.
const forgedKey = "harness/forged"

// ChaosOptions configure one chaos run. All offsets are measured from the
// start of the measurement window (after warmup), matching the scenario
// notation "at t=2s, partition {0,1} from {2,3}".
type ChaosOptions struct {
	Options

	// Attack is the Byzantine behaviour of replica Faulty (default:
	// replica 0, the view-0 primary — so the attack bites immediately).
	Attack Attack
	Faulty int

	// PartitionAt/HealAt schedule a partition of Isolate against the rest
	// of the replicas and its heal. Both must be set to enable; clients are
	// never partitioned. Isolate defaults to {N-1}; isolating ≥ f+1
	// replicas (e.g. half the cluster) denies everyone a quorum and stalls
	// the run until heal.
	PartitionAt, HealAt time.Duration
	Isolate             []int
	// ReliablePartition queues the blocked traffic and delivers it at heal
	// (a partition over TCP); otherwise it is lost (datagram semantics).
	ReliablePartition bool

	// Faults, when non-zero, is applied to every replica↔replica link for
	// the whole run — the lossy-link soak.
	Faults network.LinkFaults

	// Plan appends extra scheduled fabric steps (offsets from measurement
	// start, like PartitionAt).
	Plan *network.Plan

	// CompareStable caps the final prefix-agreement check at each replica
	// pair's lowest stable checkpoint (the nf-certified prefix). Zyzzyva
	// needs it under view-change storms: its speculative suffix is
	// uncertified by design, and a replica that missed the repairing view
	// change can legitimately end the run with a divergent tail — the
	// quorum-certified checkpoints are its actual agreement guarantee.
	CompareStable bool
}

// ChaosReport is the outcome of a chaos run.
type ChaosReport struct {
	Result

	// CompletedAtEvent and CompletedAfterEvent split Completed at the
	// moment the last scheduled disruption ended (HealAt, or mid-window for
	// pure-attack runs): liveness means CompletedAfterEvent > 0.
	CompletedAtEvent    int64
	CompletedAfterEvent int64

	// PrefixMatch reports the safety check over every honest replica pair:
	// internally hash-linked ledgers agreeing on batch digest and view
	// wherever both chains hold a block. Divergence describes the first
	// violation.
	PrefixMatch bool
	Divergence  string

	// MinHonestSeq/MaxHonestSeq are the lowest and highest last-executed
	// sequence numbers among honest replicas at the end of the run.
	MinHonestSeq, MaxHonestSeq types.SeqNum

	// Net counts the fabric's decisions (sent/dropped/queued/flushed...).
	Net network.FaultStats

	// ForgedExecuted counts the honest replicas that executed AttackForge's
	// request; anything but 0 is a violation.
	ForgedExecuted int
}

// adversaryFor materializes the attack's spec for the faulty replica.
func adversaryFor(opts ChaosOptions, ring *crypto.KeyRing) (*protocol.AdversarySpec, error) {
	switch opts.Attack {
	case AttackNone:
		return nil, nil
	case AttackEquivocate:
		return protocol.EquivocateHalf(opts.N, types.ReplicaID(opts.Faulty)), nil
	case AttackDark:
		return protocol.DarkQuorum(opts.N, opts.F, types.ReplicaID(opts.Faulty)), nil
	case AttackSilenceCert:
		return &protocol.AdversarySpec{SilenceCertificates: true}, nil
	case AttackForge:
		// The colluding client is outside the load generator's identities.
		c := types.ClientID(types.ClientIDBase) + 1<<16
		req := protocol.SignRequest(ring.NodeKeys(types.ClientNode(c)), crypto.SchemeMAC, opts.N, types.Transaction{
			Client: c, Seq: 1,
			Ops: []types.Op{{Kind: types.OpWrite, Key: forgedKey, Value: []byte("forged")}},
		})
		for i := range req.Sig {
			req.Sig[i] ^= 0xff
		}
		next := (opts.Faulty + 1) % opts.N
		for i := range req.Auth {
			if i/crypto.RequestTagSize != next {
				req.Auth[i] ^= 0xff
			}
		}
		spec := &protocol.AdversarySpec{EquivocateTo: make(map[types.ReplicaID]bool), Forged: &req}
		for i := 0; i < opts.N; i++ {
			if i != opts.Faulty {
				spec.EquivocateTo[types.ReplicaID(i)] = true
			}
		}
		return spec, nil
	default:
		return nil, fmt.Errorf("harness: unknown attack %q", opts.Attack)
	}
}

// RunChaos executes one chaos scenario and reports safety and liveness.
func RunChaos(opts ChaosOptions) (ChaosReport, error) {
	opts.Options = opts.Options.withDefaults()
	if opts.Faulty < 0 || opts.Faulty >= opts.N {
		return ChaosReport{}, fmt.Errorf("harness: faulty replica %d out of range", opts.Faulty)
	}
	if (opts.PartitionAt > 0) != (opts.HealAt > 0) || opts.HealAt < opts.PartitionAt {
		return ChaosReport{}, fmt.Errorf("harness: need 0 < PartitionAt < HealAt (got %v, %v)", opts.PartitionAt, opts.HealAt)
	}
	ring := crypto.NewKeyRing(opts.N, []byte(fmt.Sprintf("harness-%d", opts.Seed)))
	adv, err := adversaryFor(opts, ring)
	if err != nil {
		return ChaosReport{}, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	base := network.NewChanNet(opts.netOptions()...)
	defer base.Close()
	fn := network.NewFaultNet(base, network.WithFaultSeed(opts.Seed))
	defer fn.Close()
	if !opts.Faults.IsZero() {
		for i := 0; i < opts.N; i++ {
			for j := 0; j < opts.N; j++ {
				if i != j {
					fn.SetLink(types.ReplicaNode(types.ReplicaID(i)), types.ReplicaNode(types.ReplicaID(j)), opts.Faults)
				}
			}
		}
	}

	// Clone so appending the partition steps never mutates the caller's
	// plan (ChaosOptions stay reusable across runs).
	plan := opts.Plan.Clone()
	if opts.PartitionAt > 0 {
		isolate := opts.Isolate
		if len(isolate) == 0 {
			isolate = []int{opts.N - 1}
		}
		in := make(map[int]bool, len(isolate))
		var a, b []types.NodeID
		for _, i := range isolate {
			if i < 0 || i >= opts.N {
				return ChaosReport{}, fmt.Errorf("harness: isolate replica %d out of range", i)
			}
			in[i] = true
			a = append(a, types.ReplicaNode(types.ReplicaID(i)))
		}
		for i := 0; i < opts.N; i++ {
			if !in[i] {
				b = append(b, types.ReplicaNode(types.ReplicaID(i)))
			}
		}
		plan.PartitionAt(opts.PartitionAt, a, b, opts.ReliablePartition)
		plan.HealAt(opts.HealAt)
	}

	wcfg := workload.DefaultConfig(opts.Records)
	wcfg.Seed = opts.Seed
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
				return ChaosReport{}, err
			}
			defer st.Close()
			ropts.Storage = st
		}
		var radv *protocol.AdversarySpec
		if i == opts.Faulty {
			radv = adv
		}
		tr := fn.Join(types.ReplicaNode(types.ReplicaID(i)))
		h, err := buildReplica(opts.Options, replicaConfig(opts.Options, i), ring, tr, ropts, radv)
		if err != nil {
			return ChaosReport{}, err
		}
		replicas[i] = h
		done := make(chan struct{})
		replicaDone[i] = done
		go func(h replicaHandle) {
			h.Run(ctx)
			close(done)
		}(h)
	}

	var completed atomic.Int64
	var latencySum atomic.Int64
	var measuring atomic.Bool
	clients := make([]submitter, opts.Clients)
	for i := 0; i < opts.Clients; i++ {
		s, err := buildClient(opts.Options, i, ring, fn)
		if err != nil {
			return ChaosReport{}, err
		}
		s.Start(ctx)
		clients[i] = s
	}
	var wg sync.WaitGroup
	startLoad(ctx, &wg, opts.Options, wcfg, clients, &completed, &latencySum, &measuring, newReadStats())

	select {
	case <-time.After(opts.Warmup):
	case <-ctx.Done():
	}
	measuring.Store(true)
	runStart := time.Now()
	fn.Execute(ctx, plan)

	// eventAt marks the end of the last scheduled disruption: completions
	// after it are the liveness signal. Pure-attack runs (nothing scheduled)
	// use the window midpoint — by then the view change away from the faulty
	// leader must have happened for the run to count as live.
	eventAt := opts.HealAt
	for _, s := range planOffsets(plan) {
		if s > eventAt {
			eventAt = s
		}
	}
	if eventAt == 0 || eventAt > opts.Measure {
		eventAt = opts.Measure / 2
	}
	sleepUntil(ctx, runStart, eventAt)
	report := ChaosReport{CompletedAtEvent: completed.Load()}

	sleepUntil(ctx, runStart, opts.Measure)
	measuring.Store(false)
	elapsed := time.Since(runStart)
	cancel()
	fn.Close()
	base.Close()
	wg.Wait()
	for _, done := range replicaDone {
		<-done
	}

	total := completed.Load()
	report.CompletedAfterEvent = total - report.CompletedAtEvent
	report.Result = Result{
		Protocol:   opts.Protocol,
		N:          opts.N,
		BatchSize:  opts.BatchSize,
		Completed:  total,
		Throughput: float64(total) / elapsed.Seconds(),
	}
	if total > 0 {
		report.Result.AvgLatency = time.Duration(latencySum.Load() / total)
	}
	for _, h := range replicas {
		report.Result.addReplicaMetrics(h.Runtime().Metrics)
	}
	report.Net = fn.Stats()

	// Safety: every honest ledger internally hash-linked, plus pairwise
	// digest-prefix agreement among honest replicas. The Byzantine replica
	// is excluded — its state is unconstrained. The hash-link check runs
	// per replica (comparePrefix only verifies its first argument, which
	// would leave the highest-index replica's links unchecked).
	report.PrefixMatch = true
	first := true
	for i := 0; i < opts.N; i++ {
		if opts.Attack != AttackNone && i == opts.Faulty {
			continue
		}
		if seq, ok := replicas[i].Runtime().Exec.Chain().Verify(); !ok && report.PrefixMatch {
			report.PrefixMatch = false
			report.Divergence = fmt.Sprintf("replica %d: chain hash link broken at seq %d", i, seq)
		}
		if _, ok := replicas[i].Runtime().Exec.Store().Get(forgedKey); ok {
			report.ForgedExecuted++
		}
		last := replicas[i].Runtime().Exec.LastExecuted()
		if first || last < report.MinHonestSeq {
			report.MinHonestSeq = last
		}
		if first || last > report.MaxHonestSeq {
			report.MaxHonestSeq = last
		}
		first = false
		for j := i + 1; j < opts.N; j++ {
			if opts.Attack != AttackNone && j == opts.Faulty {
				continue
			}
			limit := types.SeqNum(^uint64(0))
			if opts.CompareStable {
				limit = replicas[i].Runtime().Exec.StableCheckpointSeq()
				if s := replicas[j].Runtime().Exec.StableCheckpointSeq(); s < limit {
					limit = s
				}
			}
			if ok, why := comparePrefixUpTo(replicas[i], replicas[j], limit); !ok && report.PrefixMatch {
				report.PrefixMatch = false
				report.Divergence = fmt.Sprintf("replicas %d vs %d: %s", i, j, why)
			}
		}
	}
	return report, nil
}

// FlakyLeaderPlan scripts a view-change storm: each of the first `rounds`
// leaders in view order (replica k leads view k in the fixed-rotation
// protocols) is isolated from the other replicas for `outage`, then healed —
// so every isolation targets exactly the leader the previous view change
// elected, forcing the cluster through one completed view change per round
// while client load continues. Rounds fire `period` apart starting at
// `start`; use outage < period so each heal lands before the next cut.
// Pass the result as ChaosOptions.Plan.
func FlakyLeaderPlan(n, rounds int, start, period, outage time.Duration) *network.Plan {
	plan := network.NewPlan()
	for k := 0; k < rounds; k++ {
		at := start + time.Duration(k)*period
		leader := types.ReplicaNode(types.ReplicaID(k % n))
		rest := make([]types.NodeID, 0, n-1)
		for i := 0; i < n; i++ {
			if i != k%n {
				rest = append(rest, types.ReplicaNode(types.ReplicaID(i)))
			}
		}
		plan.PartitionAt(at, []types.NodeID{leader}, rest, false)
		plan.HealAt(at + outage)
	}
	return plan
}

// planOffsets lists a plan's step offsets (for the event marker).
func planOffsets(p *network.Plan) []time.Duration {
	if p == nil {
		return nil
	}
	return p.Offsets()
}
