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
	"fmt"
	"time"

	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/types"
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
	c := newCluster(opts.Options)
	defer c.stop()
	adv, err := adversaryFor(opts, c.ring)
	if err != nil {
		return ChaosReport{}, err
	}
	c.adv, c.faulty = adv, opts.Faulty
	if !opts.Faults.IsZero() {
		// A per-link rule replaces the default, so it carries NetDelay too.
		lf := opts.Faults
		lf.Delay += opts.NetDelay
		for i := 0; i < opts.N; i++ {
			for j := 0; j < opts.N; j++ {
				if i != j {
					c.fn.SetLink(types.ReplicaNode(types.ReplicaID(i)), types.ReplicaNode(types.ReplicaID(j)), lf)
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

	if err := c.start(); err != nil {
		return ChaosReport{}, err
	}
	c.warmUp()
	c.fn.Execute(c.ctx, plan)

	// eventAt marks the end of the last scheduled disruption: completions
	// after it are the liveness signal. Pure-attack runs (nothing scheduled)
	// use the window midpoint — by then the view change away from the faulty
	// leader must have happened for the run to count as live.
	eventAt := opts.HealAt
	for _, s := range plan.Offsets() {
		eventAt = max(eventAt, s)
	}
	if eventAt == 0 || eventAt > opts.Measure {
		eventAt = opts.Measure / 2
	}
	c.sleepUntil(eventAt)
	report := ChaosReport{CompletedAtEvent: c.completed.Load()}
	c.sleepUntil(opts.Measure)
	c.stop()
	report.Result = c.result()
	report.CompletedAfterEvent = report.Completed - report.CompletedAtEvent
	report.Net = c.fn.Stats()

	// Safety over the honest replicas; the Byzantine one is excluded — its
	// state is unconstrained.
	var honest []int
	for i := 0; i < opts.N; i++ {
		if opts.Attack == AttackNone || i != opts.Faulty {
			honest = append(honest, i)
		}
	}
	report.PrefixMatch, report.Divergence = c.prefixSafety(honest, opts.CompareStable)
	for k, i := range honest {
		exec := c.replicas[i].Runtime().Exec
		if _, ok := exec.Store().Get(forgedKey); ok {
			report.ForgedExecuted++
		}
		last := exec.LastExecuted()
		if k == 0 || last < report.MinHonestSeq {
			report.MinHonestSeq = last
		}
		if k == 0 || last > report.MaxHonestSeq {
			report.MaxHonestSeq = last
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
