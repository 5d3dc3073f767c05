package protocol

import "github.com/poexec/poe/internal/types"

// AdversarySpec is the Byzantine behaviour specification: one declarative
// description of a faulty leader that every protocol package understands.
// The harness and tests install a spec on exactly one replica (via each
// protocol's Options.Adversary); that replica then misbehaves on its
// propose/certify paths whenever it holds the leader role, while its backup
// roles stay honest — the classic "corrupt primary" adversary of the
// paper's Example 3 and of DESIGN.md §6.
//
// How each protocol applies the spec (proposals go through Runtime.FanOut;
// the leader-side message is re-signed with the faulty replica's real keys,
// so honest verifiers accept it — this is equivocation, not corruption):
//
//   - PoE: PROPOSE variants/suppression per backup; SilenceCertificates
//     withholds the CERTIFY broadcast in the threshold-signature mode
//     (Example 3's darkness attack).
//   - PBFT: PRE-PREPARE variants/suppression per backup.
//   - SBFT: PRE-PREPARE variants/suppression; SilenceCertificates makes the
//     collector withhold FULL-COMMIT-PROOF.
//   - Zyzzyva: ORDER-REQ variants (with a consistently re-derived history
//     digest, so victims speculatively execute the conflicting batch) and
//     suppression per backup.
//   - HotStuff: proposal variants/suppression per replica in rounds where
//     the faulty replica leads.
//
// A nil *AdversarySpec everywhere means an honest replica; the methods are
// nil-safe so call sites need no guards.
type AdversarySpec struct {
	// EquivocateTo lists the replicas that receive a conflicting — but
	// well-formed and correctly signed — variant of every proposal instead
	// of the real one. All listed replicas receive the same variant.
	EquivocateTo map[types.ReplicaID]bool
	// SilenceTo lists the replicas that receive no proposals at all (kept
	// in the dark).
	SilenceTo map[types.ReplicaID]bool
	// SilenceCertificates withholds leader-distributed certificates (PoE's
	// CERTIFY, SBFT's FULL-COMMIT-PROOF): backups support but can never
	// commit, so the failure detector must fire.
	SilenceCertificates bool
	// Forged, when set, changes what the equivocation targets receive: the
	// real batch with this request appended — one the leader never verified,
	// such as a colluding client's whose MAC tags convince some backups and
	// whose signature convinces nobody.
	Forged *types.Request
}

// ProposeAction is what a faulty leader does with one proposal destination.
type ProposeAction int

// The three per-destination behaviours of a Byzantine proposer.
const (
	ProposeHonest ProposeAction = iota
	ProposeEquivocate
	ProposeSilence
)

// SignedProposal is a leader's proposal message: its broadcast
// authenticator covers SignedPayload.
type SignedProposal interface {
	SignedPayload() []byte
	SetAuth(auth [][]byte)
}

// FanOut sends a leader's proposal m to every other replica. An honest
// leader (adv nil) takes the payload on the event loop — memoizing the batch
// digest before the message is shared — signs on the egress pool and
// broadcasts in order. A Byzantine leader signs inline (the attack path is
// not the hot path) and applies adv per destination: the equivocation
// targets all receive one variant, built by variant and signed once, the
// silenced receive nothing, the rest receive m.
func (rt *Runtime) FanOut(m SignedProposal, adv *AdversarySpec, variant func() SignedProposal) {
	if adv == nil {
		payload := m.SignedPayload()
		rt.Egress.Enqueue(
			func() { m.SetAuth(rt.AuthBroadcast(payload)) },
			func() { rt.Broadcast(m) },
			nil)
		return
	}
	m.SetAuth(rt.AuthBroadcast(m.SignedPayload()))
	var v SignedProposal
	for _, to := range rt.peers {
		switch adv.ActionFor(to.Replica()) {
		case ProposeSilence:
		case ProposeEquivocate:
			if v == nil {
				v = variant()
				v.SetAuth(rt.AuthBroadcast(v.SignedPayload()))
			}
			rt.Net.Send(to, v)
		default:
			rt.Net.Send(to, m)
		}
	}
}

// ActionFor returns the leader's behaviour toward one destination. Nil-safe.
func (a *AdversarySpec) ActionFor(to types.ReplicaID) ProposeAction {
	switch {
	case a == nil:
		return ProposeHonest
	case a.SilenceTo[to]:
		return ProposeSilence
	case a.EquivocateTo[to]:
		return ProposeEquivocate
	default:
		return ProposeHonest
	}
}

// SilenceCert reports whether leader-distributed certificates for this
// sequence number are withheld. Nil-safe.
func (a *AdversarySpec) SilenceCert(types.SeqNum) bool {
	return a != nil && a.SilenceCertificates
}

// Variant derives the batch the equivocation targets receive in place of b:
// b with the Forged request appended when one is set, EquivocateBatch(b)
// otherwise.
func (a *AdversarySpec) Variant(b types.Batch) types.Batch {
	if a.Forged == nil {
		return EquivocateBatch(b)
	}
	v := b.Clone()
	return types.Batch{Requests: append(v.Requests, *a.Forged), ZeroPayload: v.ZeroPayload, ZeroCount: v.ZeroCount}
}

// EquivocateBatch derives the conflicting variant batch a Byzantine leader
// proposes to its equivocation targets. The variant must (1) carry a
// different batch digest — otherwise it is not an equivocation — and
// (2) still pass honest verification, which checks every client signature;
// so rather than tampering with any request (the signature would break and
// the pipeline would drop the whole proposal, degrading the attack to
// silence), the variant reorders or duplicates the *legitimately signed*
// requests: batch digests hash the request-digest sequence, so both edits
// change the digest while every signature stays valid. Deterministic, so
// all equivocation targets see the same variant.
func EquivocateBatch(b types.Batch) types.Batch {
	v := b.Clone()
	switch {
	case len(v.Requests) >= 2:
		for i, j := 0, len(v.Requests)-1; i < j; i, j = i+1, j-1 {
			v.Requests[i], v.Requests[j] = v.Requests[j], v.Requests[i]
		}
	case len(v.Requests) == 1:
		v.Requests = append(v.Requests, v.Requests[0])
	default:
		// Zero-payload batch: the dummy-execution count is part of the
		// digest.
		v.ZeroCount++
	}
	return types.Batch{Requests: v.Requests, ZeroPayload: v.ZeroPayload, ZeroCount: v.ZeroCount}
}

// EquivocateHalf builds the quorum-splitting equivocator: the faulty leader
// sends the variant batch to every second other replica starting with the
// first — ⌈(n−1)/2⌉ receivers, the larger half. The honest side is then the
// leader plus ⌊(n−1)/2⌋ backups, and for every n ≥ 4 both sides stay below
// the n−f support quorum (at n=4: 2 variant receivers and a 2-strong honest
// side against a quorum of 3), so nothing can commit and the view must
// change — the strongest safety test the paper's Example 3(1) describes.
// Rounding the other way would leave the honest side at quorum strength for
// small n and quietly degrade the attack to a single lagging victim.
func EquivocateHalf(n int, faulty types.ReplicaID) *AdversarySpec {
	spec := &AdversarySpec{EquivocateTo: make(map[types.ReplicaID]bool)}
	parity := 0
	for i := 0; i < n; i++ {
		id := types.ReplicaID(i)
		if id == faulty {
			continue
		}
		if parity%2 == 0 {
			spec.EquivocateTo[id] = true
		}
		parity++
	}
	return spec
}

// DarkQuorum builds the selective-silence adversary of Example 3(2): the
// faulty leader keeps f replicas in the dark. The remaining n−f can still
// decide, so the protocol keeps committing while the dark replicas must
// recover through state transfer.
func DarkQuorum(n, f int, faulty types.ReplicaID) *AdversarySpec {
	spec := &AdversarySpec{SilenceTo: make(map[types.ReplicaID]bool)}
	for i := n - 1; i >= 0 && len(spec.SilenceTo) < f; i-- {
		id := types.ReplicaID(i)
		if id == faulty {
			continue
		}
		spec.SilenceTo[id] = true
	}
	return spec
}
