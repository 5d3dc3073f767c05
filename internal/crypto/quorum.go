package crypto

import "github.com/poexec/poe/internal/types"

// Quorum collects the threshold shares toward one certificate: nf shares
// over one payload, from distinct replicas, combine into it (§II-A). Every
// certificate the protocols build — PoE's SUPPORT, PBFT's PREPARE and
// COMMIT, SBFT's three share rounds, HotStuff's votes, Zyzzyva's commit
// certificate — is collected by one, under one policy:
//
//   - A replica holds at most one share, and only a share it signed itself.
//   - Once Fix has set the payload, a share is verified on insert. An
//     invalid share is refused without taking its sender's place, so the
//     sender can still send a good one.
//   - Before Fix there is nothing to verify against: shares are stashed, and
//     Fix verifies the stash once, dropping the mismatches. (Small share
//     messages overtake the large proposal that fixes the payload, and they
//     are sent exactly once: dropping an early share loses it for good.)
//   - Shares signed by self, this replica's own, are taken unchecked.
//
// So each share costs the quorum at most one verification, and a Byzantine
// share never counts toward the certificate nor makes the honest shares pay
// again. A Quorum is meant to be held by value in per-slot state: its
// map is allocated on the first Add. It is not safe for concurrent use.
type Quorum struct {
	ts      ThresholdScheme
	self    types.ReplicaID
	payload []byte // nil until Fix
	shares  map[types.ReplicaID]Share
}

// NewQuorum returns an empty quorum over ts. self names the replica whose
// shares are taken unchecked; a quorum of shares relayed by a third party,
// none of them trusted, passes -1.
func NewQuorum(ts ThresholdScheme, self types.ReplicaID) Quorum {
	return Quorum{ts: ts, self: self}
}

// Fix sets the payload the shares must sign, verifying the shares already
// held against it and dropping those that fail.
func (q *Quorum) Fix(payload []byte) {
	q.payload = payload
	for id, sh := range q.shares {
		if id != q.self && !q.ts.VerifyShare(payload, sh) {
			delete(q.shares, id)
		}
	}
}

// Add offers from's share and reports whether the quorum took it: not when
// from did not sign it, already holds a place, or — the payload fixed — sent
// an invalid share.
func (q *Quorum) Add(from types.ReplicaID, sh Share) bool {
	if sh.Signer != from || q.Has(from) {
		return false
	}
	if q.payload != nil && from != q.self && !q.ts.VerifyShare(q.payload, sh) {
		return false
	}
	if q.shares == nil {
		q.shares = make(map[types.ReplicaID]Share)
	}
	q.shares[from] = sh
	return true
}

// Len returns the number of shares held. Once the payload is fixed, every
// one of them is valid.
func (q *Quorum) Len() int { return len(q.shares) }

// Has reports whether id holds a place.
func (q *Quorum) Has(id types.ReplicaID) bool {
	_, ok := q.shares[id]
	return ok
}

// Combine aggregates the shares held into a certificate over the fixed
// payload. They are all verified already, so the scheme's own re-check is a
// memo hit for every share but this replica's.
func (q *Quorum) Combine() ([]byte, error) {
	shares := make([]Share, 0, len(q.shares))
	for _, sh := range q.shares {
		shares = append(shares, sh)
	}
	return q.ts.Combine(q.payload, shares)
}
