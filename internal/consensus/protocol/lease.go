package protocol

import (
	"sync"
	"time"

	"github.com/poexec/poe/internal/types"
)

// Lease is the read-lease state machine of the hybrid-consistency read path:
// it lets the current primary answer STRONG (linearizable) reads from its
// local executed prefix without ordering them, while guaranteeing that no
// higher view can commit conflicting writes for as long as the primary
// believes the lease valid.
//
// Both roles live in this one struct because every replica plays both:
//
//   - As a *grantor*, a replica periodically sends the primary of its
//     current view a MAC-authenticated LeaseGrant and promises not to join
//     any higher view until LeaseDuration has elapsed on its own clock since
//     the grant was produced. Protocols enforce the promise by consulting
//     CanAdvanceView before starting or joining a view change; a blocked
//     advance is retried from the regular tick, so the promise delays a view
//     change by at most one LeaseDuration. A replica stops renewing once its
//     own failure detector would fire within one LeaseDuration, or while a
//     join the promise refused is held (Skeleton.TendReads), so its own
//     suspicion is never held back and a join waits one promise at most.
//
//   - As a *holder*, the primary counts a received grant as valid for only
//     half the grantor's promise window, measured from receipt on its own
//     clock. The halved window absorbs delivery delay: the grantor's promise
//     clock started before the grant was even sent, so as long as one-way
//     delivery takes less than LeaseDuration/2 (and clock *rates* agree —
//     absolute clock synchronization is never used), the holder's validity
//     window is strictly contained in the grantor's promise window.
//
// Safety is quorum intersection, not clocks: the holder requires nf grants
// (its own implicit), a view change needs nf joiners, and the two quorums
// intersect in at least f+1 replicas — at least one non-faulty grantor whose
// unexpired promise keeps it out of the join quorum. Clocks and delay bounds
// only size the windows; when they are violated the worst case is a lease
// the holder cannot use (falls back to ordering the read), never a stale
// serve racing a committed write in a newer view, provided the containment
// assumption above holds. On view change ResetHolder discards all grants.
type Lease struct {
	mu  sync.Mutex
	cfg Config

	// Now is the clock, injectable by tests. Defaults to time.Now.
	Now func() time.Time

	// grantor side: the promise currently outstanding.
	promiseUntil time.Time
	promisedView types.View
	lastGrantAt  time.Time

	// holder side: per-grantor validity deadlines for holderView.
	holderView types.View
	grants     map[types.ReplicaID]time.Time
}

// NewLease builds the lease state machine for one replica.
func NewLease(cfg Config) *Lease {
	return &Lease{cfg: cfg, Now: time.Now, grants: make(map[types.ReplicaID]time.Time)}
}

// GrantDue reports whether the grantor should send a fresh grant for view:
// renewals go out every LeaseDuration/3 so the holder's halved validity
// windows overlap with slack, and immediately after a view switch.
func (l *Lease) GrantDue(view types.View) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if view != l.promisedView {
		return true
	}
	return l.Now().Sub(l.lastGrantAt) >= l.cfg.LeaseDuration/3
}

// NoteGranted records the promise a grant about to be sent carries. It must
// be called before the grant leaves the replica — the promise clock has to
// cover the grant's entire lifetime at the holder.
func (l *Lease) NoteGranted(view types.View) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.Now()
	l.lastGrantAt = now
	if until := now.Add(l.cfg.LeaseDuration); until.After(l.promiseUntil) || view > l.promisedView {
		l.promiseUntil = until
		l.promisedView = view
	}
}

// OnGrant records a received grant at the holder. Grants for other views are
// ignored; ResetHolder switches the holder view. The validity deadline is
// receipt time plus half the grantor's declared window (see type comment).
func (l *Lease) OnGrant(g *LeaseGrant) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if g.View != l.holderView {
		return
	}
	deadline := l.Now().Add(time.Duration(g.DurationNanos) / 2)
	if deadline.After(l.grants[g.From]) {
		l.grants[g.From] = deadline
	}
}

// HolderValid reports whether the primary of view currently holds a valid
// read lease: nf unexpired grants, counting its own implicit one.
func (l *Lease) HolderValid(view types.View) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if view != l.holderView {
		return false
	}
	now := l.Now()
	valid := 1 // own implicit grant
	for from, deadline := range l.grants {
		if from == l.cfg.ID {
			continue
		}
		if now.Before(deadline) {
			valid++
		}
	}
	return valid >= l.cfg.NF()
}

// CanAdvanceView reports whether the grantor's outstanding promise allows
// starting or joining a view change to the target view. Advancing to a view
// at or below the promised one is always allowed (the promise only protects
// the promised view's primary from *higher* views).
func (l *Lease) CanAdvanceView(to types.View) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if to <= l.promisedView {
		return true
	}
	return !l.Now().Before(l.promiseUntil)
}

// ResetHolder discards all held grants and re-targets the holder side at
// view. Protocols call it whenever their view changes; grants from the old
// view must never count toward a lease in the new one.
func (l *Lease) ResetHolder(view types.View) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if view == l.holderView {
		return
	}
	l.holderView = view
	for k := range l.grants {
		delete(l.grants, k)
	}
}
