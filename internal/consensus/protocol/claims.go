package protocol

import (
	"cmp"
	"slices"

	"github.com/poexec/poe/internal/types"
)

// Claims is the table behind every peer-keyed vote count: checkpoint votes
// per sequence number, VC-REQUESTs and HotStuff NEW-VIEWs per view. Each asks
// one question (§II-D/E, Fig 5): do k distinct replicas claim x, with a
// matching digest where the claim carries one?
//
// A peer picks the numbers it claims, so each sender keeps only its claims
// within span of its own latest, at most keep of them, the lowest dropped
// first. Honest claims that still matter lie within span of each other and
// are never dropped; a sender that claims far-future numbers displaces only
// its own older claims, and its latest still counts, so state sync still
// learns that f+1 replicas are far ahead. Claims below a caller's floor (the
// stable checkpoint, the current view) are never asked about and age out as
// their senders move on: nothing needs pruning. A query binary-searches
// each sender's claims once. Not safe for concurrent use.
type Claims[K ~uint64, V any] struct {
	span K
	keep int
	by   [][]claim[K, V] // per sender, ascending
}

type claim[K ~uint64, V any] struct {
	at K
	d  types.Digest
	v  V
}

func newClaims[K ~uint64, V any](n int, span, step K) *Claims[K, V] {
	return &Claims[K, V]{span: span, keep: int(span/step) + 1, by: make([][]claim[K, V], n)}
}

// newCheckpointClaims holds checkpoint votes. Replicas vote every
// CheckpointInterval, and an honest vote still short of stable is at most one
// Window plus the checkpoint straddling its edge below the voter's latest.
func newCheckpointClaims(cfg Config) *Claims[types.SeqNum, Checkpoint] {
	return newClaims[types.SeqNum, Checkpoint](cfg.N, types.SeqNum(cfg.Window)+cfg.CheckpointInterval, cfg.CheckpointInterval)
}

// NewViewClaims holds view-change claims. A replica claims views one at a
// time as its timeouts expire, so a claim n views below its latest is one
// it has given up on: it has since asked for a view led by every replica.
func NewViewClaims[V any](cfg Config) *Claims[types.View, V] {
	return newClaims[types.View, V](cfg.N, types.View(cfg.N), 1)
}

// Put records from's claim of at, replacing the one it holds there. A claim
// more than span below the sender's latest is stale and dropped.
func (c *Claims[K, V]) Put(from types.ReplicaID, at K, d types.Digest, v V) {
	if from < 0 || int(from) >= len(c.by) {
		return
	}
	cs := c.by[from]
	if n := len(cs); n > 0 && cs[n-1].at > c.span && at < cs[n-1].at-c.span {
		return
	}
	i, found := search(cs, at)
	if found {
		cs[i] = claim[K, V]{at, d, v}
		return
	}
	cs = slices.Insert(cs, i, claim[K, V]{at, d, v})
	latest, drop := cs[len(cs)-1].at, 0
	for len(cs)-drop > c.keep || (latest > c.span && cs[drop].at < latest-c.span) {
		drop++
	}
	c.by[from] = slices.Delete(cs, 0, drop)
}

// search finds at in one sender's claims, or where it would go.
func search[K ~uint64, V any](cs []claim[K, V], at K) (int, bool) {
	return slices.BinarySearchFunc(cs, at, func(cl claim[K, V], at K) int { return cmp.Compare(cl.at, at) })
}

// Has reports whether from, a replica id, holds a claim of at.
func (c *Claims[K, V]) Has(from types.ReplicaID, at K) bool {
	_, found := search(c.by[from], at)
	return found
}

// Matching returns the values of the claims of at with digest d, one per
// sender, in ascending sender order.
func (c *Claims[K, V]) Matching(at K, d types.Digest) []V {
	var out []V
	for _, cs := range c.by {
		if i, found := search(cs, at); found && cs[i].d == d {
			out = append(out, cs[i].v)
		}
	}
	return out
}

// Count returns how many distinct senders claim at with digest d.
func (c *Claims[K, V]) Count(at K, d types.Digest) int { return len(c.Matching(at, d)) }

// AtOrAbove returns how many distinct senders claim a number at or above at,
// and the lowest such number any of them claims.
func (c *Claims[K, V]) AtOrAbove(at K) (senders int, lowest K) {
	for _, cs := range c.by {
		if i, _ := search(cs, at); i < len(cs) {
			if senders == 0 || cs[i].at < lowest {
				lowest = cs[i].at
			}
			senders++
		}
	}
	return senders, lowest
}
