package protocol

import (
	"context"
	"sync"
	"sync/atomic"

	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/types"
)

// This file implements the authentication check on inbound messages:
// broadcast signatures/MAC vectors, per-request client signatures, threshold
// shares are verified *before* dispatch. The replica installs the check on
// its transport (Runtime.Run), which runs it on the goroutine that reads or
// delivers each message — a TCP connection's read goroutine, or the
// in-process sender — so a message crosses one goroutine hand-off, into the
// replica's inbox, and the single-threaded state machine never executes an
// Ed25519 verification in the normal case. Handlers either trust that
// delivery implies validity (messages failing the check are dropped before
// the inbox) or re-check through the crypto layer's verified-share and
// certificate memo, which the check has already warmed.
//
// PoE's evaluation ran on ResilientDB, which pipelines signature
// verification and ordering across threads (§III of the paper). Here the
// parallelism comes from the connections: each TCP connection checks its
// own frames, in the order it read them, concurrently with the others and
// with the event loop.
//
// Ownership rule: the in-process transport delivers the *same* message
// pointer to every addressee, so a VerifyFunc must never mutate the inbound
// message. Messages carrying batches or requests are cloned (types.Batch
// Clone / CloneRequest) and the envelope is rewritten to the owned copy;
// digest memoization then happens on the clone, off the event loop, and the
// memo travels with the value into slots, the executor, and replies.

// VerifyFunc checks one inbound envelope. Returning false drops the message
// before dispatch. The function runs on transport goroutines, several at
// once: it must only touch immutable or internally synchronized state
// (Config, NodeKeys, KeyRing, ThresholdScheme, the Verifier's digest table),
// never replica state. It may rewrite env.Msg with an owned clone.
type VerifyFunc func(env *network.Envelope) bool

// Verifier is the inbound authentication check of one replica, with the
// digest table its share checks read.
type Verifier struct {
	verify VerifyFunc

	// digests maps (kind, view, seq) to the payload that threshold shares of
	// that phase sign. The event loop registers payloads as soon as it knows
	// them (NoteDigest); the check then verifies arriving shares off-loop,
	// warming the crypto layer's share memo and dropping invalid shares
	// early. The table is purely an optimization: a miss passes the message
	// through, and the event loop's own (memoized) checks remain the
	// authority.
	mu      sync.RWMutex
	digests map[digestKey][]byte

	// Verified and Dropped count messages that passed and failed the check.
	Verified atomic.Int64
	Dropped  atomic.Int64
}

type digestKey struct {
	kind uint8
	view types.View
	seq  types.SeqNum
}

// maxDigestKinds bounds the per-protocol phase kinds ForgetDigests clears.
const maxDigestKinds = 4

// digestTableCap bounds the digest table; overflow clears it (only an
// optimization is lost).
const digestTableCap = 8192

// NewVerifier creates the check running verify. workers is ignored — the
// check runs on the goroutines that call Check, or on Pipe's one goroutine —
// and is kept only because the benchmark's layer probes (bench/layers.go)
// still pass it.
func NewVerifier(verify VerifyFunc, workers int) *Verifier {
	return &Verifier{
		verify:  verify,
		digests: make(map[digestKey][]byte),
	}
}

// Check runs the verify function on one envelope and counts the outcome.
// It is the check a replica installs on its transport, so it runs on
// whichever goroutine reads or delivers the envelope.
func (v *Verifier) Check(env *network.Envelope) bool {
	if !v.verify(env) {
		v.Dropped.Add(1)
		return false
	}
	v.Verified.Add(1)
	return true
}

// NoteDigest registers the payload that shares of phase kind at (view, seq)
// sign. Safe for concurrent use; called by the event loop.
func (v *Verifier) NoteDigest(kind uint8, view types.View, seq types.SeqNum, payload []byte) {
	v.mu.Lock()
	if len(v.digests) >= digestTableCap {
		v.digests = make(map[digestKey][]byte)
	}
	v.digests[digestKey{kind, view, seq}] = payload
	v.mu.Unlock()
}

// PayloadFor looks up a registered share payload.
func (v *Verifier) PayloadFor(kind uint8, view types.View, seq types.SeqNum) ([]byte, bool) {
	v.mu.RLock()
	p, ok := v.digests[digestKey{kind, view, seq}]
	v.mu.RUnlock()
	return p, ok
}

// ForgetDigests drops every registered payload for (view, seq); called when
// a slot retires.
func (v *Verifier) ForgetDigests(view types.View, seq types.SeqNum) {
	v.mu.Lock()
	for kind := uint8(0); kind < maxDigestKinds; kind++ {
		delete(v.digests, digestKey{kind, view, seq})
	}
	v.mu.Unlock()
}

// Reset drops every registered payload. Replicas call it on entering a new
// view: all registered payloads belong to the old view's slots, and keeping
// them would leak entries for slots the view change abandoned or re-proposed
// under a different view.
func (v *Verifier) Reset() {
	v.mu.Lock()
	v.digests = make(map[digestKey][]byte)
	v.mu.Unlock()
}

// VerifyShareFor verifies a threshold share against the registered payload
// of (kind, view, seq). It returns false only when the payload is known and
// the share is invalid — the caller should drop the message. On a table
// miss it returns true (the event loop re-checks through the share memo).
// Intended to be called from VerifyFuncs.
func (v *Verifier) VerifyShareFor(ts crypto.ThresholdScheme, kind uint8, view types.View, seq types.SeqNum, share crypto.Share) bool {
	payload, ok := v.PayloadFor(kind, view, seq)
	if !ok {
		return true
	}
	return ts.VerifyShare(payload, share)
}

// Pipe checks the envelopes of an inbox on one goroutine, in arrival order,
// and returns the channel of those that pass, closed when the inbox closes
// or ctx is done. No replica uses it — replicas install Check on their
// transport — but it runs the same check over a plain channel.
func (v *Verifier) Pipe(ctx context.Context, in <-chan network.Envelope) <-chan network.Envelope {
	out := make(chan network.Envelope, 256)
	go func() {
		defer close(out)
		for {
			select {
			case <-ctx.Done():
				return
			case env, ok := <-in:
				if !ok {
					return
				}
				if !v.Check(&env) {
					continue
				}
				select {
				case out <- env:
				case <-ctx.Done():
					return
				}
			}
		}
	}()
	return out
}
