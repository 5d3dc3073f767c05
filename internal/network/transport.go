// Package network provides the message transports the consensus protocols
// run over, and the fault-injection fabric the robustness scenarios drive
// them through. Three pieces:
//
//   - ChanNet, the in-process network used by tests, benchmarks, and the
//     harness: a send marshals once with the wire codec (internal/wire) and
//     every receiver decodes its own copy, as over TCP, plus an optional
//     per-destination send cost standing for the syscall cost broadcasts
//     pay in a real deployment (DESIGN.md §3). It injects no faults.
//   - TCPNet, the wire-codec-over-TCP transport the cmd/ binaries use to
//     spread a cluster across processes and machines. Messages travel as
//     length-delimited frames of the hand-written zero-reflection codec.
//   - FaultNet, the composable chaos fabric (DESIGN.md §6) and the only
//     place faults are injected: it wraps any Net (or, via Wrap, any bare
//     Transport, including TCPNet) and applies deterministic seeded fault
//     rules on the sender side — per-link drop/delay/duplicate/reorder,
//     dynamic partitions that lose or queue their traffic, crash markers,
//     per-sender Byzantine mutators — with a Plan API for scheduling rule
//     changes mid-run.
//
// Both transports carry only wire.Register-ed message types, and both hand
// each receiver a message no other node holds, so a receiver may memoize
// into what it received. Protocols only see the Transport interface;
// harnesses compose networks through Net. Authenticated communication is
// layered above the transport by the protocols themselves (crypto package),
// matching the paper's model where the network is unreliable and
// unauthenticated. Two consequences shape the fault fabric: a receiving
// replica installs its authentication check on its transport (SetCheck),
// which runs it where the message is read or delivered — so whatever the
// fabric corrupts is verified, and dropped, before it reaches the replica's
// inbox or event loop; and network-level tampering can never forge protocol
// state, which is why effective equivocation is injected above the transport
// via protocol.AdversarySpec rather than by a FaultNet mutator.
package network

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"

	"github.com/poexec/poe/internal/types"
)

// Envelope is one routed message.
type Envelope struct {
	From types.NodeID
	To   types.NodeID
	Msg  any
	// Owned is read by nothing: every transport hands each receiver a
	// message it owns exclusively. It remains only because the bench
	// package's verifier probe sets it, and goes with that probe.
	Owned bool
	// Checked marks an envelope that passed the check the receiver
	// installed with SetCheck. The receiver dispatches it without checking
	// it again; an unmarked envelope — queued before the check was
	// installed, or looped back by the sender to itself — it checks itself.
	Checked bool
}

// Transport is one node's connection to the network.
type Transport interface {
	// Node returns the address this transport was joined as.
	Node() types.NodeID
	// Send delivers msg to the given node. Send never blocks the caller
	// indefinitely; delivery is best-effort (messages may be dropped or
	// delayed by fault injection or by the wire).
	Send(to types.NodeID, msg any)
	// Broadcast delivers msg to every node in tos, encoding the message at
	// most once: a transport that serializes (TCPNet) marshals one frame
	// and writes the same bytes to every peer. Delivery semantics per
	// destination are identical to Send. The transport does not retain tos.
	Broadcast(tos []types.NodeID, msg any)
	// Inbox is the stream of messages addressed to this node. It is closed
	// when the transport is closed.
	Inbox() <-chan Envelope
	// SetCheck installs the receiver's check on inbound envelopes. From
	// then on the transport runs it on the goroutine that reads or delivers
	// each envelope, before the envelope enters the inbox: one that fails
	// is dropped, one that passes arrives marked Checked. The check may
	// memoize into env.Msg, which no other node holds, and must be safe for
	// concurrent use. Nil removes it.
	SetCheck(check func(env *Envelope) bool)
	// Close detaches the node from the network.
	Close() error
}

// ingress holds a transport's installed check. Transports embed it for
// their SetCheck.
type ingress struct {
	check atomic.Pointer[func(*Envelope) bool]
}

// SetCheck implements Transport.
func (in *ingress) SetCheck(check func(env *Envelope) bool) {
	if check == nil {
		in.check.Store(nil)
		return
	}
	in.check.Store(&check)
}

// pass runs the installed check on env and marks it Checked if it passes.
// It reports false only for an envelope the check rejected.
func (in *ingress) pass(env *Envelope) bool {
	check := in.check.Load()
	if check == nil {
		return true
	}
	if !(*check)(env) {
		return false
	}
	env.Checked = true
	return true
}

// unencodable counts the messages either transport dropped because their
// type does not implement wire.Message; warned holds the type names already
// logged.
var (
	unencodable atomic.Int64
	warned      sync.Map
)

// Unencodable returns how many messages ChanNet and TCPNet have dropped,
// process-wide, because their type does not implement wire.Message: nothing
// can go on the wire, in process or over TCP. A nonzero value means some
// message type was never given a wire.go implementation.
func Unencodable() int64 { return unencodable.Load() }

// noteUnencodable counts a dropped codec-less message and logs its type
// once, so a missing codec is loud exactly once per type instead of a silent
// livelock.
func noteUnencodable(msg any) {
	unencodable.Add(1)
	name := fmt.Sprintf("%T", msg)
	if _, seen := warned.LoadOrStore(name, true); !seen {
		log.Printf("network: dropping %s: type does not implement wire.Message (missing wire codec)", name)
	}
}

// Announce makes this node reachable from the replicas [0, n) before it has
// sent any of them a message, on transports where that takes a step (TCPNet;
// see its Announce). The in-process networks address every joined node
// directly, so there it does nothing — no message is sent and no fault
// decision is drawn.
func Announce(t Transport, n int) {
	a, ok := t.(interface{ Announce(tos []types.NodeID) })
	if !ok {
		return
	}
	tos := make([]types.NodeID, n)
	for i := range tos {
		tos[i] = types.ReplicaNode(types.ReplicaID(i))
	}
	a.Announce(tos)
}

// Broadcast sends msg to the replicas [0, n) via t, excluding self if
// skipSelf is set. It mirrors the paper's "broadcast to all replicas",
// funneling into the transport's marshal-once Broadcast path.
func Broadcast(t Transport, n int, msg any, skipSelf bool) {
	self := t.Node()
	tos := make([]types.NodeID, 0, n)
	for i := 0; i < n; i++ {
		to := types.ReplicaNode(types.ReplicaID(i))
		if skipSelf && to == self {
			continue
		}
		tos = append(tos, to)
	}
	t.Broadcast(tos, msg)
}
