package network

import (
	"bytes"
	"sync"
	"time"

	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/wire"
)

// ChanNet is an in-process network: every joined node owns a buffered inbox
// channel. It behaves like TCPNet without the sockets: a send marshals the
// message once with its wire codec, and each addressee decodes its own copy
// of the bytes, so no two nodes ever share a message and a type with no codec
// is dropped here exactly as it is on TCP. ChanNet injects no faults; wrap it
// in a FaultNet for crashes, cuts, partitions, delays and drops.
//
// ChanNet is safe for concurrent use.
type ChanNet struct {
	mu       sync.RWMutex
	inboxes  map[types.NodeID]*chanTransport
	sendCost time.Duration
	closed   bool
}

// ChanNetOption configures a ChanNet.
type ChanNetOption func(*ChanNet)

// WithSendCost charges the sender this much CPU time per destination (busy
// wait), standing for the write(2) and per-destination cost every real
// deployment pays beyond serialization — the cost that makes
// quadratic-communication protocols lose at scale (see DESIGN.md §3).
func WithSendCost(d time.Duration) ChanNetOption {
	return func(c *ChanNet) { c.sendCost = d }
}

// inboxSize is the capacity of every node's inbox, on both transports: deep
// enough that the bursts of a healthy run never fill it. A full inbox sheds
// the message; protocols retransmit.
const inboxSize = 65536

// NewChanNet creates an empty in-process network.
func NewChanNet(opts ...ChanNetOption) *ChanNet {
	c := &ChanNet{inboxes: make(map[types.NodeID]*chanTransport)}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Join attaches a node and returns its transport. Joining an address twice
// replaces the previous inbox (the old transport keeps draining but receives
// nothing new).
func (c *ChanNet) Join(node types.NodeID) Transport {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &chanTransport{net: c, node: node, inbox: make(chan Envelope, inboxSize)}
	c.inboxes[node] = t
	return t
}

// Close shuts the network down; all inboxes are closed.
func (c *ChanNet) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for _, t := range c.inboxes {
		close(t.inbox)
	}
	c.inboxes = make(map[types.NodeID]*chanTransport)
}

// busyWait burns d of the caller's CPU, modelling sender-side work the
// in-process transport would otherwise skip.
func busyWait(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

// send marshals msg into one frame and delivers it to every destination in
// turn, paying the send cost each time.
func (c *ChanNet) send(from types.NodeID, tos []types.NodeID, msg any) {
	m, ok := msg.(wire.Message)
	if !ok {
		noteUnencodable(msg)
		return
	}
	frame := wire.AppendFrame(wire.GetBuf(), int32(from), m)
	for _, to := range tos {
		busyWait(c.sendCost)
		c.deliver(from, to, frame)
	}
	wire.PutBuf(frame)
}

// deliver hands one frame to its destination. The decode and the receiver's
// check run here, on the delivering goroutine and before the inbox, one
// delivery per sender at a time, as on a TCP connection: a sender's messages
// enter the inbox in the order they reached deliver, however long each one's
// check takes. The decoded message aliases a copy of the frame that only this
// receiver holds.
func (c *ChanNet) deliver(from, to types.NodeID, frame []byte) {
	c.mu.RLock()
	dst, ok := c.inboxes[to]
	c.mu.RUnlock()
	if !ok {
		return
	}
	link := dst.link(from)
	link.Lock()
	defer link.Unlock()
	_, msg, err := wire.DecodeFrame(bytes.Clone(frame[4:]))
	if err != nil {
		return
	}
	env := Envelope{From: from, To: to, Msg: msg}
	if !dst.pass(&env) {
		return
	}
	// Hold the read lock across the send: Close and transport Close take the
	// write lock before closing an inbox, so a send can never race a close —
	// the re-checks below see any close that happened since the inbox was
	// looked up. The send is non-blocking, so the lock is held only
	// momentarily.
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed || c.inboxes[to] != dst {
		return
	}
	select {
	case dst.inbox <- env:
	default:
		// Inbox full: shed load like a congested switch. Protocols already
		// tolerate loss via timeouts and retransmission.
	}
}

type chanTransport struct {
	ingress
	net   *ChanNet
	node  types.NodeID
	inbox chan Envelope

	// links serializes the deliveries of each sender to this node.
	linksMu sync.Mutex
	links   map[types.NodeID]*sync.Mutex
}

// link returns the lock that orders from's deliveries to this node.
func (t *chanTransport) link(from types.NodeID) *sync.Mutex {
	t.linksMu.Lock()
	defer t.linksMu.Unlock()
	m, ok := t.links[from]
	if !ok {
		if t.links == nil {
			t.links = make(map[types.NodeID]*sync.Mutex)
		}
		m = &sync.Mutex{}
		t.links[from] = m
	}
	return m
}

func (t *chanTransport) Node() types.NodeID { return t.node }

func (t *chanTransport) Send(to types.NodeID, msg any) {
	t.net.send(t.node, []types.NodeID{to}, msg)
}

func (t *chanTransport) Broadcast(tos []types.NodeID, msg any) { t.net.send(t.node, tos, msg) }

func (t *chanTransport) Inbox() <-chan Envelope { return t.inbox }

func (t *chanTransport) Close() error {
	t.net.mu.Lock()
	defer t.net.mu.Unlock()
	if t.net.inboxes[t.node] == t {
		delete(t.net.inboxes, t.node)
		close(t.inbox)
	}
	return nil
}
