package network

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/poexec/poe/internal/types"
)

// ChanNet is an in-process network: every joined node owns a buffered inbox
// channel and sends are direct channel writes. It supports the fault
// injection the paper's experiments need — crashed replicas (Fig 9 single
// backup failure, Fig 10 primary failure), link delays (Fig 11's
// message-delay regime), probabilistic drops, and partitions. The richer,
// schedulable fault rules of the chaos scenarios (per-link duplication and
// reordering, reliable partitions, fault plans, Byzantine mutators) live in
// FaultNet, which wraps a ChanNet.
//
// ChanNet is safe for concurrent use.
type ChanNet struct {
	mu        sync.RWMutex
	inboxes   map[types.NodeID]*chanTransport
	crashed   map[types.NodeID]bool
	cut       map[linkKey]bool
	delay     time.Duration
	jitter    time.Duration
	sendCost  time.Duration
	dropProb  float64
	rng       *rand.Rand
	rngMu     sync.Mutex
	buf       int
	closed    bool
	sent      atomic.Int64
	delivered atomic.Int64
	dropped   atomic.Int64
}

type linkKey struct{ from, to types.NodeID }

// ChanNetOption configures a ChanNet.
type ChanNetOption func(*ChanNet)

// WithBuffer sets the per-node inbox capacity (default 65536).
func WithBuffer(n int) ChanNetOption { return func(c *ChanNet) { c.buf = n } }

// WithDelay sets a uniform one-way link delay applied to every message, with
// optional ±jitter.
func WithDelay(d, jitter time.Duration) ChanNetOption {
	return func(c *ChanNet) { c.delay, c.jitter = d, jitter }
}

// WithDropProb sets an i.i.d. probability of dropping each message.
func WithDropProb(p float64) ChanNetOption { return func(c *ChanNet) { c.dropProb = p } }

// WithSeed seeds the network's randomness (drops, jitter) for reproducibility.
func WithSeed(seed int64) ChanNetOption {
	return func(c *ChanNet) { c.rng = rand.New(rand.NewSource(seed)) }
}

// WithSendCost charges the sender this much CPU time per message (busy
// wait). The in-process transport otherwise passes pointers, which makes
// broadcasts free and hides the per-message serialization and syscall cost
// every real deployment pays — the cost that makes quadratic-communication
// protocols lose at scale (see DESIGN.md §3). A few microseconds per message
// restores that cost structure.
func WithSendCost(d time.Duration) ChanNetOption {
	return func(c *ChanNet) { c.sendCost = d }
}

// NewChanNet creates an empty in-process network.
func NewChanNet(opts ...ChanNetOption) *ChanNet {
	c := &ChanNet{
		inboxes: make(map[types.NodeID]*chanTransport),
		crashed: make(map[types.NodeID]bool),
		cut:     make(map[linkKey]bool),
		buf:     65536,
		rng:     rand.New(rand.NewSource(1)),
	}
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
	t := &chanTransport{net: c, node: node, inbox: make(chan Envelope, c.buf)}
	c.inboxes[node] = t
	return t
}

// Crash marks a node as crashed: all traffic to and from it is dropped. This
// models the paper's crash failures without stopping the node's goroutines.
func (c *ChanNet) Crash(node types.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.crashed[node] = true
}

// Recover clears a crash mark.
func (c *ChanNet) Recover(node types.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.crashed, node)
}

// CutLink drops all messages from → to (one direction).
func (c *ChanNet) CutLink(from, to types.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cut[linkKey{from, to}] = true
}

// HealLink restores a cut link.
func (c *ChanNet) HealLink(from, to types.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.cut, linkKey{from, to})
}

// Partition cuts every link between group a and group b, both directions.
func (c *ChanNet) Partition(a, b []types.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, x := range a {
		for _, y := range b {
			c.cut[linkKey{x, y}] = true
			c.cut[linkKey{y, x}] = true
		}
	}
}

// Heal removes all cut links.
func (c *ChanNet) Heal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cut = make(map[linkKey]bool)
}

// Stats returns cumulative (sent, delivered, dropped) message counts.
func (c *ChanNet) Stats() (sent, delivered, dropped int64) {
	return c.sent.Load(), c.delivered.Load(), c.dropped.Load()
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

func (c *ChanNet) randFloat() float64 {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return c.rng.Float64()
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

func (c *ChanNet) send(from, to types.NodeID, msg any) {
	// Busy-wait on the sender's goroutine: outgoing messages consume the
	// sender's CPU the way marshalling + write(2) would.
	busyWait(c.sendCost)
	c.dispatch(from, to, msg)
}

// broadcast sends to each destination in turn, paying the send cost each time.
func (c *ChanNet) broadcast(from types.NodeID, tos []types.NodeID, msg any) {
	for _, to := range tos {
		c.send(from, to, msg)
	}
}

// dispatch runs the fault/routing pipeline for one message (cost already
// paid by the caller).
func (c *ChanNet) dispatch(from, to types.NodeID, msg any) {
	c.sent.Add(1)
	c.mu.RLock()
	if c.closed || c.crashed[from] || c.crashed[to] || c.cut[linkKey{from, to}] {
		c.mu.RUnlock()
		c.dropped.Add(1)
		return
	}
	dst, ok := c.inboxes[to]
	delay, jitter, dropProb := c.delay, c.jitter, c.dropProb
	c.mu.RUnlock()
	if !ok {
		c.dropped.Add(1)
		return
	}
	if dropProb > 0 && c.randFloat() < dropProb {
		c.dropped.Add(1)
		return
	}
	env := Envelope{From: from, To: to, Msg: msg}
	if delay == 0 && jitter == 0 {
		c.deliver(to, dst, env)
		return
	}
	d := delay
	if jitter > 0 {
		d += time.Duration((c.randFloat()*2 - 1) * float64(jitter))
		if d < 0 {
			d = 0
		}
	}
	time.AfterFunc(d, func() {
		// Re-check liveness at delivery time: crashes and cuts that happen
		// while the message is "in flight" drop it, like a real network.
		c.mu.RLock()
		dead := c.crashed[to] || c.cut[linkKey{from, to}]
		c.mu.RUnlock()
		if dead {
			c.dropped.Add(1)
			return
		}
		c.deliver(to, dst, env)
	})
}

func (c *ChanNet) deliver(to types.NodeID, dst *chanTransport, env Envelope) {
	// The receiver's check runs here, on the delivering goroutine and
	// before the lock: a rejected message never reaches the inbox. One
	// delivery per sender at a time, as on a TCP connection: a sender's
	// messages enter the inbox in the order they reached deliver, however
	// long each one's check takes.
	link := dst.link(env.From)
	link.Lock()
	defer link.Unlock()
	if !dst.pass(&env) {
		c.dropped.Add(1)
		return
	}
	// Hold the read lock across the send: Close and transport Close take the
	// write lock before closing an inbox, so a send can never race a close —
	// the re-checks below see any close that happened since the caller
	// looked the inbox up. The send is non-blocking, so the lock is held
	// only momentarily.
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed || c.inboxes[to] != dst {
		c.dropped.Add(1)
		return
	}
	select {
	case dst.inbox <- env:
		c.delivered.Add(1)
	default:
		// Inbox full: shed load like a congested switch. Protocols already
		// tolerate loss via timeouts and retransmission.
		c.dropped.Add(1)
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

func (t *chanTransport) Send(to types.NodeID, msg any) { t.net.send(t.node, to, msg) }

func (t *chanTransport) Broadcast(tos []types.NodeID, msg any) { t.net.broadcast(t.node, tos, msg) }

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
