package network

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/wire"
)

// TCPNet is a transport backed by real TCP connections, used by the cmd/
// binaries to run a cluster across processes or machines. Each node listens
// on one address; outgoing connections are dialed lazily and kept open.
//
// Messages travel as frames of the hand-written zero-reflection codec:
//
//	[u32 body length][i32 sender][u16 type id][body]
//
// (internal/wire; concrete message types must be wire.Register-ed). The
// framing is stateless — unlike the gob streams it replaced, no per-stream
// type dictionary exists, so any frame decodes on any connection (a
// reconnecting client's first reply is as decodable as its hundredth) and a
// broadcast marshals ONCE and writes the identical bytes to every peer
// (Broadcast below; Encodes counts the marshals so tests can assert the
// fan-out really is marshal-once). The destination is not in the frame: TCP
// links are point-to-point, the receiver is the destination.
//
// Each connection's read goroutine decodes its frames and runs the
// receiver's installed check (SetCheck) on them before they enter the
// inbox: frames from one connection are checked and delivered in the order
// they were read, and distinct connections are checked in parallel.
type TCPNet struct {
	ingress

	node     types.NodeID
	peers    map[types.NodeID]string
	listener net.Listener

	mu    sync.Mutex
	conns map[types.NodeID]*tcpPeer

	// learned routes reply over inbound connections to nodes that are not
	// in the static address book — clients, whose listen addresses replicas
	// cannot know in advance. The address book always wins when present.
	learnedMu sync.Mutex
	learned   map[types.NodeID]*tcpPeer

	inMu    sync.Mutex
	inbound map[net.Conn]struct{}

	inbox    chan Envelope
	closedMu sync.Mutex
	closed   bool
	wg       sync.WaitGroup

	encodes atomic.Int64
}

// tcpPeer is one outgoing (or learned reply) stream. It carries no encoder
// state — frames are self-contained — so the same encoded frame can be
// written to any number of peers.
type tcpPeer struct {
	mu   sync.Mutex
	conn net.Conn
	bw   *bufio.Writer
}

// maxFrameSize bounds one decoded frame; a declared length beyond it is
// treated as a corrupt or hostile stream and the connection is dropped.
const maxFrameSize = 64 << 20

// frameStep is the first buffer a frame body is read into. The buffer at
// most doubles per refill, so it never runs more than twice ahead of the
// bytes that have arrived: a peer that declares a large frame and stalls
// costs the receiver its bytes, not its declared length.
const frameStep = 64 << 10

// NewTCPNet starts a TCP transport for node, listening on peers[node] and
// dialing the other entries on demand.
func NewTCPNet(node types.NodeID, peers map[types.NodeID]string) (*TCPNet, error) {
	addr, ok := peers[node]
	if !ok {
		return nil, fmt.Errorf("network: no listen address for node %v", node)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("network: listen %s: %w", addr, err)
	}
	t := &TCPNet{
		node:     node,
		peers:    peers,
		listener: ln,
		conns:    make(map[types.NodeID]*tcpPeer),
		learned:  make(map[types.NodeID]*tcpPeer),
		inbound:  make(map[net.Conn]struct{}),
		inbox:    make(chan Envelope, inboxSize),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the transport's bound listen address (useful with ":0").
func (t *TCPNet) Addr() string { return t.listener.Addr().String() }

// Node implements Transport.
func (t *TCPNet) Node() types.NodeID { return t.node }

// Inbox implements Transport.
func (t *TCPNet) Inbox() <-chan Envelope { return t.inbox }

// Encodes returns the number of frame marshals this transport has performed
// — the counter the marshal-once broadcast contract is asserted on.
func (t *TCPNet) Encodes() int64 { return t.encodes.Load() }

func (t *TCPNet) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return
		}
		if !t.trackConn(conn) {
			conn.Close()
			return
		}
		go t.readLoop(conn)
	}
}

// trackConn registers a connection for shutdown (inbound sweep + WaitGroup)
// and reports whether the transport is still open. The registration happens
// under closedMu so it cannot race Close: either the connection is recorded
// before Close sweeps (and the sweep closes it, unblocking its readLoop), or
// Close already ran and the caller must discard the connection.
func (t *TCPNet) trackConn(conn net.Conn) bool {
	t.closedMu.Lock()
	defer t.closedMu.Unlock()
	if t.closed {
		return false
	}
	t.wg.Add(1)
	t.inMu.Lock()
	t.inbound[conn] = struct{}{}
	t.inMu.Unlock()
	return true
}

// readFrame reads one length-delimited frame body from br. The returned
// buffer is freshly allocated per frame: the decoded message aliases it, and
// no one else holds it. The buffer grows with the bytes that arrive
// (frameStep), not with the length the header declares.
func readFrame(br *bufio.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	length := binary.BigEndian.Uint32(hdr[:])
	if length > maxFrameSize {
		return nil, fmt.Errorf("network: frame declares %d bytes", length)
	}
	n := int(length)
	body := make([]byte, 0, min(n, frameStep))
	for len(body) < n {
		if len(body) == cap(body) {
			body = slices.Grow(body, min(n-len(body), len(body)))
		}
		got, err := io.ReadFull(br, body[len(body):min(n, cap(body))])
		if err != nil {
			return nil, err
		}
		body = body[:len(body)+got]
	}
	return body, nil
}

func (t *TCPNet) readLoop(conn net.Conn) {
	defer t.wg.Done()
	var routeFrom types.NodeID
	var routePeer *tcpPeer
	defer func() {
		conn.Close()
		t.inMu.Lock()
		delete(t.inbound, conn)
		t.inMu.Unlock()
		if routePeer != nil {
			// Drop the reply route if this connection still owns it, so a
			// departed client doesn't leak a dead peer entry.
			t.learnedMu.Lock()
			if t.learned[routeFrom] == routePeer {
				delete(t.learned, routeFrom)
			}
			t.learnedMu.Unlock()
		}
	}()
	br := bufio.NewReaderSize(conn, 64*1024)
	for {
		body, err := readFrame(br)
		if err != nil {
			return
		}
		from32, msg, err := wire.DecodeFrame(body)
		if err != nil {
			// A frame that does not decode poisons nothing after it — the
			// framing is self-delimiting — but an undecodable peer is a
			// version mismatch or an attack; drop the message and move on.
			continue
		}
		from := types.NodeID(from32)
		t.closedMu.Lock()
		closed := t.closed
		t.closedMu.Unlock()
		if closed {
			return
		}
		if _, known := t.peers[from]; !known && from != t.node {
			// A sender with no static address (a client) is reached back
			// over its own connection. The From field is unauthenticated, so
			// a spoofed connection can steal the route; re-asserting it on
			// every message means the legitimate sender reclaims its route
			// with its next (re)transmission — message-level crypto keeps
			// spoofing a liveness nuisance, never a safety issue. One route
			// per connection: the first unknown sender on this conn owns it.
			if routePeer == nil {
				routeFrom = from
				routePeer = &tcpPeer{conn: conn, bw: bufio.NewWriterSize(conn, 64*1024)}
			}
			if from == routeFrom {
				t.relearnRoute(routeFrom, routePeer)
			}
		}
		if msg == nil {
			continue // a hello frame: the route above is all it carried
		}
		env := Envelope{From: from, To: t.node, Msg: msg}
		if !t.pass(&env) {
			continue
		}
		select {
		case t.inbox <- env:
		default:
			// Shed load rather than stall the connection; protocols
			// retransmit.
		}
	}
}

// relearnRoute points the reply route for from at p unless it already does.
// The map is capped like every other cache in the system; clearing it only
// costs re-learning on the next message from each live client.
func (t *TCPNet) relearnRoute(from types.NodeID, p *tcpPeer) {
	t.learnedMu.Lock()
	if t.learned[from] != p {
		if len(t.learned) >= 1<<14 {
			t.learned = make(map[types.NodeID]*tcpPeer)
		}
		t.learned[from] = p
	}
	t.learnedMu.Unlock()
}

func (t *TCPNet) peerConn(to types.NodeID) (*tcpPeer, error) {
	t.mu.Lock()
	p, ok := t.conns[to]
	if !ok {
		p = &tcpPeer{}
		t.conns[to] = p
	}
	t.mu.Unlock()

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn != nil {
		return p, nil
	}
	addr, ok := t.peers[to]
	if !ok {
		return nil, fmt.Errorf("network: unknown peer %v", to)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	// Read the dialed connection too: peers without our listen address in
	// their book (we are a client to them) reply over this connection.
	if !t.trackConn(conn) {
		conn.Close()
		return nil, fmt.Errorf("network: transport closed")
	}
	go t.readLoop(conn)
	p.conn = conn
	// One frame is one buffered write; Flush per message keeps latency
	// bounded while the buffer coalesces a frame's header and body into a
	// single write(2).
	p.bw = bufio.NewWriterSize(conn, 64*1024)
	return p, nil
}

// writeFrame writes one pre-encoded frame to the peer, resetting the
// connection on failure so the next Send re-dials (or, for a learned route,
// waits for the peer to reconnect).
func (t *TCPNet) writeFrame(to types.NodeID, p *tcpPeer, frame []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.bw == nil {
		return
	}
	_, err := p.bw.Write(frame)
	if err == nil {
		err = p.bw.Flush()
	}
	if err != nil {
		p.conn.Close()
		p.conn, p.bw = nil, nil
		t.learnedMu.Lock()
		if t.learned[to] == p {
			delete(t.learned, to)
		}
		t.learnedMu.Unlock()
	}
}

// loopback delivers a self-addressed message without serialization.
func (t *TCPNet) loopback(msg any) {
	select {
	case t.inbox <- Envelope{From: t.node, To: t.node, Msg: msg}:
	default:
	}
}

// encodeFrame marshals one frame into a pooled buffer. Callers must PutBuf.
func (t *TCPNet) encodeFrame(m wire.Message) []byte {
	t.encodes.Add(1)
	return wire.AppendFrame(wire.GetBuf(), int32(t.node), m)
}

// Send implements Transport. Failures (unreachable peer, encoding error,
// unregistered message type) drop the message; protocols tolerate loss.
func (t *TCPNet) Send(to types.NodeID, msg any) {
	if to == t.node {
		t.loopback(msg)
		return
	}
	m, ok := msg.(wire.Message)
	if !ok {
		noteUnencodable(msg)
		return
	}
	p, err := t.route(to)
	if err != nil {
		return
	}
	frame := t.encodeFrame(m)
	t.writeFrame(to, p, frame)
	wire.PutBuf(frame)
}

// Broadcast implements Transport: the message is marshaled exactly once and
// the same frame bytes are written to every resolvable peer. A self
// destination short-circuits through the loopback without serialization.
func (t *TCPNet) Broadcast(tos []types.NodeID, msg any) {
	m, ok := msg.(wire.Message)
	if !ok {
		sent := false
		for _, to := range tos {
			if to == t.node {
				t.loopback(msg)
				sent = true
			}
		}
		if !sent {
			noteUnencodable(msg)
		}
		return
	}
	var frame []byte
	for _, to := range tos {
		if to == t.node {
			t.loopback(msg)
			continue
		}
		p, err := t.route(to)
		if err != nil {
			continue
		}
		if frame == nil {
			frame = t.encodeFrame(m)
		}
		t.writeFrame(to, p, frame)
	}
	if frame != nil {
		wire.PutBuf(frame)
	}
}

// Announce opens this node's connection to every node in tos and says hello
// on it. A node outside its peers' address books — a client — can only be
// answered over a connection it opened, and sending its first request opens
// one to the primary alone: without the announcement the backups' replies to
// that request have no route, and the client waits out a retransmission
// time-out before its broadcast teaches them one. The hello carries no
// message, so the receiving node's protocol never sees it.
func (t *TCPNet) Announce(tos []types.NodeID) {
	frame := wire.AppendHello(wire.GetBuf(), int32(t.node))
	for _, to := range tos {
		if to == t.node {
			continue
		}
		if p, err := t.route(to); err == nil {
			t.writeFrame(to, p, frame)
		}
	}
	wire.PutBuf(frame)
}

// route resolves the peer to send to: a dialed connection for nodes in the
// address book, otherwise a learned inbound route.
func (t *TCPNet) route(to types.NodeID) (*tcpPeer, error) {
	if _, known := t.peers[to]; known {
		return t.peerConn(to)
	}
	t.learnedMu.Lock()
	p, ok := t.learned[to]
	t.learnedMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("network: no route to %v", to)
	}
	return p, nil
}

// Close implements Transport.
func (t *TCPNet) Close() error {
	t.closedMu.Lock()
	if t.closed {
		t.closedMu.Unlock()
		return nil
	}
	t.closed = true
	t.closedMu.Unlock()

	t.listener.Close()
	t.mu.Lock()
	for _, p := range t.conns {
		p.mu.Lock()
		if p.conn != nil {
			p.conn.Close()
		}
		p.mu.Unlock()
	}
	t.mu.Unlock()
	t.inMu.Lock()
	for conn := range t.inbound {
		conn.Close()
	}
	t.inMu.Unlock()
	t.wg.Wait()
	close(t.inbox)
	return nil
}
