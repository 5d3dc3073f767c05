package network

import (
	"testing"
	"time"

	"github.com/poexec/poe/internal/types"
)

// tcpPair builds two TCPNet nodes that know each other's addresses.
func tcpCluster(t *testing.T, n int) []*TCPNet {
	t.Helper()
	addrs := make(map[types.NodeID]string, n)
	tmp := make([]*TCPNet, n)
	for i := 0; i < n; i++ {
		node := types.ReplicaNode(types.ReplicaID(i))
		tn, err := NewTCPNet(node, map[types.NodeID]string{node: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		tmp[i] = tn
		addrs[node] = tn.Addr()
	}
	for _, tn := range tmp {
		tn.Close()
	}
	nets := make([]*TCPNet, n)
	for i := 0; i < n; i++ {
		node := types.ReplicaNode(types.ReplicaID(i))
		book := make(map[types.NodeID]string, n)
		for k, v := range addrs {
			book[k] = v
		}
		// Rebind our own listener (the probe socket is closed).
		book[node] = addrs[node]
		tn, err := NewTCPNet(node, book)
		if err != nil {
			t.Fatal(err)
		}
		nets[i] = tn
		t.Cleanup(func() { tn.Close() })
	}
	return nets
}

// TestTCPBroadcastMarshalsOnce asserts the marshal-once contract: one
// Broadcast to n−1 peers performs exactly one frame encode, and every peer
// still receives the message.
func TestTCPBroadcastMarshalsOnce(t *testing.T) {
	const n = 5
	nets := tcpCluster(t, n)
	sender := nets[0]
	tos := make([]types.NodeID, 0, n-1)
	for i := 1; i < n; i++ {
		tos = append(tos, types.ReplicaNode(types.ReplicaID(i)))
	}
	before := sender.Encodes()
	sender.Broadcast(tos, &ping{N: 99})
	if got := sender.Encodes() - before; got != 1 {
		t.Fatalf("broadcast to %d peers performed %d marshals, want exactly 1", n-1, got)
	}
	for i := 1; i < n; i++ {
		select {
		case env := <-nets[i].Inbox():
			if env.Msg.(*ping).N != 99 {
				t.Fatalf("peer %d got %+v", i, env.Msg)
			}
			if !env.Owned {
				t.Fatalf("peer %d: wire-decoded envelope not marked Owned", i)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("peer %d never received the broadcast", i)
		}
	}
	// A second broadcast re-encodes (no stale frame reuse).
	sender.Broadcast(tos, &ping{N: 100})
	if got := sender.Encodes() - before; got != 2 {
		t.Fatalf("second broadcast: %d total marshals, want 2", got)
	}
}

// TestTCPClientReconnectReplyDecodes is the regression test for the learned
// reply route: with the gob streams each route carried its own encoder whose
// type dictionary was resent per stream, and a reconnecting client's replies
// depended on per-connection encoder state. The stateless codec frames must
// decode cleanly on a brand-new connection — including the FIRST reply after
// a reconnect.
func TestTCPClientReconnectReplyDecodes(t *testing.T) {
	replica := types.ReplicaNode(0)
	client := types.NthClient(0)
	rn, err := NewTCPNet(replica, map[types.NodeID]string{replica: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Close()

	connect := func() *TCPNet {
		cn, err := NewTCPNet(client, map[types.NodeID]string{client: "127.0.0.1:0", replica: rn.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		return cn
	}
	exchange := func(cn *TCPNet, n int) {
		t.Helper()
		cn.Send(replica, &ping{N: n})
		select {
		case env := <-rn.Inbox():
			if env.Msg.(*ping).N != n {
				t.Fatalf("replica got %+v", env.Msg)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("request never arrived")
		}
		// Reply over the learned route; the client must decode it.
		rn.Send(client, &ping{N: -n})
		select {
		case env := <-cn.Inbox():
			if env.Msg.(*ping).N != -n {
				t.Fatalf("client got %+v", env.Msg)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("reply never decoded")
		}
	}

	cn := connect()
	exchange(cn, 1)
	cn.Close()

	// Reconnect with a fresh transport: the replica re-learns the route from
	// the first message, and the very first reply on the new stream must
	// decode.
	cn2 := connect()
	defer cn2.Close()
	// The old route may linger until the dead connection is noticed; retry
	// until the fresh route wins (re-asserted on every inbound message).
	deadline := time.Now().Add(5 * time.Second)
	for {
		cn2.Send(replica, &ping{N: 2})
		select {
		case <-rn.Inbox():
		case <-time.After(100 * time.Millisecond):
		}
		rn.Send(client, &ping{N: -2})
		select {
		case env := <-cn2.Inbox():
			if env.Msg.(*ping).N != -2 {
				t.Fatalf("client got %+v", env.Msg)
			}
			return
		case <-time.After(200 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("reconnected client never decoded a reply")
			}
		}
	}
}

// TestFaultNetBroadcastForwards: a clean fabric forwards a broadcast to the
// inner transport as one fan-out; crashed/cut destinations are filtered.
func TestFaultNetBroadcastForwards(t *testing.T) {
	inner := NewChanNet()
	defer inner.Close()
	fn := NewFaultNet(inner)
	a := fn.Join(types.ReplicaNode(0))
	inboxes := make([]Transport, 4)
	for i := 1; i < 4; i++ {
		inboxes[i] = fn.Join(types.ReplicaNode(types.ReplicaID(i)))
	}
	fn.Crash(types.ReplicaNode(3))

	tos := []types.NodeID{types.ReplicaNode(1), types.ReplicaNode(2), types.ReplicaNode(3)}
	a.Broadcast(tos, &ping{N: 5})

	for i := 1; i <= 2; i++ {
		select {
		case env := <-inboxes[i].Inbox():
			if env.Msg.(*ping).N != 5 {
				t.Fatalf("peer %d got %+v", i, env.Msg)
			}
		case <-time.After(time.Second):
			t.Fatalf("peer %d missed the broadcast", i)
		}
	}
	select {
	case <-inboxes[3].Inbox():
		t.Fatal("crashed peer received the broadcast")
	case <-time.After(50 * time.Millisecond):
	}
	st := fn.Stats()
	if st.Sent != 3 || st.Delivered != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestFaultNetBroadcastDeterminism: with per-link faults, a broadcast
// consumes per-link randomness exactly like the equivalent sequence of
// sends, so traces stay reproducible.
func TestFaultNetBroadcastDeterminism(t *testing.T) {
	run := func(useBroadcast bool) []TraceEvent {
		var trace []TraceEvent
		inner := NewChanNet()
		defer inner.Close()
		fn := NewFaultNet(inner, WithFaultSeed(7), WithTrace(func(ev TraceEvent) { trace = append(trace, ev) }))
		fn.SetDefaultFaults(LinkFaults{Drop: 0.3})
		a := fn.Join(types.ReplicaNode(0))
		for i := 1; i < 4; i++ {
			fn.Join(types.ReplicaNode(types.ReplicaID(i)))
		}
		tos := []types.NodeID{types.ReplicaNode(1), types.ReplicaNode(2), types.ReplicaNode(3)}
		for round := 0; round < 5; round++ {
			if useBroadcast {
				a.Broadcast(tos, &ping{N: round})
			} else {
				for _, to := range tos {
					a.Send(to, &ping{N: round})
				}
			}
		}
		return trace
	}
	t1 := run(true)
	t2 := run(false)
	if len(t1) != len(t2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("trace diverges at %d: %+v vs %+v", i, t1[i], t2[i])
		}
	}
}

// TestFaultNetDelayedBroadcastMarshalsOnce: under WAN emulation (a default
// link delay, the poeserver -fault-delay configuration) a broadcast through
// the fabric over TCP must still marshal exactly once — delayed
// destinations are grouped into one delayed inner Broadcast.
func TestFaultNetDelayedBroadcastMarshalsOnce(t *testing.T) {
	const n = 4
	nets := tcpCluster(t, n)
	fn := NewFaultNet(nil)
	fn.SetDefaultFaults(LinkFaults{Delay: 20 * time.Millisecond})
	sender := fn.Wrap(nets[0])

	tos := make([]types.NodeID, 0, n-1)
	for i := 1; i < n; i++ {
		tos = append(tos, types.ReplicaNode(types.ReplicaID(i)))
	}
	before := nets[0].Encodes()
	sender.Broadcast(tos, &ping{N: 7})
	for i := 1; i < n; i++ {
		select {
		case env := <-nets[i].Inbox():
			if env.Msg.(*ping).N != 7 {
				t.Fatalf("peer %d got %+v", i, env.Msg)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("peer %d never received the delayed broadcast", i)
		}
	}
	if got := nets[0].Encodes() - before; got != 1 {
		t.Fatalf("delayed broadcast to %d peers performed %d marshals, want exactly 1", n-1, got)
	}
}

// TestFirstContactAnnounce: a client that has sent a replica nothing but its
// announcement can be answered by it, and the announcement itself never
// reaches the replica's protocol. On the in-process networks, where every
// joined node is addressable, Announce sends nothing and draws no fault
// decision.
func TestFirstContactAnnounce(t *testing.T) {
	replica := types.ReplicaNode(0)
	client := types.NthClient(0)
	rn, err := NewTCPNet(replica, map[types.NodeID]string{replica: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Close()
	cn, err := NewTCPNet(client, map[types.NodeID]string{client: "127.0.0.1:0", replica: rn.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()

	rn.Send(client, &ping{N: 1}) // no route yet: dropped
	Announce(cn, 1)
	// The replica learns the route when its read loop reaches the hello;
	// offer replies until one gets through.
	deadline := time.Now().Add(5 * time.Second)
	for got := false; !got; {
		rn.Send(client, &ping{N: 2})
		select {
		case env := <-cn.Inbox():
			if env.From != replica || env.Msg.(*ping).N != 2 {
				t.Fatalf("client got %+v", env)
			}
			got = true
		case <-time.After(20 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("the replica never learned the announced client's route")
			}
		}
	}
	select {
	case env := <-rn.Inbox():
		t.Fatalf("the announcement reached the replica's inbox: %+v", env)
	default:
	}

	var events int
	fn := NewFaultNet(NewChanNet(), WithFaultSeed(1), WithTrace(func(TraceEvent) { events++ }))
	defer fn.Close()
	fn.Join(replica)
	Announce(fn.Join(client), 1)
	if st := fn.Stats(); events != 0 || st.Sent != 0 {
		t.Fatalf("Announce on the in-process fabric drew %d decisions, sent %d", events, st.Sent)
	}
}
