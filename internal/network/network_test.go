package network

import (
	"testing"
	"time"

	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/wire"
)

// ping is the test message; it carries a wire codec so it can cross TCPNet.
type ping struct{ N int }

func (p *ping) WireID() uint16 { return 65000 } // test-only id, far from ids.go

func (p *ping) MarshalTo(buf []byte) []byte { return wire.AppendI64(buf, int64(p.N)) }

func (p *ping) Unmarshal(data []byte) error {
	r := wire.NewReader(data)
	p.N = int(r.I64())
	return r.Close()
}

func init() { wire.Register(func() wire.Message { return &ping{} }) }

func TestChanNetDelivery(t *testing.T) {
	net := NewChanNet()
	defer net.Close()
	a := net.Join(types.ReplicaNode(0))
	b := net.Join(types.ReplicaNode(1))
	a.Send(types.ReplicaNode(1), &ping{N: 7})
	select {
	case env := <-b.Inbox():
		if env.From != types.ReplicaNode(0) || env.Msg.(*ping).N != 7 {
			t.Fatalf("bad envelope %+v", env)
		}
	case <-time.After(time.Second):
		t.Fatal("message not delivered")
	}
}

// blob is a test message carrying bytes; it has a wire codec.
type blob struct{ B []byte }

func (b *blob) WireID() uint16 { return 65001 } // test-only id, far from ids.go

func (b *blob) MarshalTo(buf []byte) []byte { return wire.AppendBytes(buf, b.B) }

func (b *blob) Unmarshal(data []byte) error {
	r := wire.NewReader(data)
	b.B = r.Bytes()
	return r.Close()
}

func init() { wire.Register(func() wire.Message { return &blob{} }) }

// text reads a delivered blob as a string.
func text(env Envelope) string { return string(env.Msg.(*blob).B) }

// TestReceiversOwnTheirCopy: on both transports a broadcast hands every
// receiver a message of its own, so one receiver mutating what it received
// changes nothing the sender or another receiver sees; and a message type
// with no wire codec is dropped and counted, not delivered.
func TestReceiversOwnTheirCopy(t *testing.T) {
	n0, n1, n2 := types.ReplicaNode(0), types.ReplicaNode(1), types.ReplicaNode(2)
	for _, tc := range []struct {
		name  string
		nodes func(t *testing.T) []Transport
	}{
		{"chan", func(t *testing.T) []Transport {
			cn := NewChanNet()
			t.Cleanup(cn.Close)
			return []Transport{cn.Join(n0), cn.Join(n1), cn.Join(n2)}
		}},
		{"tcp", func(t *testing.T) []Transport {
			nets := tcpCluster(t, 3)
			return []Transport{nets[0], nets[1], nets[2]}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trs := tc.nodes(t)
			recv := func(tr Transport) Envelope {
				t.Helper()
				select {
				case env := <-tr.Inbox():
					return env
				case <-time.After(5 * time.Second):
					t.Fatal("message not delivered")
					return Envelope{}
				}
			}
			sent := &blob{B: []byte("original")}
			trs[0].Broadcast([]types.NodeID{n1, n2}, sent)
			first, second := recv(trs[1]), recv(trs[2])
			copy(first.Msg.(*blob).B, "MUTATED!")
			if got := text(second); got != "original" {
				t.Fatalf("a mutation by one receiver reached another: %q", got)
			}
			if got := string(sent.B); got != "original" {
				t.Fatalf("a mutation by a receiver reached the sender: %q", got)
			}

			before := Unencodable()
			trs[0].Send(n1, "no codec")
			trs[0].Send(n1, &blob{B: []byte("after")})
			if env := recv(trs[1]); text(env) != "after" {
				t.Fatalf("got %+v, want the codec-less message dropped", env.Msg)
			}
			if got := Unencodable() - before; got != 1 {
				t.Fatalf("Unencodable grew by %d, want 1", got)
			}
		})
	}
}

func TestTCPNetRoundTrip(t *testing.T) {
	// Bootstrap two nodes on ephemeral ports: bind node 0 first, then node
	// 1 with knowledge of 0's address, then reconstruct 0's peer table.
	n0 := types.ReplicaNode(0)
	n1 := types.ReplicaNode(1)
	t0, err := NewTCPNet(n0, map[types.NodeID]string{n0: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()
	t1, err := NewTCPNet(n1, map[types.NodeID]string{n1: "127.0.0.1:0", n0: t0.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()

	t1.Send(n0, &ping{N: 42})
	select {
	case env := <-t0.Inbox():
		if env.Msg.(*ping).N != 42 {
			t.Fatalf("bad payload %+v", env.Msg)
		}
		if env.From != n1 {
			t.Fatalf("from %v", env.From)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("tcp message not delivered")
	}
	// Self-send loops back without touching the wire.
	t0.Send(n0, &ping{N: 1})
	select {
	case env := <-t0.Inbox():
		if env.Msg.(*ping).N != 1 {
			t.Fatal("bad self-send")
		}
	case <-time.After(time.Second):
		t.Fatal("self-send not delivered")
	}
}
