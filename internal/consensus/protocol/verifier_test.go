package protocol

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/wire"
)

// probe is a test message with a wire codec, so it can cross ChanNet.
type probe struct{ N int }

func (p *probe) WireID() uint16 { return 65000 } // test-only id, far from ids.go

func (p *probe) MarshalTo(buf []byte) []byte { return wire.AppendI64(buf, int64(p.N)) }

func (p *probe) Unmarshal(data []byte) error {
	r := wire.NewReader(data)
	p.N = int(r.I64())
	return r.Close()
}

func init() { wire.Register(func() wire.Message { return &probe{} }) }

func feedEnvelopes(in chan<- network.Envelope, n int) {
	for i := 0; i < n; i++ {
		in <- network.Envelope{From: types.ReplicaNode(0), Msg: i}
	}
	close(in)
}

// TestPipelineOrderedDelivery: envelopes verified concurrently (with skewed
// per-message verification latency) must still be delivered in arrival
// order.
func TestPipelineOrderedDelivery(t *testing.T) {
	const n = 400
	verify := func(env *network.Envelope) bool {
		// Skew verification time so later messages routinely finish
		// verification before earlier ones.
		if env.Msg.(int)%7 == 0 {
			time.Sleep(2 * time.Millisecond)
		}
		return true
	}
	v := NewVerifier(verify, 8)
	in := make(chan network.Envelope, n)
	out := v.Pipe(context.Background(), in)
	go feedEnvelopes(in, n)

	want := 0
	for env := range out {
		if env.Msg.(int) != want {
			t.Fatalf("out of order: got %d, want %d", env.Msg.(int), want)
		}
		want++
	}
	if want != n {
		t.Fatalf("delivered %d of %d", want, n)
	}
	if v.Verified.Load() != n || v.Dropped.Load() != 0 {
		t.Fatalf("counters: verified=%d dropped=%d", v.Verified.Load(), v.Dropped.Load())
	}
}

// TestPipelineDropsInvalid: messages failing verification never reach the
// consumer, and the survivors keep their relative order.
func TestPipelineDropsInvalid(t *testing.T) {
	const n = 200
	verify := func(env *network.Envelope) bool { return env.Msg.(int)%2 == 0 }
	v := NewVerifier(verify, 4)
	in := make(chan network.Envelope, n)
	out := v.Pipe(context.Background(), in)
	go feedEnvelopes(in, n)

	want := 0
	for env := range out {
		if env.Msg.(int) != want {
			t.Fatalf("got %d, want %d", env.Msg.(int), want)
		}
		want += 2
	}
	if v.Dropped.Load() != n/2 || v.Verified.Load() != n/2 {
		t.Fatalf("counters: verified=%d dropped=%d", v.Verified.Load(), v.Dropped.Load())
	}
}

// TestPipelineRewritesEnvelopes: a VerifyFunc may replace the message with
// an owned clone; the consumer must observe the replacement.
func TestPipelineRewritesEnvelopes(t *testing.T) {
	verify := func(env *network.Envelope) bool {
		env.Msg = env.Msg.(int) + 1000
		return true
	}
	v := NewVerifier(verify, 2)
	in := make(chan network.Envelope, 8)
	out := v.Pipe(context.Background(), in)
	go feedEnvelopes(in, 8)
	for i := 0; i < 8; i++ {
		env, ok := <-out
		if !ok || env.Msg.(int) != i+1000 {
			t.Fatalf("envelope %d not rewritten: %v", i, env.Msg)
		}
	}
}

// TestDigestTable: share payloads registered by the event loop are visible
// to workers and removed when the slot retires.
func TestDigestTable(t *testing.T) {
	v := NewVerifier(nil, 1)
	v.NoteDigest(1, 3, 7, []byte("payload"))
	if p, ok := v.PayloadFor(1, 3, 7); !ok || string(p) != "payload" {
		t.Fatalf("lookup failed: %q %v", p, ok)
	}
	if _, ok := v.PayloadFor(0, 3, 7); ok {
		t.Fatal("wrong kind resolved")
	}
	v.ForgetDigests(3, 7)
	if _, ok := v.PayloadFor(1, 3, 7); ok {
		t.Fatal("payload survived ForgetDigests")
	}
}

// TestReplicaLoopsDoNotVerifyInline is the grep-able invariant behind the
// parallel authentication pipeline: no replica state-machine file may verify
// client requests or broadcast authenticators inline — that work lives in
// each protocol's verify.go, which runs on pipeline workers. Threshold
// share/certificate checks are allowed on the loop because they resolve
// through the crypto layer's memo (warmed by the pipeline) rather than raw
// Ed25519.
func TestReplicaLoopsDoNotVerifyInline(t *testing.T) {
	forbidden := []string{"VerifyClientRequest", "VerifyBroadcast", "VerifyBatch", "ed25519"}
	for _, pkg := range []string{"poe", "pbft", "sbft", "zyzzyva", "hotstuff"} {
		dir := filepath.Join("..", pkg)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("read %s: %v", dir, err)
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || name == "verify.go" || strings.HasSuffix(name, "_test.go") {
				continue
			}
			src, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			for _, needle := range forbidden {
				if strings.Contains(string(src), needle) {
					t.Errorf("%s/%s calls %s on the replica event loop; move it into verify.go (the authentication pipeline)", pkg, name, needle)
				}
			}
		}
	}
}

// TestIngressQueuedBeforeRun: envelopes that reached the inbox before Run
// installed the check are checked by the Run loop, so an invalid one is
// never dispatched; envelopes arriving afterwards are checked by the
// transport. Either way every message is checked exactly once.
func TestIngressQueuedBeforeRun(t *testing.T) {
	cn := network.NewChanNet()
	defer cn.Close()
	ring := crypto.NewKeyRing(4, []byte("ingress"))
	rt := NewRuntime(Config{ID: 0, N: 4, F: 1, Scheme: crypto.SchemeMAC}, ring, cn.Join(types.ReplicaNode(0)), RuntimeOptions{})
	peer := cn.Join(types.ReplicaNode(1))

	var mu sync.Mutex
	checks := make(map[int]int)
	verify := func(env *network.Envelope) bool {
		mu.Lock()
		checks[env.Msg.(*probe).N]++
		mu.Unlock()
		return env.Msg.(*probe).N > 0
	}
	dispatched := make(chan int, 8)
	dispatch := func(env network.Envelope) { dispatched <- env.Msg.(*probe).N }
	next := func(want int) {
		t.Helper()
		select {
		case got := <-dispatched:
			if got != want {
				t.Fatalf("dispatched %d, want %d", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d not dispatched", want)
		}
	}

	peer.Send(types.ReplicaNode(0), &probe{N: -1})
	peer.Send(types.ReplicaNode(0), &probe{N: 1})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		rt.Run(ctx, verify, dispatch, func(time.Time) {})
		close(done)
	}()
	next(1)
	peer.Send(types.ReplicaNode(0), &probe{N: -2})
	peer.Send(types.ReplicaNode(0), &probe{N: 2})
	next(2)
	cancel()
	<-done

	select {
	case got := <-dispatched:
		t.Fatalf("dispatched %d after the valid messages", got)
	default:
	}
	mu.Lock()
	defer mu.Unlock()
	for _, m := range []int{-1, 1, -2, 2} {
		if checks[m] != 1 {
			t.Errorf("message %d checked %d times, want once", m, checks[m])
		}
	}
	if v, d := rt.Pipeline.Verified.Load(), rt.Pipeline.Dropped.Load(); v != 2 || d != 2 {
		t.Errorf("counters: verified=%d dropped=%d, want 2 and 2", v, d)
	}
}
