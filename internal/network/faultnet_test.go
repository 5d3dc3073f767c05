package network

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/poexec/poe/internal/types"
)

// faultRun drives a fixed message sequence through a freshly built
// FaultNet-over-ChanNet and returns the decision trace plus the payloads
// delivered to each receiver, in arrival order. Everything runs on the test
// goroutine with no delays, so delivery order is deterministic end to end.
func faultRun(t *testing.T, seed int64, lf LinkFaults, plan *Plan) (trace []TraceEvent, got map[types.NodeID][]string) {
	t.Helper()
	var events []TraceEvent
	base := NewChanNet()
	defer base.Close()
	fn := NewFaultNet(base, WithFaultSeed(seed), WithTrace(func(ev TraceEvent) {
		events = append(events, ev)
	}))
	fn.SetDefaultFaults(lf)
	fn.ApplyNow(plan)

	nodes := []types.NodeID{types.ReplicaNode(0), types.ReplicaNode(1), types.ReplicaNode(2)}
	trs := make(map[types.NodeID]Transport, len(nodes))
	for _, n := range nodes {
		trs[n] = fn.Join(n)
	}
	// A fixed round-robin send schedule over every directed pair.
	for i := 0; i < 40; i++ {
		for _, from := range nodes {
			for _, to := range nodes {
				if from == to {
					continue
				}
				trs[from].Send(to, &blob{B: []byte(fmt.Sprintf("%v->%v#%d", from, to, i))})
			}
		}
	}
	got = make(map[types.NodeID][]string, len(nodes))
	for _, n := range nodes {
		for {
			select {
			case env := <-trs[n].Inbox():
				got[n] = append(got[n], text(env))
				continue
			default:
			}
			break
		}
	}
	return events, got
}

// TestFaultNetDeterministicTrace pins the fabric's central contract: the
// same seed and the same plan produce an identical decision trace and an
// identical delivery trace, run after run.
func TestFaultNetDeterministicTrace(t *testing.T) {
	lf := LinkFaults{Drop: 0.2, Duplicate: 0.15, Reorder: 0.25}
	tr1, got1 := faultRun(t, 42, lf, nil)
	tr2, got2 := faultRun(t, 42, lf, nil)
	if len(tr1) == 0 {
		t.Fatal("no trace events recorded")
	}
	if !reflect.DeepEqual(tr1, tr2) {
		t.Fatalf("decision traces differ between identical runs:\n%v\nvs\n%v", tr1, tr2)
	}
	if !reflect.DeepEqual(got1, got2) {
		t.Fatalf("delivery traces differ between identical runs")
	}
	// And a different seed actually changes the decisions (the faults above
	// make at least one different draw overwhelmingly likely over 240 sends).
	tr3, _ := faultRun(t, 43, lf, nil)
	if reflect.DeepEqual(tr1, tr3) {
		t.Fatal("different seeds produced identical traces; rng is not seeded per net")
	}
}

// TestFaultNetFaultMix sanity-checks that each omission fault actually fires
// under a mixed rule, and that every non-dropped message arrives.
func TestFaultNetFaultMix(t *testing.T) {
	trace, got := faultRun(t, 7, LinkFaults{Drop: 0.2, Duplicate: 0.2, Reorder: 0.2}, nil)
	counts := map[Verdict]int{}
	for _, ev := range trace {
		counts[ev.Verdict]++
	}
	for _, v := range []Verdict{VerdictDrop, VerdictDuplicate, VerdictRelease} {
		if counts[v] == 0 {
			t.Fatalf("verdict %s never fired under a 20%% rule: %v", v, counts)
		}
	}
	delivered := 0
	for _, msgs := range got {
		delivered += len(msgs)
	}
	want := counts[VerdictDeliver] + counts[VerdictDuplicate] + counts[VerdictRelease]
	if delivered != want {
		t.Fatalf("delivered %d messages, trace promised %d", delivered, want)
	}
}

// TestReliablePartitionNeverDrops is the satellite guarantee: messages sent
// across a reliable (queueing) partition are never lost — they are all
// delivered, in send order, when the partition heals.
func TestReliablePartitionNeverDrops(t *testing.T) {
	base := NewChanNet()
	defer base.Close()
	fn := NewFaultNet(base, WithFaultSeed(9))
	a, b := types.ReplicaNode(0), types.ReplicaNode(1)
	ta := fn.Join(a)
	tb := fn.Join(b)

	fn.Partition([]types.NodeID{a}, []types.NodeID{b}, true)
	const n = 50
	for i := 0; i < n; i++ {
		ta.Send(b, &ping{N: i})
	}
	select {
	case env := <-tb.Inbox():
		t.Fatalf("message %v crossed an active partition", env.Msg)
	default:
	}
	if st := fn.Stats(); st.Queued != n || st.Dropped != 0 {
		t.Fatalf("want %d queued and 0 dropped, got %+v", n, st)
	}

	fn.Heal()
	for i := 0; i < n; i++ {
		select {
		case env := <-tb.Inbox():
			if env.Msg.(*ping).N != i {
				t.Fatalf("out-of-order flush: got %v at position %d", env.Msg, i)
			}
		default:
			t.Fatalf("message %d dropped by partition+heal", i)
		}
	}
	if st := fn.Stats(); st.Flushed != n {
		t.Fatalf("want %d flushed, got %+v", n, st)
	}
	// The healed link carries fresh traffic normally.
	ta.Send(b, &blob{B: []byte("after")})
	if env := <-tb.Inbox(); text(env) != "after" {
		t.Fatalf("healed link delivered %v", env.Msg)
	}
}

// TestLossyPartitionDrops checks the contrasting default: a lossy partition
// loses the traffic it blocks, even after healing.
func TestLossyPartitionDrops(t *testing.T) {
	base := NewChanNet()
	defer base.Close()
	fn := NewFaultNet(base)
	a, b := types.ReplicaNode(0), types.ReplicaNode(1)
	ta := fn.Join(a)
	tb := fn.Join(b)
	fn.Partition([]types.NodeID{a}, []types.NodeID{b}, false)
	ta.Send(b, &blob{B: []byte("lost")})
	fn.Heal()
	select {
	case env := <-tb.Inbox():
		t.Fatalf("lossy partition delivered %v after heal", env.Msg)
	default:
	}
	if st := fn.Stats(); st.Dropped != 1 {
		t.Fatalf("want 1 dropped, got %+v", st)
	}
}

// TestFaultNetMutatorSilence checks the sender-side Byzantine hook: a
// mutator can keep a chosen peer dark while other links stay clean.
func TestFaultNetMutatorSilence(t *testing.T) {
	base := NewChanNet()
	defer base.Close()
	fn := NewFaultNet(base)
	a, b, c := types.ReplicaNode(0), types.ReplicaNode(1), types.ReplicaNode(2)
	ta := fn.Join(a)
	tb := fn.Join(b)
	tc := fn.Join(c)
	fn.SetMutator(a, func(to types.NodeID, msg any) (any, bool) {
		return msg, to != b // b stays dark
	})
	ta.Send(b, &blob{B: []byte("x")})
	ta.Send(c, &blob{B: []byte("x")})
	select {
	case env := <-tb.Inbox():
		t.Fatalf("silenced peer received %v", env.Msg)
	default:
	}
	if env := <-tc.Inbox(); text(env) != "x" {
		t.Fatalf("unsilenced peer got %v", env.Msg)
	}
}

// TestFaultNetCrashAndRecover checks crash markers drop traffic both ways
// until recovery, and that plans schedule them.
func TestFaultNetCrashAndRecover(t *testing.T) {
	base := NewChanNet()
	defer base.Close()
	fn := NewFaultNet(base)
	a, b := types.ReplicaNode(0), types.ReplicaNode(1)
	ta := fn.Join(a)
	tb := fn.Join(b)
	fn.ApplyNow(NewPlan().CrashAt(0, b))
	ta.Send(b, &blob{B: []byte("dead")})
	tb.Send(a, &blob{B: []byte("dead")})
	select {
	case env := <-tb.Inbox():
		t.Fatalf("crashed node received %v", env.Msg)
	case env := <-ta.Inbox():
		t.Fatalf("crashed node sent %v", env.Msg)
	default:
	}
	fn.ApplyNow(NewPlan().RecoverAt(0, b))
	ta.Send(b, &blob{B: []byte("alive")})
	if env := <-tb.Inbox(); text(env) != "alive" {
		t.Fatalf("recovered node got %v", env.Msg)
	}
}

// TestFaultNetDelay checks delayed delivery arrives (late, but intact).
func TestFaultNetDelay(t *testing.T) {
	base := NewChanNet()
	defer base.Close()
	fn := NewFaultNet(base)
	a, b := types.ReplicaNode(0), types.ReplicaNode(1)
	ta := fn.Join(a)
	tb := fn.Join(b)
	fn.SetLink(a, b, LinkFaults{Delay: 5 * time.Millisecond})
	start := time.Now()
	ta.Send(b, &blob{B: []byte("slow")})
	select {
	case env := <-tb.Inbox():
		if text(env) != "slow" {
			t.Fatalf("got %v", env.Msg)
		}
		if since := time.Since(start); since < 4*time.Millisecond {
			t.Fatalf("delayed message arrived after only %v", since)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("delayed message never arrived")
	}
}

// TestFaultNetCutLinkOneWay: a cut link blocks one direction only; the
// reverse direction keeps delivering, and HealLink restores the cut one.
func TestFaultNetCutLinkOneWay(t *testing.T) {
	base := NewChanNet()
	defer base.Close()
	fn := NewFaultNet(base)
	a, b := types.ReplicaNode(0), types.ReplicaNode(1)
	ta := fn.Join(a)
	tb := fn.Join(b)
	fn.CutLink(a, b, false)
	ta.Send(b, &ping{N: 1})
	tb.Send(a, &ping{N: 2})
	select {
	case env := <-ta.Inbox():
		if env.Msg.(*ping).N != 2 {
			t.Fatalf("reverse direction delivered %+v", env.Msg)
		}
	default:
		t.Fatal("reverse direction should be intact")
	}
	select {
	case env := <-tb.Inbox():
		t.Fatalf("cut link delivered %+v", env.Msg)
	default:
	}
	fn.HealLink(a, b)
	ta.Send(b, &ping{N: 3})
	select {
	case env := <-tb.Inbox():
		if env.Msg.(*ping).N != 3 {
			t.Fatalf("healed link delivered %+v", env.Msg)
		}
	default:
		t.Fatal("healed link did not deliver")
	}
}

// TestFaultNetDropsAll: a drop probability of one loses every message on
// the link, and the fabric counts each loss.
func TestFaultNetDropsAll(t *testing.T) {
	base := NewChanNet()
	defer base.Close()
	fn := NewFaultNet(base, WithFaultSeed(7))
	a, b := types.ReplicaNode(0), types.ReplicaNode(1)
	ta := fn.Join(a)
	tb := fn.Join(b)
	fn.SetDefaultFaults(LinkFaults{Drop: 1})
	for i := 0; i < 10; i++ {
		ta.Send(b, &ping{N: i})
	}
	select {
	case env := <-tb.Inbox():
		t.Fatalf("p=1 drop delivered %+v", env.Msg)
	default:
	}
	if st := fn.Stats(); st.Dropped != 10 || st.Delivered != 0 {
		t.Fatalf("want 10 dropped and none delivered, got %+v", st)
	}
}
