package client

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/types"
)

// TestRetransmitWaitsTimeoutBeforeAnySample: a client that has not yet seen
// a reply knows nothing about its latency and waits the configured Timeout.
func TestRetransmitWaitsTimeoutBeforeAnySample(t *testing.T) {
	const timeout = 500 * time.Millisecond
	var e protocol.RTO
	if got := e.Wait(timeout); got != timeout {
		t.Fatalf("wait %v before any sample, want Timeout %v", got, timeout)
	}
	e.Sample(8 * time.Millisecond)
	// srtt 8 ms, rttvar 4 ms: max(8 + 16, 32) ms.
	if got := e.Wait(timeout); got != 32*time.Millisecond {
		t.Fatalf("wait %v after one 8 ms sample, want 32ms", got)
	}
}

// TestRetransmitWaitNeverExceedsTimeout: whatever latencies the client sees,
// the first retransmission never waits longer than Timeout.
func TestRetransmitWaitNeverExceedsTimeout(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const timeout = 100 * time.Millisecond
	var e protocol.RTO
	for i := 0; i < 10000; i++ {
		e.Sample(time.Duration(rng.ExpFloat64() * float64(40*time.Millisecond)))
		if got := e.Wait(timeout); got <= 0 || got > timeout {
			t.Fatalf("sample %d: wait %v outside (0, %v]", i, got, timeout)
		}
	}
	e.Sample(10 * time.Second)
	if got := e.Wait(timeout); got != timeout {
		t.Fatalf("wait %v after a 10 s sample, want the Timeout cap", got)
	}
}

// TestRetransmitFirstAttemptSampledRetriesNot pins Karn's rule through the
// submit path: a write answered on its first attempt teaches the client its
// latency; one answered only after the broadcast does not.
func TestRetransmitFirstAttemptSampledRetriesNot(t *testing.T) {
	ops := []types.Op{{Kind: types.OpRead, Key: "k"}}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// The primary (replica 0) is silent; the three backups answer whatever
	// reaches them, which is only the broadcast retransmission.
	cl, _, _ := setupAnswering(t, func(id types.ReplicaID) bool { return id != 0 })
	if _, err := cl.Submit(ctx, ops); err != nil {
		t.Fatal(err)
	}
	if got := cl.rto.Wait(cl.cfg.Timeout); got != cl.cfg.Timeout {
		t.Fatalf("wait %v after a retransmitted write, want it unsampled (Timeout %v)", got, cl.cfg.Timeout)
	}

	// The fakes answer only requests that reach them, so the first attempt
	// goes to all four.
	cl, _, _ = setup(t, 4)
	cl.cfg.Rule.broadcast = true
	if _, err := cl.Submit(ctx, ops); err != nil {
		t.Fatal(err)
	}
	if got := cl.rto.Wait(cl.cfg.Timeout); got >= cl.cfg.Timeout {
		t.Fatalf("wait %v after a first-attempt reply, want it below Timeout %v", got, cl.cfg.Timeout)
	}
}
