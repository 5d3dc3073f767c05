package protocol

import (
	"context"
	"sync"
)

// This file implements the egress loop: the outbound twin of the inbound
// check in verifier.go. The replica event loop hands outbound messages over
// *unsigned*; one egress goroutine computes their authenticators — Ed25519
// broadcast signatures, per-replica MAC vectors, threshold shares, reply
// MACs — and sends them, one job after the other, in submission order.
// Together with the inbound check this removes the last asymmetric crypto
// from the replica state machine: signatures are verified before dispatch
// and produced after it, and the single-goroutine event loop only moves
// protocol state.
//
// Ordering contract: every send the replica issues through the egress runs
// on that one goroutine, in the order the jobs were enqueued, each after its
// own sign stage — so global submission order, and therefore
// per-destination FIFO order, is preserved exactly as if the event loop had
// sent the messages itself. A job crosses one goroutine hand-off; signing
// overlaps the event loop and the transports' read goroutines rather than
// other signing.
//
// Self-delivery: a replica counts its own share/vote toward its quorums. The
// event loop cannot do that before the share exists, so a job may carry a
// `local` continuation: after the job's send, the continuation is delivered
// on the Local channel, which the replica's Run loop drains on its own
// goroutine. Local continuations therefore run on the event loop, in
// submission order relative to the job's send, and may touch replica state —
// but they run *later* than the enqueue, so they must re-check any state
// (view, status) they assumed.
//
// Lifecycle: an Egress starts in inline mode — Enqueue runs the three stages
// synchronously on the caller's goroutine, which keeps direct handler-driving
// tests (and benchmarks that never start a Run loop) behaving exactly like
// the pre-pipeline code. Start arms the egress goroutine; the Run loops call
// it through Runtime.Run.

// Egress is the outbound signing loop for one replica.
type Egress struct {
	metrics *Metrics

	mu      sync.Mutex
	queue   []egressJob
	started bool

	wake  chan struct{}
	local chan func()
}

// egressJob is one outbound unit.
type egressJob struct {
	sign  func() // egress goroutine: compute authenticators, fill the message
	send  func() // egress goroutine, after sign: transport writes
	local func() // event loop, after send: count own share/vote
}

// NewEgress creates an egress loop. It runs inline until Start is called.
// workers is ignored — one goroutine signs and sends — and is kept only
// because the benchmark's layer probes (bench/layers.go) still pass it.
func NewEgress(workers int, m *Metrics) *Egress {
	return &Egress{
		metrics: m,
		wake:    make(chan struct{}, 1),
		local:   make(chan func(), 1024),
	}
}

// Local is the channel of event-loop continuations. The replica Run loop
// must drain it alongside its inbox; each received function is executed on
// the loop goroutine.
func (e *Egress) Local() <-chan func() { return e.local }

// Enqueue submits one outbound unit. sign and then send run on the egress
// goroutine, in submission order; local (optional) is then delivered to the
// Local channel for the event loop. Any stage may be nil. Enqueue never
// blocks (the input queue is unbounded, so the event loop can never
// deadlock against its own egress), and it is safe to call from any
// goroutine — the event loop, the storage group-commit callback, or a test.
//
// Before Start, the three stages run synchronously on the caller.
func (e *Egress) Enqueue(sign, send, local func()) {
	e.mu.Lock()
	if !e.started {
		e.mu.Unlock()
		if sign != nil {
			sign()
		}
		if send != nil {
			send()
		}
		if local != nil {
			local()
		}
		return
	}
	e.queue = append(e.queue, egressJob{sign: sign, send: send, local: local})
	// Count while still holding mu — after unlock the loop may already
	// have released the job and decremented the depth gauge.
	if m := e.metrics; m != nil {
		m.EgressQueued.Add(1)
		d := m.EgressDepth.Add(1)
		for {
			max := m.EgressMaxDepth.Load()
			if d <= max || m.EgressMaxDepth.CompareAndSwap(max, d) {
				break
			}
		}
	}
	e.mu.Unlock()
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// Start arms the egress goroutine: it drains the unbounded input queue and
// runs each job's sign and send back to back, then hands its local
// continuation to the event loop. It exits when ctx is done; jobs still
// queued at that point are dropped, like messages on a closing transport.
func (e *Egress) Start(ctx context.Context) {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		return
	}
	e.started = true
	e.mu.Unlock()

	go func() {
		for ctx.Err() == nil {
			e.mu.Lock()
			batch := e.queue
			e.queue = nil
			e.mu.Unlock()
			if len(batch) == 0 {
				select {
				case <-ctx.Done():
					return
				case <-e.wake:
					continue
				}
			}
			for _, j := range batch {
				if j.sign != nil {
					j.sign()
					if e.metrics != nil {
						e.metrics.EgressSignedOffLoop.Add(1)
					}
				}
				if j.send != nil {
					j.send()
				}
				if e.metrics != nil {
					e.metrics.EgressDepth.Add(-1)
				}
				if j.local != nil {
					select {
					case e.local <- j.local:
					case <-ctx.Done():
						return
					}
				}
			}
		}
	}()
}
