package protocol

import (
	"sync"
	"time"
)

// RTO learns how long to wait for something before giving up on it, from how
// long it has taken before. It smooths latency samples the way TCP does
// (Jacobson/Karels): srtt and rttvar are the exponentially weighted mean and
// mean deviation, and the wait is max(srtt + 4·rttvar, 4·srtt). The 4·srtt
// floor keeps a steady, low-variance path from timing out on ordinary
// queueing spikes; srtt + 4·rttvar alone fires on every burst once rttvar has
// decayed.
//
// Its two users keep Karn's rule themselves: a sample must time one attempt,
// never a wait that spans a retransmission or a view change, or the
// estimator learns to wait out the failures it exists to detect.
//   - The client times a write's first attempt (client.Client): the wait is
//     its retransmission time-out.
//   - A replica times how long a slot or a forwarded request takes to
//     execute (Skeleton): a multiple of the wait is its failure detector's
//     age gate.
//
// Safe for concurrent use.
type RTO struct {
	mu      sync.Mutex
	sampled bool
	srtt    time.Duration
	rttvar  time.Duration
}

// Wait returns max(srtt + 4·rttvar, 4·srtt), capped at limit; until the
// first sample it is limit.
func (e *RTO) Wait(limit time.Duration) time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.sampled {
		return limit
	}
	return min(max(e.srtt+4*e.rttvar, 4*e.srtt), limit)
}

// Sample folds in one observed latency.
func (e *RTO) Sample(r time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.sampled {
		e.sampled = true
		e.srtt, e.rttvar = r, r/2
		return
	}
	dev := e.srtt - r
	if dev < 0 {
		dev = -dev
	}
	e.rttvar += (dev - e.rttvar) / 4
	e.srtt += (r - e.srtt) / 8
}
