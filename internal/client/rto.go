package client

import (
	"sync"
	"time"
)

// rto decides how long a write may go unanswered before the client suspects
// the primary and broadcasts it (§II-B). It smooths the reply latency of
// first attempts the way TCP does (Jacobson/Karels): srtt and rttvar are
// exponentially weighted mean and mean deviation, and the wait is
// max(srtt + 4·rttvar, 4·srtt), capped at Config.Timeout. A retransmitted
// request is never sampled (Karn's rule): its reply cannot be matched to one
// attempt, and a view change would otherwise teach the client to wait out
// view changes. Until the first sample the wait is Config.Timeout.
//
// The 4·srtt floor keeps a client on a steady, low-variance path from
// retransmitting on ordinary queueing spikes; srtt + 4·rttvar alone fires on
// every burst once rttvar has decayed.
type rto struct {
	max time.Duration

	mu      sync.Mutex
	sampled bool
	srtt    time.Duration
	rttvar  time.Duration
}

// wait returns how long the first attempt may go unanswered.
func (e *rto) wait() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.sampled {
		return e.max
	}
	return min(max(e.srtt+4*e.rttvar, 4*e.srtt), e.max)
}

// sample folds in the reply latency of a request answered on its first
// attempt.
func (e *rto) sample(r time.Duration) {
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
