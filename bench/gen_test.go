package main

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/poexec/poe/internal/client"
	"github.com/poexec/poe/internal/types"
)

// fakeSub answers every request after delay (the first one after stall, if
// set) and records what it was given.
type fakeSub struct {
	delay, stall time.Duration

	seq, readSeq atomic.Uint64
	inFlight     atomic.Int32
	maxInFlight  atomic.Int32

	mu   sync.Mutex
	txns []types.Transaction
}

func (f *fakeSub) serve(ctx context.Context, txn types.Transaction) error {
	n := f.inFlight.Add(1)
	defer f.inFlight.Add(-1)
	for {
		m := f.maxInFlight.Load()
		if n <= m || f.maxInFlight.CompareAndSwap(m, n) {
			break
		}
	}
	f.mu.Lock()
	first := len(f.txns) == 0
	f.txns = append(f.txns, txn)
	f.mu.Unlock()
	wait := f.delay
	if first && f.stall > 0 {
		wait = f.stall
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(wait):
		return nil
	}
}

func (f *fakeSub) SubmitTxn(ctx context.Context, txn types.Transaction) (types.Result, error) {
	return types.Result{}, f.serve(ctx, txn)
}

func (f *fakeSub) ReadTxn(ctx context.Context, txn types.Transaction) (client.ReadAnswer, error) {
	return client.ReadAnswer{}, f.serve(ctx, txn)
}

func (f *fakeSub) NextSeq() uint64     { return f.seq.Add(1) }
func (f *fakeSub) NextReadSeq() uint64 { return f.readSeq.Add(1) }

func fakeLoad(subs []*fakeSub, rate float64, seed int64, window time.Duration) *load {
	l := &load{rate: rate, seed: seed, window: window}
	for i, s := range subs {
		l.ids = append(l.ids, newIdentity(types.ClientIDBase+types.ClientID(i), s, ycsb(seed), 0))
	}
	return l
}

func TestSameSeedSameScheduleAndTransactions(t *testing.T) {
	a := poissonSchedule(7, 1000, 2*time.Second)
	b := poissonSchedule(7, 1000, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two arrival schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 1000, 2*time.Second)) {
		t.Fatal("two seeds gave the same arrival schedule")
	}
	if n := len(a); n < 1800 || n > 2200 {
		t.Fatalf("1000/s for 2 s scheduled %d arrivals", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule goes back in time at %d", i)
		}
	}

	var streams [2][]types.Transaction
	for run := range streams {
		subs := []*fakeSub{{}, {}}
		fakeLoad(subs, 2000, 7, 200*time.Millisecond).run(context.Background(), time.Now())
		for _, s := range subs {
			streams[run] = append(streams[run], s.txns...)
		}
	}
	if len(streams[0]) < 300 {
		t.Fatalf("only %d transactions were submitted", len(streams[0]))
	}
	if !reflect.DeepEqual(streams[0], streams[1]) {
		t.Fatal("the same seed gave two transaction streams")
	}
}

func TestNeverTwoInFlightPerIdentity(t *testing.T) {
	// 4 identities that each take 2 ms per request are offered 4000/s, twice
	// what they can serve: arrivals queue, and must still go out one by one.
	subs := []*fakeSub{{delay: 2 * time.Millisecond}, {delay: 2 * time.Millisecond}, {delay: 2 * time.Millisecond}, {delay: 2 * time.Millisecond}}
	l := fakeLoad(subs, 4000, 1, 150*time.Millisecond)
	l.run(context.Background(), time.Now())
	served := 0
	for i, s := range subs {
		if m := s.maxInFlight.Load(); m != 1 {
			t.Errorf("identity %d had %d requests in flight", i, m)
		}
		served += len(s.txns)
	}
	if want := len(poissonSchedule(1, 4000, 150*time.Millisecond)); served != want {
		t.Errorf("%d arrivals were scheduled, %d served", want, served)
	}

	// Closed loop: the same holds, and the identities keep busy to the end.
	subs = []*fakeSub{{delay: time.Millisecond}, {delay: time.Millisecond}}
	l = fakeLoad(subs, 0, 1, 100*time.Millisecond)
	l.run(context.Background(), time.Now())
	for i, s := range subs {
		if m := s.maxInFlight.Load(); m != 1 {
			t.Errorf("closed loop: identity %d had %d requests in flight", i, m)
		}
		if len(s.txns) < 20 {
			t.Errorf("closed loop: identity %d issued only %d requests in 100 ms at 1 ms each", i, len(s.txns))
		}
	}
}

func TestLatencyCountsFromDueTime(t *testing.T) {
	// The one identity stalls 200 ms on its first request. Arrivals keep
	// falling due at 200/s meanwhile; each must be charged the time it
	// waited in the queue, not only its own 1 ms of service.
	const stall = 200 * time.Millisecond
	sub := &fakeSub{delay: time.Millisecond, stall: stall}
	l := fakeLoad([]*fakeSub{sub}, 200, 3, 400*time.Millisecond)
	l.run(context.Background(), time.Now())
	samples := l.measured()
	if len(samples) < 40 {
		t.Fatalf("only %d samples", len(samples))
	}
	first := samples[0]
	queued := 0
	for _, s := range samples[1:] {
		if s.due >= first.due+stall {
			continue // fell due after the stall was over
		}
		queued++
		// It could not be answered before the stalled request was.
		if wantAtLeast := first.due + stall - s.due; s.done-s.due < wantAtLeast {
			t.Errorf("request due at %v was charged %v; it waited at least %v behind the stall", s.due, s.done-s.due, wantAtLeast)
		}
	}
	if queued < 20 {
		t.Fatalf("only %d arrivals fell due during the stall", queued)
	}
}

func TestFailedRequestIsRecorded(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	sub := &fakeSub{delay: time.Second}
	l := fakeLoad([]*fakeSub{sub}, 0, 1, 50*time.Millisecond)
	l.run(ctx, time.Now())
	if len(l.ids[0].samples) == 0 || l.ids[0].samples[0].ok {
		t.Fatalf("a request cut off by its context was not recorded as failed: %+v", l.ids[0].samples)
	}
}
