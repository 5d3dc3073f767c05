package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/poexec/poe/internal/client"
	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/workload"
)

// requestTimeout bounds one request. A request that is not answered within
// it is a failure, and so misses every latency limit.
const requestTimeout = 5 * time.Second

// submitter is the part of client.Client an identity drives. Tests put a
// fake behind it.
type submitter interface {
	SubmitTxn(ctx context.Context, txn types.Transaction) (types.Result, error)
	ReadTxn(ctx context.Context, txn types.Transaction) (client.ReadAnswer, error)
	NextSeq() uint64
	NextReadSeq() uint64
}

// sample is one request as the generator saw it. Times are offsets from the
// start of the measured window; requests of the warm-up have a negative due.
type sample struct {
	due, done time.Duration
	ok        bool
}

// identity is one client of the system. It holds at most one request in
// flight: the executor's per-client dedup is monotone, so a request
// overtaken by its successor would be dropped without an answer. Arrivals
// that fall due while it is busy wait in fifo, and their latency is counted
// from the time they were due.
type identity struct {
	id  types.ClientID
	sub submitter
	gen *workload.Generator
	// probeEvery > 0 turns every probeEvery-th request into a write to the
	// identity's private key followed by a STRONG read of it.
	probeEvery int

	fifo    chan time.Time
	issued  int
	samples []sample
	// stale counts probe reads that returned something else than the write
	// acknowledged just before them.
	stale int
	// acked holds the last acknowledged value of each private key.
	acked map[string][]byte
}

func newIdentity(id types.ClientID, sub submitter, cfg workload.Config, probeEvery int) *identity {
	return &identity{
		id: id, sub: sub, gen: workload.NewGenerator(cfg, id),
		probeEvery: probeEvery, acked: make(map[string][]byte),
	}
}

// privateKey names a record only this identity writes, outside the YCSB
// table, so that what it reads back can be checked against what it wrote.
func (id *identity) privateKey(name string) string {
	return fmt.Sprintf("bench/%d/%s", id.id, name)
}

// writePrivate writes a numbered value to the identity's private key name
// and, once acknowledged, remembers it.
func (id *identity) writePrivate(ctx context.Context, name string) error {
	id.issued++
	key := id.privateKey(name)
	val := []byte(fmt.Sprintf("%s#%d", name, id.issued))
	txn := types.Transaction{
		Client: id.id, Seq: id.sub.NextSeq(),
		Ops: []types.Op{{Kind: types.OpWrite, Key: key, Value: val}},
	}
	if _, err := id.sub.SubmitTxn(ctx, txn); err != nil {
		return err
	}
	id.acked[key] = val
	return nil
}

// readBack reads the identity's private keys through ordering and reports
// the first one whose value is not the acknowledged one.
func (id *identity) readBack(ctx context.Context, names ...string) error {
	txn := types.Transaction{Client: id.id, Seq: id.sub.NextSeq()}
	for _, name := range names {
		txn.Ops = append(txn.Ops, types.Op{Kind: types.OpRead, Key: id.privateKey(name)})
	}
	res, err := id.sub.SubmitTxn(ctx, txn)
	if err != nil {
		return fmt.Errorf("client %d: read-back: %w", id.id, err)
	}
	if len(res.Values) != len(names) {
		return fmt.Errorf("client %d: read-back returned %d values for %d keys", id.id, len(res.Values), len(names))
	}
	for i, name := range names {
		if want := id.acked[id.privateKey(name)]; !bytes.Equal(res.Values[i], want) {
			return fmt.Errorf("client %d: acknowledged write %q lost: read back %q", id.id, want, res.Values[i])
		}
	}
	return nil
}

// probe checks that a STRONG read is never older than a write the same
// client saw acknowledged before it.
func (id *identity) probe(ctx context.Context) error {
	if err := id.writePrivate(ctx, "probe"); err != nil {
		return err
	}
	key := id.privateKey("probe")
	ans, err := id.sub.ReadTxn(ctx, types.Transaction{
		Client: id.id, Seq: id.sub.NextReadSeq(),
		Ops:         []types.Op{{Kind: types.OpRead, Key: key}},
		Consistency: types.ConsistencyStrong,
	})
	if err != nil {
		return err
	}
	if len(ans.Result.Values) != 1 || !bytes.Equal(ans.Result.Values[0], id.acked[key]) {
		id.stale++
	}
	return nil
}

// do issues the identity's next request and waits for its answer.
func (id *identity) do(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	if id.probeEvery > 0 && (id.issued+1)%id.probeEvery == 0 {
		return id.probe(ctx)
	}
	id.issued++
	txn := id.gen.Next()
	if txn.Consistency != types.ConsistencyOrdered {
		txn.Seq = id.sub.NextReadSeq()
		_, err := id.sub.ReadTxn(ctx, txn)
		return err
	}
	txn.Seq = id.sub.NextSeq()
	_, err := id.sub.SubmitTxn(ctx, txn)
	return err
}

// poissonSchedule returns the offsets, from 0 up to total, at which the
// arrivals of an open loop of the given rate fall due. The same seed gives
// the same schedule.
func poissonSchedule(seed int64, rate float64, total time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= total {
			return out
		}
		out = append(out, at)
	}
}

// load is one run of the generator: warm-up, then the measured window.
type load struct {
	ids    []*identity
	rate   float64 // open loop arrivals per second over all identities; 0 = closed loop
	seed   int64
	warmup time.Duration
	window time.Duration
}

// run drives the identities from begin until the window, which starts a
// warm-up after begin, has ended and every request due in it has been
// answered or has failed. It returns how late each arrival of the window was
// handed to its identity.
//
// Open loop: one dispatcher goroutine walks the schedule and hands each
// arrival, round-robin, to an identity's queue; it never waits for the
// system. Closed loop: every identity issues its next request when the
// previous one is answered.
func (l *load) run(ctx context.Context, begin time.Time) (lag []time.Duration) {
	start := begin.Add(l.warmup)
	end := start.Add(l.window)

	var schedule []time.Duration
	if l.rate > 0 {
		schedule = poissonSchedule(l.seed, l.rate, l.warmup+l.window)
		for _, id := range l.ids {
			// Sized to the identity's whole share of the schedule, so the
			// dispatcher never blocks on a stalled identity.
			id.fifo = make(chan time.Time, len(schedule)/len(l.ids)+1)
		}
	}

	var wg sync.WaitGroup
	for _, id := range l.ids {
		wg.Add(1)
		go func(id *identity) {
			defer wg.Done()
			record := func(due time.Time) {
				err := id.do(ctx)
				id.samples = append(id.samples, sample{due: due.Sub(start), done: time.Since(start), ok: err == nil})
			}
			if l.rate > 0 {
				for due := range id.fifo {
					record(due)
				}
				return
			}
			for now := time.Now(); now.Before(end) && ctx.Err() == nil; now = time.Now() {
				record(now)
			}
		}(id)
	}

	for i, off := range schedule {
		due := begin.Add(off)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(wait):
			}
		}
		if ctx.Err() != nil {
			break
		}
		if !due.Before(start) {
			lag = append(lag, time.Since(due))
		}
		l.ids[i%len(l.ids)].fifo <- due
	}
	if l.rate > 0 {
		for _, id := range l.ids {
			close(id.fifo)
		}
	}
	wg.Wait()
	return lag
}

// measured returns the requests that fell due inside the window.
func (l *load) measured() []sample {
	var out []sample
	for _, id := range l.ids {
		for _, s := range id.samples {
			if s.due >= 0 && s.due < l.window {
				out = append(out, s)
			}
		}
	}
	return out
}
