// Package exec is a deterministic conflict-aware parallel execution engine,
// kept only as a measurement reference: the bench command times it on the
// benchmark's batch and reports exec.run_batch_us beside the serial
// store.apply_batch_us. No replica runs it — replicas execute decided
// batches serially, in sequence order (protocol.Executor).
//
// The engine takes a window of ordered, already-decided batches, derives
// read/write sets from their operations, partitions the transactions (within
// and across batches) into conflict-free waves, executes each wave on a
// worker pool, and hands back per-batch effects that install into the store
// bit-identically to serial execution.
//
// The determinism contract: for any window and any worker count, the
// engine's observable output — read results, write effects in serial
// operation order with serial preimages, and per-batch state-digest deltas —
// equals what executing the window serially through store.KV.Apply would
// have produced. The differential test battery (differential_test.go and
// FuzzConflictSchedule) pins the contract.
//
// Scheduling rule: transactions are scanned in serial order; a transaction's
// wave is one past the highest wave among earlier transactions it conflicts
// with (write-write or read-write on any key, in either direction). Within a
// wave no two transactions touch the same key with a write, so they execute
// concurrently against the overlay of all earlier waves and their effects
// merge in any order. Reads never conflict with reads.
package exec

import (
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/poexec/poe/internal/store"
	"github.com/poexec/poe/internal/types"
)

// Reader is the base-state lookup the engine executes against: the live
// store as of the sequence number just below the window. Values returned
// must be immutable for the duration of the window (store.KV.Preimage
// satisfies this: installed values are never mutated in place).
type Reader interface {
	Preimage(key string) ([]byte, bool)
}

// Task is one decided batch of the window, already deduplicated by the
// executor (the engine never sees requests the dedup history suppressed).
type Task struct {
	Seq   types.SeqNum
	Batch *types.Batch
}

// BatchResult is one batch's precomputed effects, ready for
// store.KV.InstallPrepared: results in request order, write effects in
// serial operation order with serial preimages, and the batch's combined
// state-digest delta.
type BatchResult struct {
	Results []types.Result
	Writes  []store.WriteEffect
	Delta   [32]byte
}

// Stats reports one window's scheduling shape: Txns/Waves is the achieved
// intra-wave parallelism, Waves the conflict depth of the window.
type Stats struct {
	Txns  int
	Waves int
}

// Engine is a reusable scheduler + worker pool. It is safe for use by one
// caller at a time; the zero worker count means GOMAXPROCS.
type Engine struct {
	workers int
}

// New creates an engine with the given worker-pool size (≤ 0 = GOMAXPROCS).
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: workers}
}

// Workers returns the engine's worker-pool size.
func (e *Engine) Workers() int { return e.workers }

// unit is one schedulable transaction: a request of one batch, or a whole
// zero-payload batch (which touches no keys and schedules into wave 0).
type unit struct {
	task int // index into the window's tasks
	req  int // request index; -1 = the batch's zero-payload unit
	wave int

	res     types.Result
	zeroRes []types.Result // zero-payload batch: one result per carried request
	writes  []store.WriteEffect
	delta   [32]byte
}

// keyWaves tracks, per key, the wave of the last writer and the highest wave
// of any reader seen so far in the serial scan. -1 = not yet accessed.
type keyWaves struct {
	lastWrite int
	lastRead  int
}

// Run executes a window of ordered batches and returns their effects, one
// BatchResult per task, plus the window's scheduling stats. The tasks must
// be consecutive sequence numbers in order; results install in that order.
func (e *Engine) Run(base Reader, tasks []Task) ([]BatchResult, Stats) {
	units, maxWave := schedule(tasks)
	// Bucket units by wave, preserving serial order inside each wave (not
	// required for correctness — intra-wave units are conflict-free — but it
	// keeps scheduling deterministic and debuggable).
	waves := make([][]int, maxWave+1)
	for i := range units {
		w := units[i].wave
		waves[w] = append(waves[w], i)
	}
	overlay := make(map[string][]byte)
	for _, wave := range waves {
		e.parallelFor(len(wave), func(j int) {
			runUnit(&units[wave[j]], tasks, base, overlay)
		})
		// Barrier: merge the wave's writes into the overlay so the next wave
		// reads them. No two units in one wave write the same key, so merge
		// order within the wave is irrelevant; within one unit, later writes
		// to a key overwrite earlier ones, matching serial order.
		for _, ui := range wave {
			for k := range units[ui].writes {
				w := &units[ui].writes[k]
				overlay[w.Key] = w.Val
			}
		}
	}
	// Assemble per-batch effects in serial unit order.
	out := make([]BatchResult, len(tasks))
	for t := range tasks {
		out[t].Results = make([]types.Result, len(tasks[t].Batch.Requests))
	}
	for i := range units {
		u := &units[i]
		br := &out[u.task]
		if u.req < 0 {
			// Zero-payload: one unit produced the whole batch's results.
			copy(br.Results, u.zeroRes)
			continue
		}
		br.Results[u.req] = u.res
		br.Writes = append(br.Writes, u.writes...)
		br.Delta = xor(br.Delta, u.delta)
	}
	return out, Stats{Txns: len(units), Waves: len(waves)}
}

// schedule derives read/write sets and assigns each unit its wave. It is a
// single serial pass in O(total ops); the conflict structure it encodes is
// exactly "no unit shares a key with a conflicting earlier unit in the same
// or a later wave".
func schedule(tasks []Task) ([]unit, int) {
	total := 0
	for t := range tasks {
		if tasks[t].Batch.ZeroPayload {
			total++
		} else {
			total += len(tasks[t].Batch.Requests)
		}
	}
	units := make([]unit, 0, total)
	waves := make(map[string]*keyWaves, 64)
	maxWave := 0
	for t := range tasks {
		b := tasks[t].Batch
		if b.ZeroPayload {
			// Touches no state: always wave 0.
			units = append(units, unit{task: t, req: -1})
			continue
		}
		for r := range b.Requests {
			ops := b.Requests[r].Txn.Ops
			w := 0
			for i := range ops {
				kw, ok := waves[ops[i].Key]
				if !ok {
					continue
				}
				switch ops[i].Kind {
				case types.OpRead:
					// Read after the last conflicting write.
					if kw.lastWrite+1 > w {
						w = kw.lastWrite + 1
					}
				case types.OpWrite:
					// Write after the last write and after every earlier
					// reader (the anti-dependency: they must see the
					// pre-write value).
					if kw.lastWrite+1 > w {
						w = kw.lastWrite + 1
					}
					if kw.lastRead+1 > w {
						w = kw.lastRead + 1
					}
				}
			}
			for i := range ops {
				if ops[i].Kind != types.OpRead && ops[i].Kind != types.OpWrite {
					continue
				}
				kw, ok := waves[ops[i].Key]
				if !ok {
					kw = &keyWaves{lastWrite: -1, lastRead: -1}
					waves[ops[i].Key] = kw
				}
				switch ops[i].Kind {
				case types.OpRead:
					if w > kw.lastRead {
						kw.lastRead = w
					}
				case types.OpWrite:
					kw.lastWrite = w
				}
			}
			if w > maxWave {
				maxWave = w
			}
			units = append(units, unit{task: t, req: r, wave: w})
		}
	}
	return units, maxWave
}

// runUnit executes one unit on a worker: reads resolve through the unit's
// own writes, then the overlay of earlier waves, then the base store —
// exactly the value serial execution would have seen — and writes record
// their preimage and digest delta. The overlay is read-only during a wave.
func runUnit(u *unit, tasks []Task, base Reader, overlay map[string][]byte) {
	b := tasks[u.task].Batch
	if u.req < 0 {
		runZeroPayload(u, b)
		return
	}
	txn := &b.Requests[u.req].Txn
	u.res = types.Result{Client: txn.Client, Seq: txn.Seq}
	lookup := func(key string) ([]byte, bool) {
		for i := len(u.writes) - 1; i >= 0; i-- {
			if u.writes[i].Key == key {
				return u.writes[i].Val, true
			}
		}
		if v, ok := overlay[key]; ok {
			return v, true
		}
		return base.Preimage(key)
	}
	for i := range txn.Ops {
		op := &txn.Ops[i]
		switch op.Kind {
		case types.OpRead:
			if v, ok := lookup(op.Key); ok {
				u.res.Values = append(u.res.Values, append([]byte(nil), v...))
			} else {
				u.res.Values = append(u.res.Values, nil)
			}
		case types.OpWrite:
			prev, existed := lookup(op.Key)
			val := append([]byte(nil), op.Value...)
			u.writes = append(u.writes, store.WriteEffect{
				Key: op.Key, Val: val, Prev: prev, PrevExisted: existed,
			})
			u.delta = xor(u.delta, store.EntryDelta(op.Key, prev, existed, val))
			u.res.Values = append(u.res.Values, nil)
		case types.OpNoop:
			zeroWork(1)
			u.res.Values = append(u.res.Values, nil)
		}
	}
}

// runZeroPayload executes a zero-payload batch: the dummy instructions plus
// one empty result per carried request, matching store.KV.Apply's
// zero-payload branch byte for byte (there are no bytes: Values stay nil).
func runZeroPayload(u *unit, b *types.Batch) {
	zeroWork(b.ZeroCount)
	u.zeroRes = make([]types.Result, len(b.Requests))
	for i := range b.Requests {
		u.zeroRes[i] = types.Result{Client: b.Requests[i].Txn.Client, Seq: b.Requests[i].Txn.Seq}
	}
}

// zeroWork burns the same dummy instructions per operation as the serial
// store does, so zero-payload throughput comparisons stay fair.
func zeroWork(count int) {
	var scratch [8]byte
	for i := 0; i < count; i++ {
		for j := 0; j < store.ZeroWork; j++ {
			binary.BigEndian.PutUint64(scratch[:], uint64(i)^uint64(j))
		}
	}
	_ = scratch
}

// parallelFor runs fn(0..n-1) across the worker pool and waits for all of
// them. With one worker (or one item) it runs inline — the exact same code
// path, so output cannot depend on the pool size.
func (e *Engine) parallelFor(n int, fn func(int)) {
	workers := e.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

func xor(a, b [32]byte) [32]byte {
	var out [32]byte
	for i := range a {
		out[i] = a[i] ^ b[i]
	}
	return out
}
