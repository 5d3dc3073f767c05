package crypto

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the shared verification pool: asymmetric-crypto
// checks over independent items (threshold shares, certificate signatures,
// per-request client signatures) are fanned out across worker goroutines so
// a single replica event loop never serializes a pile of Ed25519
// verifications. On a single-core system the pool degrades to a plain loop
// with no goroutine overhead.

// verifyWorkers is the fan-out width used by ParallelAll/ParallelEach.
var verifyWorkers atomic.Int32

func init() { verifyWorkers.Store(int32(runtime.GOMAXPROCS(0))) }

// SetVerifyWorkers overrides the verification fan-out width; n < 1 resets it
// to GOMAXPROCS. It exists for the micro-benchmarks that compare sequential
// (n = 1) against pooled verification and for tests; production code leaves
// the default.
func SetVerifyWorkers(n int) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	verifyWorkers.Store(int32(n))
}

// ParallelAll reports whether f(i) is true for every i in [0, n). Calls are
// distributed over the verification pool; once any call fails, remaining
// work is abandoned (calls already in flight still finish). f must be safe
// for concurrent use from multiple goroutines.
func ParallelAll(n int, f func(int) bool) bool {
	workers := int(verifyWorkers.Load())
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if !f(i) {
				return false
			}
		}
		return true
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if !f(i) {
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return !failed.Load()
}

// ParallelEach runs f(i) for every i in [0, n) across the verification pool,
// without short-circuiting. f must be safe for concurrent use.
func ParallelEach(n int, f func(int)) {
	workers := int(verifyWorkers.Load())
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}
