// Ablation benchmarks for the design choices DESIGN.md §5 calls out, each
// exporting throughput as the "txn/s" metric. The paper's tables and
// figures are regenerated by `go run ./cmd/poebench -fig <n>`; the deployed
// system is measured by `go run ./bench`.
//
// Absolute numbers differ from the paper (its substrate was a 91-machine
// Google Cloud deployment; ours is an in-process fabric) — the claims under
// test are the *shapes*: who wins, by roughly what factor, and where the
// crossovers are.
package poe

import (
	"fmt"
	"testing"
	"time"

	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/harness"
)

// The scaled-down experiment dimensions.
var (
	benchNs      = []int{4, 8, 16, 32}
	benchWarmup  = 400 * time.Millisecond
	benchMeasure = 800 * time.Millisecond
)

func runOnce(b *testing.B, opts harness.Options) harness.Result {
	b.Helper()
	opts.Warmup = benchWarmup
	opts.Measure = benchMeasure
	res, err := harness.Run(opts)
	if err != nil {
		b.Fatalf("harness: %v", err)
	}
	return res
}

// BenchmarkAblationSpeculation contrasts speculative execution (PoE: execute
// after prepare, saving one phase before the client sees a result) with
// commit-phase execution (PBFT) at identical scheme and batch settings —
// isolating ingredient I1. A link delay makes the phase count visible in
// client latency.
func BenchmarkAblationSpeculation(b *testing.B) {
	for _, p := range []harness.Protocol{harness.PoE, harness.PBFT} {
		b.Run(string(p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runOnce(b, harness.Options{
					Protocol: p, N: 8, Scheme: crypto.SchemeMAC,
					BatchSize: 50, Clients: 32, Outstanding: 16,
					NetDelay: 5 * time.Millisecond,
				})
				b.ReportMetric(res.Throughput, "txn/s")
				b.ReportMetric(float64(res.AvgLatency.Microseconds())/1000, "ms/lat")
			}
		})
	}
}

// BenchmarkAblationSignatureScheme sweeps PoE's scheme across replica counts
// (ingredient I3: MAC favoured at small n, TS at larger n).
func BenchmarkAblationSignatureScheme(b *testing.B) {
	for _, scheme := range []crypto.Scheme{crypto.SchemeMAC, crypto.SchemeTS} {
		for _, n := range benchNs {
			b.Run(fmt.Sprintf("%v/n=%d", scheme, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res := runOnce(b, harness.Options{
						Protocol: harness.PoE, N: n, Scheme: scheme,
						BatchSize: 50, Clients: 32, Outstanding: 16,
					})
					b.ReportMetric(res.Throughput, "txn/s")
				}
			})
		}
	}
}

// BenchmarkAblationWindow sweeps the out-of-order window (§II-F) under a
// link delay, where the window size directly bounds the number of decisions
// in flight.
func BenchmarkAblationWindow(b *testing.B) {
	for _, w := range []int{1, 4, 16, 64, 256} {
		b.Run(fmt.Sprintf("window=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runOnce(b, harness.Options{
					Protocol: harness.PoE, N: 8, Window: w,
					BatchSize: 10, Clients: 32, Outstanding: 32,
					NetDelay: 5 * time.Millisecond,
				})
				b.ReportMetric(res.Throughput, "txn/s")
			}
		})
	}
}

// BenchmarkAblationBatchZeroPayload crosses batching with zero payload.
func BenchmarkAblationBatchZeroPayload(b *testing.B) {
	for _, zero := range []bool{false, true} {
		for _, bs := range []int{10, 100} {
			name := fmt.Sprintf("zero=%v/batch=%d", zero, bs)
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res := runOnce(b, harness.Options{
						Protocol: harness.PoE, N: 8, BatchSize: bs,
						ZeroPayload: zero, Clients: 16, Outstanding: 8,
					})
					b.ReportMetric(res.Throughput, "txn/s")
				}
			})
		}
	}
}

// BenchmarkAblationCheckpointInterval varies the checkpoint cadence, which
// trades undo-log/view-change size against checkpoint traffic (§II-D).
func BenchmarkAblationCheckpointInterval(b *testing.B) {
	for _, interval := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("interval=%d", interval), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runOnce(b, harness.Options{
					Protocol: harness.PoE, N: 8,
					BatchSize: 50, Clients: 32, Outstanding: 16,
					CheckpointInterval: interval,
				})
				b.ReportMetric(res.Throughput, "txn/s")
			}
		})
	}
}
