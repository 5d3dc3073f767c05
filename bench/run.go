package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/poexec/poe/internal/consensus/protocol"
)

// instances is how many clusters a measured run launches, one after the
// other; each carries a third of the window (reportEndToEnd says how the
// three are combined). Replicas run on real timers, and how their ticks fall
// against each other differs from launch to launch and then stays: one
// cluster in six here batches more per PROPOSE, at 15% less CPU per txn and
// 1 ms more latency, for as long as it lives. A single long window measures
// which kind of cluster it got.
const instances = 3

// warmupFor is how long a cluster is offered the traffic before a window of
// the given length starts: 2 s, less only before the short windows of the
// smoke tests.
func warmupFor(window time.Duration) time.Duration {
	return min(2*time.Second, window/2)
}

// settle is how long the idle cluster is left alone before it is shut down:
// a client is answered by the fastest nf replicas, and the fourth needs a few
// milliseconds more to execute the last batch. There is no event to wait on
// from outside; the exit metrics exist only after the shutdown.
const settle = 300 * time.Millisecond

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// passResult is what one pass of a workload over a cluster of processes
// yields, before it is turned into metrics.
type passResult struct {
	setup   time.Duration // launch until every client has been answered once
	window  time.Duration
	killAt  time.Duration // offset of the SIGKILL in the window; 0 = no fault
	samples []sample      // requests due in the window
	lag     []time.Duration
	before  usage
	after   usage
	atKill  usage
	rssMB   float64
	exit    []*protocol.MetricsSnapshot
	// gates lists every correctness check that failed.
	gates []string
}

// faultOffsets places the fault and the degraded phase in a window. Every
// workload uses the same offsets, so that degraded_p50_ms means the same span
// of the window whether or not a replica was killed at its start.
func faultOffsets(window time.Duration) (killAt, degradedFrom time.Duration) {
	return window * 4 / 10, window * 7 / 10
}

// runPass launches a cluster, offers it the workload's traffic for warm-up +
// window, checks the correctness gates and shuts the cluster down.
func runPass(ctx context.Context, bin, workDir string, sp *spec, seed int64, window time.Duration) (*passResult, error) {
	res := &passResult{window: window}
	began := time.Now()
	c, err := startCluster(ctx, bin, filepath.Join(workDir, "cluster"), sp, seed)
	if err != nil {
		return nil, err
	}
	res.setup = time.Since(began)
	stopped := false
	defer func() {
		if !stopped {
			c.stop()
		}
	}()

	l := &load{ids: c.ids, rate: sp.rate, seed: seed, warmup: warmupFor(window), window: window}
	begin := time.Now()

	// The readings and the fault happen on the window's clock, beside the
	// generator.
	observed := make(chan error, 1)
	go func() { observed <- res.observe(ctx, c, sp.crash, begin.Add(l.warmup)) }()
	res.lag = l.run(ctx, begin)
	if err := <-observed; err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.samples = l.measured()

	// No acknowledged write may be lost: the marker written before the
	// window (and before the fault) and one written now are read back
	// through ordering.
	err = eachIdentity(c.ids, func(id *identity) error {
		rctx, cancel := context.WithTimeout(ctx, 2*requestTimeout)
		defer cancel()
		if err := id.writePrivate(rctx, "end"); err != nil {
			return fmt.Errorf("client %d: end marker: %w", id.id, err)
		}
		return id.readBack(rctx, "pre", "end")
	})
	if err != nil {
		res.gates = append(res.gates, err.Error())
	}
	for _, id := range c.ids {
		if id.stale > 0 {
			res.gates = append(res.gates, fmt.Sprintf("client %d: %d STRONG reads older than the client's own acknowledged write", id.id, id.stale))
		}
	}

	if err := sleepUntil(ctx, time.Now().Add(settle)); err != nil {
		return nil, err
	}
	stopped = true
	if res.exit, err = c.stop(); err != nil {
		return nil, err
	}
	res.gates = append(res.gates, checkExit(res.exit, sp.crash)...)
	return res, nil
}

// observe reads what the replicas and the generator have consumed when the
// window starts and when it ends, and in between kills replica 0, the primary
// of view 0, if the workload says so.
func (res *passResult) observe(ctx context.Context, c *cluster, crash bool, start time.Time) error {
	if err := sleepUntil(ctx, start); err != nil {
		return err
	}
	var err error
	if res.before, err = readUsage(c.pids, nil); err != nil {
		return err
	}
	res.atKill = res.before
	if crash {
		killAt, _ := faultOffsets(res.window)
		if err := sleepUntil(ctx, start.Add(killAt)); err != nil {
			return err
		}
		if res.atKill, err = readUsage(c.pids, nil); err != nil {
			return err
		}
		if err := c.runner.Kill(0); err != nil {
			return err
		}
		res.killAt = time.Since(start)
	}
	if err := sleepUntil(ctx, start.Add(res.window)); err != nil {
		return err
	}
	res.after, err = readUsage(c.pids, &res.atKill)
	res.rssMB = peakRSS(c.pids)
	return err
}

func sleepUntil(ctx context.Context, t time.Time) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(time.Until(t)):
		return nil
	}
}

// checkExit compares the exit metrics of the replicas that were shut down
// gracefully: they must have executed the same transactions in the same
// batches, and a run without a fault must not have changed view or rolled
// anything back.
func checkExit(exit []*protocol.MetricsSnapshot, crashed bool) []string {
	var gates []string
	var first *protocol.MetricsSnapshot
	for id, m := range exit {
		if m == nil {
			continue
		}
		if first == nil {
			first = m
		}
		if m.ExecutedTxns != first.ExecutedTxns || m.ExecutedBatches != first.ExecutedBatches {
			gates = append(gates, fmt.Sprintf("replica %d executed %d txns in %d batches, another %d in %d",
				id, m.ExecutedTxns, m.ExecutedBatches, first.ExecutedTxns, first.ExecutedBatches))
		}
		if !crashed && (m.ViewChanges != 0 || m.Rollbacks != 0) {
			gates = append(gates, fmt.Sprintf("replica %d: %d view changes and %d rollbacks without a fault",
				id, m.ViewChanges, m.Rollbacks))
		}
	}
	if first == nil {
		gates = append(gates, "no replica wrote exit metrics")
	}
	return gates
}

// latencies returns the ascending latencies, in ms, of the answered requests
// whose due time lies in [from, to).
func latencies(samples []sample, from, to time.Duration) []float64 {
	var out []float64
	for _, s := range samples {
		if s.ok && s.due >= from && s.due < to {
			out = append(out, msOf(s.done-s.due))
		}
	}
	sort.Float64s(out)
	return out
}

// report prints one line per metric, "workload metric value unit", with what
// the figure rests on where that matters.
type report struct {
	workload string
	metrics  map[string]metric
}

func (r *report) add(name string, value float64, unit, note string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
	if note != "" {
		note = "  # " + note
	}
	fmt.Printf("%s %s %.6g %s%s\n", r.workload, name, value, unit, note)
}

// reportEndToEnd prints the end-to-end metrics of a run's passes, one per
// cluster launched. Latency percentiles are taken over the requests of all
// passes together; a figure that belongs to one cluster (its set-up time, its
// throughput, its CPU per txn, its outage) is the median over the passes, and
// each pass's own value is printed beside it.
func reportEndToEnd(r *report, passes []*passResult) {
	window := passes[0].window
	killAt, degradedFrom := faultOffsets(window)
	faulted := passes[0].killAt > 0

	var setup, txnS, cpu, genCPU, outage []float64
	var lat, deg []float64
	for _, p := range passes {
		completed, done := p.completions()
		setup = append(setup, p.setup.Seconds())
		txnS = append(txnS, float64(completed)/window.Seconds())
		cpu = append(cpu, p.replicaCPU()/float64(max(completed, 1)))
		genCPU = append(genCPU, float64((p.after.genCPU-p.before.genCPU).Microseconds())/float64(max(completed, 1)))
		// With a fault in the window, p50 and p99 are those of the requests
		// due before it; the outage and the time after it have their own
		// metrics.
		healthy := window
		if faulted {
			healthy = killAt
			outage = append(outage, msOf(longestGap(done, p.killAt, window)))
		} else {
			outage = append(outage, completionGaps(done, window)...)
		}
		lat = append(lat, latencies(p.samples, 0, healthy)...)
		deg = append(deg, latencies(p.samples, degradedFrom, window)...)
	}
	sort.Float64s(lat)
	sort.Float64s(deg)
	p99, used := tail(lat, 0.99)

	each := func(values []float64, what string) string {
		shown := make([]string, len(values))
		for i, v := range values {
			shown[i] = fmt.Sprintf("%.4g", v)
		}
		return fmt.Sprintf("median of %s; %s", strings.Join(shown, ", "), what)
	}
	r.add("setup_s", median(setup), "s", each(setup, "launch until every client has been answered once"))
	r.add("txn_s", median(txnS), "txn/s", each(txnS, fmt.Sprintf("completed in a window of %v", window)))
	r.add("p50_ms", quantile(lat, 0.5), "ms", fmt.Sprintf("%d samples", len(lat)))
	r.add("p99_ms", p99, "ms", percentileNote(used, len(lat)))
	r.add("cpu_us_per_txn", median(cpu), "us", each(cpu, fmt.Sprintf("replica processes' user+system time; the generator used %.4g us per txn beside them", median(genCPU))))
	if faulted {
		r.add("outage_ms", median(outage), "ms", each(outage, "longest time without a completion after the primary is killed"))
	} else {
		r.add("outage_ms", typicalSilence(outage), "ms", "no fault: the completion-free interval a random instant of the windows falls into")
	}
	r.add("degraded_p50_ms", quantile(deg, 0.5), "ms", fmt.Sprintf("%d samples due in the last %v of a window", len(deg), window-degradedFrom))
}

// completions counts the requests answered inside the window and returns
// their completion times.
func (p *passResult) completions() (int, []time.Duration) {
	var done []time.Duration
	for _, s := range p.samples {
		if s.ok && s.done < p.window {
			done = append(done, s.done)
		}
	}
	return len(done), done
}

// replicaCPU is the CPU time, in µs, all replica processes used in the window.
func (p *passResult) replicaCPU() float64 {
	var total time.Duration
	for id := range p.after.replicaCPU {
		total += p.after.replicaCPU[id] - p.before.replicaCPU[id]
	}
	return float64(total.Microseconds())
}

// failed counts the requests of the window that were not answered.
func (p *passResult) failed() int {
	n := 0
	for _, s := range p.samples {
		if !s.ok {
			n++
		}
	}
	return n
}
