// Command poebench regenerates the tables and figures of the PoE paper's
// evaluation (§IV). Each figure has scaled-down defaults that finish in
// seconds; -full raises replica counts and durations toward the paper's
// configuration (n up to 91).
//
// Usage:
//
//	poebench -fig all
//	poebench -fig 9ab -full
//	poebench -fig 11
//
// Beyond the paper's figures, -fig chaos runs the robustness scenario suite
// (docs/SCENARIOS.md): partition-then-heal for all five protocols plus the
// Byzantine attacks of Example 3, reporting throughput, view changes, and
// the digest-prefix safety verdict for each.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/harness"
	"github.com/poexec/poe/internal/sim"
)

// benchEntry is one row of the machine-readable -json snapshot
// (BENCH_PR5.json schema, superset of the PR 4 one): benchmark name →
// throughput and latency. Harness rows fill TxnPerSec/LatencyMs; simulation
// rows (fig 11) fill DecisionsPerSec; codec rows (fig codec) fill
// OpsPerSec/MBPerSec.
type benchEntry struct {
	TxnPerSec       float64 `json:"txn_s,omitempty"`
	LatencyMs       float64 `json:"latency_ms,omitempty"`
	DecisionsPerSec float64 `json:"decisions_s,omitempty"`
	OpsPerSec       float64 `json:"ops_s,omitempty"`
	MBPerSec        float64 `json:"mb_s,omitempty"`
	// Read-path rows (fig reads): speedup over the all-consensus baseline
	// of the same sweep, and the digest-prefix audit verdict.
	Speedup        float64 `json:"speedup,omitempty"`
	AuditChecked   int64   `json:"audit_checked,omitempty"`
	AuditMismatch  int64   `json:"audit_mismatch,omitempty"`
	ReadFallbackPc float64 `json:"read_fallback_pct,omitempty"`
}

// benchSnapshot is the file the CI job uploads next to the fig-11 output so
// the perf trajectory is tracked per push.
type benchSnapshot struct {
	Schema     string                `json:"schema"`
	Benchmarks map[string]benchEntry `json:"benchmarks"`
}

var snapshot = benchSnapshot{Schema: "poebench/v1", Benchmarks: map[string]benchEntry{}}

// record adds one harness result to the snapshot.
func record(name string, res harness.Result) {
	snapshot.Benchmarks[name] = benchEntry{TxnPerSec: res.Throughput, LatencyMs: ms(res.AvgLatency)}
}

// recordSim adds one simulation result to the snapshot.
func recordSim(name string, res sim.Result) {
	snapshot.Benchmarks[name] = benchEntry{DecisionsPerSec: res.DecisionsPS}
}

func writeSnapshot(path string) {
	data, err := json.MarshalIndent(&snapshot, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

type scale struct {
	ns        []int
	batchN    int
	clients   int
	out       int
	warmup    time.Duration
	measure   time.Duration
	batchSize int
}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 1,7,8,9ab,9cd,9ef,9gh,9ij,9kl,10,11,codec,reads,all; or the chaos scenario suite: chaos")
	full := flag.Bool("full", false, "run the larger (paper-scale) configurations")
	jsonPath := flag.String("json", "", "write a machine-readable benchmark snapshot (benchmark name → txn/s, latency) to this file")
	flag.Parse()

	sc := scale{
		ns: []int{4, 8, 16}, batchN: 8,
		clients: 16, out: 8,
		warmup: 300 * time.Millisecond, measure: time.Second,
		batchSize: 50,
	}
	if *full {
		sc = scale{
			ns: []int{4, 16, 32, 64, 91}, batchN: 32,
			clients: 64, out: 16,
			warmup: 3 * time.Second, measure: 10 * time.Second,
			batchSize: 100,
		}
	}

	figs := strings.Split(*fig, ",")
	run := func(name string) bool {
		if *fig == "all" {
			return true
		}
		for _, f := range figs {
			if f == name {
				return true
			}
		}
		return false
	}

	any := false
	if run("1") {
		any = true
		fig1()
	}
	if run("7") {
		any = true
		fig7(sc)
	}
	if run("8") {
		any = true
		fig8(sc)
	}
	if run("9ab") {
		any = true
		fig9(sc, "9ab: scalability, standard payload, single backup failure", true, false)
	}
	if run("9cd") {
		any = true
		fig9(sc, "9cd: scalability, standard payload, no failures", false, false)
	}
	if run("9ef") {
		any = true
		fig9(sc, "9ef: zero payload, single backup failure", true, true)
	}
	if run("9gh") {
		any = true
		fig9(sc, "9gh: zero payload, no failures", false, true)
	}
	if run("9ij") {
		any = true
		fig9ij(sc)
	}
	if run("9kl") {
		any = true
		fig9kl(sc)
	}
	if run("10") {
		any = true
		fig10(sc)
	}
	if run("11") {
		any = true
		fig11()
	}
	if run("chaos") && *fig != "all" {
		any = true
		figChaos(sc)
	}
	if run("codec") {
		any = true
		figCodec()
	}
	if run("reads") {
		any = true
		figReads(sc)
	}
	if !any {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		os.Exit(2)
	}
	if *jsonPath != "" {
		writeSnapshot(*jsonPath)
	}
}

func header(title string) {
	fmt.Printf("\n=== Fig %s ===\n", title)
}

func fig1() {
	header("1: protocol cost comparison (analytic)")
	fmt.Print(protocol.FormatCostTable(91, 30))
}

func fig7(sc scale) {
	header("7: upper bound (no consensus)")
	for _, execute := range []bool{false, true} {
		res, err := harness.RunUpperBound(harness.UpperBoundOptions{
			Execute: execute, Warmup: sc.warmup, Measure: sc.measure,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		mode := "no exec."
		if execute {
			mode = "exec."
		}
		record(fmt.Sprintf("fig7/%s", mode), res)
		fmt.Printf("%-9s %10.0f txn/s  %8.2f ms\n", mode, res.Throughput, ms(res.AvgLatency))
	}
}

func fig8(sc scale) {
	header("8: signature schemes (PBFT, n=16)")
	for _, tc := range []struct {
		name   string
		scheme crypto.Scheme
	}{{"None", crypto.SchemeNone}, {"ED", crypto.SchemeED}, {"CMAC", crypto.SchemeMAC}} {
		res, err := harness.Run(harness.Options{
			Protocol: harness.PBFT, N: 16, Scheme: tc.scheme,
			BatchSize: sc.batchSize, Clients: sc.clients, Outstanding: sc.out,
			Warmup: sc.warmup, Measure: sc.measure,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		record(fmt.Sprintf("fig8/%s", tc.name), res)
		fmt.Printf("%-5s %10.0f txn/s  %8.2f ms\n", tc.name, res.Throughput, ms(res.AvgLatency))
	}
}

func fig9(sc scale, title string, crash, zero bool) {
	header(title)
	fmt.Printf("%-9s", "protocol")
	for _, n := range sc.ns {
		fmt.Printf("  %14s", fmt.Sprintf("n=%d", n))
	}
	fmt.Println()
	for _, p := range harness.AllProtocols {
		fmt.Printf("%-9s", p)
		for _, n := range sc.ns {
			// The failure is a mid-run crash scheduled through the fault
			// plan (half-way through warmup, so the measurement window sees
			// the degraded steady state), not a replica that was never
			// there — reproducing Fig 9's single backup failure faithfully.
			var crashAt time.Duration
			if crash {
				crashAt = sc.warmup / 2
			}
			res, err := harness.Run(harness.Options{
				Protocol: p, N: n,
				BatchSize: sc.batchSize, Clients: sc.clients, Outstanding: sc.out,
				CrashBackupAfter: crashAt, ZeroPayload: zero,
				Warmup: sc.warmup, Measure: sc.measure,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			record(fmt.Sprintf("fig%s/%s/n=%d", strings.SplitN(title, ":", 2)[0], p, n), res)
			fmt.Printf("  %8.0f/%4.0fms", res.Throughput, ms(res.AvgLatency))
		}
		fmt.Println()
	}
}

func fig9ij(sc scale) {
	header("9ij: batching under single backup failure")
	batches := []int{10, 50, 100, 200, 400}
	fmt.Printf("%-9s", "protocol")
	for _, bs := range batches {
		fmt.Printf("  %14s", fmt.Sprintf("batch=%d", bs))
	}
	fmt.Println()
	for _, p := range harness.AllProtocols {
		fmt.Printf("%-9s", p)
		for _, bs := range batches {
			res, err := harness.Run(harness.Options{
				Protocol: p, N: sc.batchN,
				BatchSize: bs, Clients: sc.clients, Outstanding: sc.out,
				CrashBackup: true,
				Warmup:      sc.warmup, Measure: sc.measure,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			record(fmt.Sprintf("fig9ij/%s/batch=%d", p, bs), res)
			fmt.Printf("  %8.0f/%4.0fms", res.Throughput, ms(res.AvgLatency))
		}
		fmt.Println()
	}
}

func fig9kl(sc scale) {
	header("9kl: out-of-ordering disabled (closed-loop clients)")
	fmt.Printf("%-9s", "protocol")
	for _, n := range sc.ns {
		fmt.Printf("  %14s", fmt.Sprintf("n=%d", n))
	}
	fmt.Println()
	for _, p := range harness.AllProtocols {
		fmt.Printf("%-9s", p)
		for _, n := range sc.ns {
			out := 1
			if p == harness.HotStuff {
				out = 4 // the paper grants HotStuff its 4-deep chained pipeline
			}
			res, err := harness.Run(harness.Options{
				Protocol: p, N: n,
				BatchSize: 1, Clients: 4, Outstanding: out, Window: 1,
				Warmup: sc.warmup, Measure: sc.measure,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			record(fmt.Sprintf("fig9kl/%s/n=%d", p, n), res)
			fmt.Printf("  %8.0f/%4.0fms", res.Throughput, ms(res.AvgLatency))
		}
		fmt.Println()
	}
}

func fig10(sc scale) {
	header("10: primary failure / view change timeline (PoE vs PBFT)")
	for _, p := range []harness.Protocol{harness.PoE, harness.PBFT} {
		res, err := harness.Run(harness.Options{
			Protocol: p, N: sc.batchN,
			BatchSize: sc.batchSize, Clients: sc.clients, Outstanding: sc.out,
			Warmup: sc.warmup, Measure: 4 * sc.measure,
			CrashPrimaryAfter: sc.measure,
			SampleEvery:       sc.measure / 10,
			ViewTimeout:       300 * time.Millisecond,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		record(fmt.Sprintf("fig10/%s", p), res)
		fmt.Printf("%s (view changes: %d)\n", p, res.ViewChanges)
		for _, pt := range res.Timeline {
			bar := int(pt.Throughput / 200)
			if bar > 60 {
				bar = 60
			}
			fmt.Printf("  t=%6.2fs %10.0f txn/s %s\n", pt.Offset.Seconds(), pt.Throughput, strings.Repeat("#", bar))
		}
	}
}

func fig11() {
	header("11: simulated decisions/s vs message delay")
	delays := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	for _, n := range []int{4, 16, 128} {
		fmt.Printf("n=%d (sequential)\n", n)
		fmt.Printf("  %-9s", "delay")
		for _, p := range []sim.Protocol{sim.PoE, sim.PBFT, sim.HotStuff} {
			fmt.Printf("  %10s", p)
		}
		fmt.Println()
		for _, d := range delays {
			fmt.Printf("  %-9v", d)
			for _, p := range []sim.Protocol{sim.PoE, sim.PBFT, sim.HotStuff} {
				res := sim.Run(sim.Config{Protocol: p, N: n, Delay: d, Decisions: 500, Window: 1})
				recordSim(fmt.Sprintf("fig11/seq/n=%d/%v/delay=%v", n, p, d), res)
				fmt.Printf("  %10.1f", res.DecisionsPS)
			}
			fmt.Println()
		}
	}
	fmt.Println("n=128, out-of-order window 250 (PoE*, PBFT*)")
	for _, d := range delays {
		fmt.Printf("  %-9v", d)
		for _, p := range []sim.Protocol{sim.PoE, sim.PBFT} {
			res := sim.Run(sim.Config{Protocol: p, N: 128, Delay: d, Decisions: 500, Window: 250})
			recordSim(fmt.Sprintf("fig11/ooo/n=128/%v/delay=%v", p, d), res)
			fmt.Printf("  %10.0f", res.DecisionsPS)
		}
		fmt.Println()
	}
}

// figChaos runs the robustness scenario suite of docs/SCENARIOS.md: the
// partition-then-heal matrix over all five protocols, then the Byzantine
// attack family where each attack is most meaningful.
func figChaos(sc scale) {
	header("chaos: partition-then-heal, all protocols")
	fmt.Printf("%-9s %10s %10s %6s %7s  %s\n", "protocol", "txn/s", "after-heal", "vc", "safety", "net")
	base := func(p harness.Protocol) harness.Options {
		return harness.Options{
			Protocol: p, N: 4,
			BatchSize: sc.batchSize, Clients: sc.clients, Outstanding: sc.out,
			Warmup: sc.warmup, Measure: 2 * sc.measure,
			ViewTimeout:   300 * time.Millisecond,
			ClientTimeout: 300 * time.Millisecond,
		}
	}
	report := func(rep harness.ChaosReport, err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		safety := "OK"
		if !rep.PrefixMatch {
			safety = "DIVERGED: " + rep.Divergence
		}
		fmt.Printf("%-9s %10.0f %10d %6d %7s  sent=%d dropped=%d queued=%d\n",
			rep.Protocol, rep.Throughput, rep.CompletedAfterEvent, rep.ViewChanges,
			safety, rep.Net.Sent, rep.Net.Dropped, rep.Net.Queued)
	}
	for _, p := range harness.AllProtocols {
		report(harness.RunChaos(harness.ChaosOptions{
			Options:     base(p),
			PartitionAt: sc.measure / 2,
			HealAt:      sc.measure,
		}))
	}

	header("chaos: byzantine primary attacks")
	for _, tc := range []struct {
		p      harness.Protocol
		attack harness.Attack
	}{
		{harness.PoE, harness.AttackEquivocate},
		{harness.PBFT, harness.AttackEquivocate},
		{harness.HotStuff, harness.AttackEquivocate},
		{harness.PoE, harness.AttackDark},
	} {
		opts := base(tc.p)
		fmt.Printf("%-12s ", tc.attack)
		report(harness.RunChaos(harness.ChaosOptions{Options: opts, Attack: tc.attack}))
	}
	opts := base(harness.PoE)
	opts.Scheme = crypto.SchemeTS
	fmt.Printf("%-12s ", harness.AttackSilenceCert)
	report(harness.RunChaos(harness.ChaosOptions{Options: opts, Attack: harness.AttackSilenceCert}))
}

// figReads benchmarks the hybrid-consistency read path: read-heavy YCSB
// mixes where reads either run full consensus (the pre-PR baseline) or are
// served locally as SPECULATIVE / STRONG tiered reads. Every tiered row also
// reports the digest-prefix safety audit: sampled speculative answers whose
// (seq, state-digest) tag was checked against the replicas' recorded
// execution digests. The headline comparison is YCSB-B (95% reads) with all
// reads SPECULATIVE vs the same mix all-ordered; the read path is expected
// to deliver at least 2x.
func figReads(sc scale) {
	header("reads: hybrid-consistency read path (YCSB-B/C)")
	type row struct {
		name     string
		p        harness.Protocol
		readFrac float64
		spec     float64
		strong   float64
	}
	rows := []row{
		{"poe/ycsb-b/ordered", harness.PoE, 0.95, 0, 0},
		{"poe/ycsb-b/spec", harness.PoE, 0.95, 1.0, 0},
		{"poe/ycsb-b/strong", harness.PoE, 0.95, 0, 1.0},
		{"poe/ycsb-b/mixed", harness.PoE, 0.95, 0.5, 0.5},
		{"poe/ycsb-c/spec", harness.PoE, 1.0, 1.0, 0},
		{"pbft/ycsb-b/ordered", harness.PBFT, 0.95, 0, 0},
		{"pbft/ycsb-b/spec", harness.PBFT, 0.95, 1.0, 0},
	}
	fmt.Printf("%-22s %10s %8s %9s %9s %5s %5s  %s\n",
		"mix", "txn/s", "lat ms", "spec", "strong", "fb", "rep", "audit")
	baselines := map[harness.Protocol]float64{}
	for _, r := range rows {
		res, err := harness.Run(harness.Options{
			Protocol: r.p, N: 4,
			BatchSize: sc.batchSize, Clients: sc.clients, Outstanding: sc.out,
			Warmup: sc.warmup, Measure: sc.measure,
			ReadFraction:        r.readFrac,
			SpeculativeFraction: r.spec,
			StrongFraction:      r.strong,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		e := benchEntry{
			TxnPerSec:     res.Throughput,
			LatencyMs:     ms(res.AvgLatency),
			AuditChecked:  res.ReadAuditChecked,
			AuditMismatch: res.ReadAuditMismatches,
		}
		if res.ReadsCompleted > 0 {
			e.ReadFallbackPc = 100 * float64(res.ReadsFallback) / float64(res.ReadsCompleted)
		}
		if r.spec == 0 && r.strong == 0 {
			baselines[r.p] = res.Throughput
		} else if base := baselines[r.p]; base > 0 {
			e.Speedup = res.Throughput / base
		}
		record("figreads/"+r.name, res)
		snapshot.Benchmarks["figreads/"+r.name] = e
		audit := fmt.Sprintf("%d checked, %d skipped, %d MISMATCH",
			res.ReadAuditChecked, res.ReadAuditSkipped, res.ReadAuditMismatches)
		if res.ReadAuditChecked == 0 && res.ReadAuditSkipped == 0 {
			audit = "-"
		}
		fmt.Printf("%-22s %10.0f %8.2f %9d %9d %5d %5d  %s",
			r.name, res.Throughput, ms(res.AvgLatency),
			res.SpecServes, res.StrongServes, res.ReadFallbacks, res.ReadRepairs, audit)
		if e.Speedup > 0 {
			fmt.Printf("  (%.2fx vs ordered)", e.Speedup)
		}
		fmt.Println()
		if res.ReadAuditMismatches > 0 {
			fmt.Fprintf(os.Stderr, "reads: SAFETY VIOLATION: %d speculative answers did not match any replica's recorded digest\n", res.ReadAuditMismatches)
			os.Exit(1)
		}
	}
	if b, s := snapshot.Benchmarks["figreads/poe/ycsb-b/ordered"], snapshot.Benchmarks["figreads/poe/ycsb-b/spec"]; b.TxnPerSec > 0 {
		fmt.Printf("\nYCSB-B speculative speedup over all-consensus: %.2fx (target >= 2.0x)\n", s.TxnPerSec/b.TxnPerSec)
	}
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
