package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// serverBin builds poeserver once for all smoke tests, or skips them where
// the sandbox forbids running a compiler or a child process.
var serverBin = struct {
	once sync.Once
	path string
	err  error
}{}

func smokeServer(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("launches clusters of processes; skipped with -short")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool to build poeserver with")
	}
	serverBin.once.Do(func() {
		dir, err := os.MkdirTemp("", "bench-smoke-")
		if err != nil {
			serverBin.err = err
			return
		}
		serverBin.path, serverBin.err = buildServer(dir)
	})
	if serverBin.err != nil {
		t.Skipf("cannot build poeserver here: %v", serverBin.err)
	}
	return serverBin.path
}

func TestMain(m *testing.M) {
	code := m.Run()
	if serverBin.path != "" {
		os.RemoveAll(filepath.Dir(serverBin.path))
	}
	os.Exit(code)
}

// skipIfNoSockets turns the errors of a sandbox without loopback sockets or
// exec into a skip; anything else is a failure.
func skipIfNoSockets(t *testing.T, err error) {
	t.Helper()
	for _, hint := range []string{"operation not permitted", "permission denied", "address family not supported", "cannot assign requested address"} {
		if strings.Contains(strings.ToLower(err.Error()), hint) {
			t.Skipf("sockets or exec are forbidden here: %v", err)
		}
	}
	t.Fatal(err)
}

// TestSmokeWorkloads runs every workload for 3 s over a real cluster and
// checks that its correctness gates hold and that it reports exactly the
// end-to-end metrics BENCHMARK.json names.
func TestSmokeWorkloads(t *testing.T) {
	bin := smokeServer(t)
	t.Parallel()
	c, err := readContract("../" + benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Errorf("%s names %d workloads, the benchmark has %d", benchmarkFile, len(c.Workloads), len(workloads))
	}
	for _, w := range c.Workloads {
		sp := findWorkload(w.Name)
		if sp == nil {
			t.Errorf("%s names workload %q, which the benchmark does not have", benchmarkFile, w.Name)
			continue
		}
		t.Run(sp.name, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			stolen, total := cpuTicks()
			pass, err := runPass(ctx, bin, t.TempDir(), sp, 1, 3*time.Second)
			if err != nil {
				skipIfNoSockets(t, err)
			}
			r := &report{workload: sp.name, metrics: make(map[string]metric)}
			reportEndToEnd(r, []*passResult{pass})
			res := closeResult(r, pass)
			if !res.Correct {
				failOrSkip(t, stolen, total, pass.gates)
			}
			if res.Attempted < 1000 {
				t.Errorf("only %d requests fell due in 3 s", res.Attempted)
			}
			checkMetrics(t, res.Metrics, c.EndToEnd, true)
			if sp.crash && (pass.killAt == 0 || res.Metrics["outage_ms"].Value < 100) {
				t.Errorf("the primary was killed at %v and the outage lasted %v ms", pass.killAt, res.Metrics["outage_ms"].Value)
			}
		})
	}
}

// TestSmokeLedger runs the per-layer ledger of one workload and checks that
// it reports exactly the per-layer metrics BENCHMARK.json names.
func TestSmokeLedger(t *testing.T) {
	bin := smokeServer(t)
	t.Parallel()
	c, err := readContract("../" + benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sp := findWorkload("read_mostly")
	r := &report{workload: sp.name, metrics: make(map[string]metric)}
	stolen, total := cpuTicks()
	res, err := runTraced(ctx, bin, t.TempDir(), sp, 1, 3*time.Second, r)
	if err != nil {
		skipIfNoSockets(t, err)
	}
	if !res.Correct {
		failOrSkip(t, stolen, total, []string{"printed above"})
	}
	checkMetrics(t, res.Metrics, c.PerLayer, false)
	for _, name := range []string{"protocol.spec_reads", "protocol.strong_reads", "client.read_rtt_ms", "poe.propose_to_support_ms", "crypto.ed_verify_us", "budget.coverage"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v on read_mostly", name, res.Metrics[name].Value)
		}
	}
}

// failOrSkip reports failed correctness gates, unless the host took CPU time
// away from this machine meanwhile: replicas stalled from outside change view
// without a fault, and that says nothing about the code under test.
func failOrSkip(t *testing.T, stolen, total int64, gates []string) {
	t.Helper()
	s, tot := cpuTicks()
	if share := ratio(float64(s-stolen), float64(tot-total)); share > 0.02 {
		t.Skipf("the host stole %.0f%% of the CPU time during the test; gates failed: %v", share*100, gates)
	}
	t.Errorf("correctness gates failed: %v", gates)
}

func checkMetrics(t *testing.T, got map[string]metric, want []boundedMetric, nonZero bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics reported, %s names %d", len(got), benchmarkFile, len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s is not reported", m.Name)
		case g.Unit != m.Unit:
			t.Errorf("metric %s has unit %q, %s says %q", m.Name, g.Unit, benchmarkFile, m.Unit)
		case nonZero && g.Value <= 0:
			t.Errorf("metric %s = %v", m.Name, g.Value)
		}
	}
}
