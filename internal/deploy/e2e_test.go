package deploy

// Process-level end-to-end battery: these tests build the real cmd/
// binaries once, launch real poeserver OS processes through the Runner,
// and drive them over real TCP — the deployment shape the paper evaluates,
// as opposed to the in-process harness scenarios. Synchronization is
// poll-with-deadline throughout (WaitHealthy polls accept-ability, client
// submissions retry with backoff until their context expires); there are no
// fixed sleeps standing in for "the cluster is probably ready now".
//
// Environments that cannot build or exec binaries, or cannot bind TCP
// ports, skip with a reason instead of failing, so `go test ./...` stays
// green in restricted sandboxes.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/poexec/poe/internal/client"
	"github.com/poexec/poe/internal/types"
)

var (
	e2eBinDir   string
	e2eBuildErr error
)

func TestMain(m *testing.M) {
	code := func() int {
		dir, err := os.MkdirTemp("", "poe-e2e-bin-*")
		if err != nil {
			e2eBuildErr = err
			return m.Run()
		}
		defer os.RemoveAll(dir)
		for _, name := range []string{"poeserver", "poerun", "poeload"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(dir, name),
				"github.com/poexec/poe/cmd/"+name)
			if out, err := cmd.CombinedOutput(); err != nil {
				e2eBuildErr = fmt.Errorf("go build %s: %v\n%s", name, err, out)
				return m.Run()
			}
		}
		e2eBinDir = dir
		return m.Run()
	}()
	os.Exit(code)
}

// requireE2E skips the test when the environment cannot run the battery.
func requireE2E(t *testing.T) {
	t.Helper()
	if e2eBuildErr != nil {
		t.Skipf("skipping process-level e2e: cannot build binaries here: %v", e2eBuildErr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("skipping process-level e2e: sandbox blocks TCP listen: %v", err)
	}
	ln.Close()
}

// e2eConfig is the battery's base cluster shape: small batches and tight
// checkpoints so a few dozen writes cross several checkpoint boundaries.
func e2eConfig(t *testing.T, durable bool) ClusterConfig {
	t.Helper()
	cfg := ClusterConfig{
		Replicas:           4,
		Scheme:             "mac",
		Batch:              8,
		CheckpointInterval: 4,
		ViewTimeout:        Duration(500 * time.Millisecond),
		Seed:               "e2e-" + t.Name(),
		RunDir:             filepath.Join(t.TempDir(), "run"),
		ServerBin:          filepath.Join(e2eBinDir, "poeserver"),
	}
	if durable {
		cfg.DataRoot = filepath.Join(t.TempDir(), "data")
	}
	return cfg
}

// startE2ECluster launches the cluster, waits for health, builds a client
// pool, and registers cleanup that hard-kills whatever the test left
// running.
func startE2ECluster(t *testing.T, cfg ClusterConfig, clients int) (*Runner, []LoadClient) {
	t.Helper()
	r, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.killAll)
	if err := r.WaitHealthy(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	pool, closePool, err := NewTCPClients(ctx, ClientPoolOptions{
		Addrs:  r.Addrs(),
		Scheme: cfg.Scheme,
		Seed:   cfg.Seed,
		Count:  clients,
	})
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	t.Cleanup(func() { cancel(); closePool() })
	submitDebug = r
	t.Cleanup(func() { submitDebug = nil })
	return r, pool
}

// submit drives one transaction to quorum completion with a deadline. The
// client retransmits internally, so this doubles as the battery's
// poll-with-deadline primitive: "the cluster (including any replica that
// must first catch up) can commit my transaction within d".
var submitDebug *Runner // set by startE2ECluster so submit failures dump replica logs

func submit(t *testing.T, c LoadClient, d time.Duration, ops ...types.Op) types.Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	txn := types.Transaction{
		Client:    c.ID,
		Seq:       c.Sub.NextSeq(),
		Ops:       ops,
		TimeNanos: time.Now().UnixNano(),
	}
	res, err := c.Sub.SubmitTxn(ctx, txn)
	if err != nil {
		if submitDebug != nil {
			for id := 0; id < submitDebug.N(); id++ {
				t.Logf("replica %d (alive=%v) log tail:\n%s", id, submitDebug.Alive(id), submitDebug.TailLog(id, 12))
			}
		}
		t.Fatalf("submit %v: %v", ops, err)
	}
	return res
}

func writeOp(key, val string) types.Op {
	return types.Op{Kind: types.OpWrite, Key: key, Value: []byte(val)}
}

// writeKeys writes key<i> = <prefix><i> across the pool and returns the
// acked values. Every returned entry was acknowledged by a full quorum.
func writeKeys(t *testing.T, pool []LoadClient, base, n int, prefix string, d time.Duration) map[string]string {
	t.Helper()
	acked := make(map[string]string, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key%03d", base+i)
		val := fmt.Sprintf("%s%03d", prefix, base+i)
		submit(t, pool[i%len(pool)], d, writeOp(key, val))
		acked[key] = val
	}
	return acked
}

// verifyKeys quorum-reads every key and asserts it holds the last acked
// value — the client-observed correctness contract: every acknowledged
// write is readable, and nothing (a replayed duplicate, a lost suffix)
// replaced it.
func verifyKeys(t *testing.T, pool []LoadClient, want map[string]string, d time.Duration) {
	t.Helper()
	i := 0
	for key, val := range want {
		res := submit(t, pool[i%len(pool)], d, types.Op{Kind: types.OpRead, Key: key})
		if len(res.Values) != 1 || string(res.Values[0]) != val {
			got := "<missing>"
			if len(res.Values) == 1 {
				got = string(res.Values[0])
			}
			t.Fatalf("key %s: read %q, want last acked write %q", key, got, val)
		}
		i++
	}
}

// TestE2ESteadyState: a real 4-process cluster serves writes and reads
// correctly, overwrites are last-acked-wins, a deliberately re-submitted
// transaction is not applied twice, and graceful shutdown leaves every
// replica's exit metrics on disk with a consistent executed count.
func TestE2ESteadyState(t *testing.T) {
	requireE2E(t)
	r, pool := startE2ECluster(t, e2eConfig(t, false), 2)

	acked := writeKeys(t, pool, 0, 20, "v1-", 20*time.Second)
	// Overwrite a prefix; the read-back below must see the second value.
	for k, v := range writeKeys(t, pool, 0, 8, "v2-", 20*time.Second) {
		acked[k] = v
	}

	// No-duplicate-application probe: re-submit an already-executed
	// transaction verbatim (same client, same client-sequence). Replicas
	// must deduplicate it rather than re-apply it. While the transaction is
	// within the per-client reply ring (the last 8 replies), the duplicate
	// is answered from the cache — the original reply, no re-execution;
	// once later writes evict it from the ring, the duplicate gets no reply
	// and the short submission context expiring is the expected outcome.
	// In both cases, what must NOT happen is key000 reverting to the
	// duplicate's value.
	c := pool[0]
	dupSeq := c.Sub.NextSeq()
	dup := types.Transaction{
		Client:    c.ID,
		Seq:       dupSeq,
		Ops:       []types.Op{writeOp("key000", "dup-value")},
		TimeNanos: time.Now().UnixNano(),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	if _, err := c.Sub.SubmitTxn(ctx, dup); err != nil {
		t.Fatalf("first submission of dup txn: %v", err)
	}
	cancel()
	acked["key000"] = "dup-value"
	submit(t, c, 20*time.Second, writeOp("key000", "after-dup"))
	acked["key000"] = "after-dup"
	// One later write leaves dupSeq inside the ring: replayed, not re-run.
	replayCtx, replayCancel := context.WithTimeout(context.Background(), 10*time.Second)
	if _, err := c.Sub.SubmitTxn(replayCtx, dup); err != nil {
		t.Fatalf("in-ring duplicate was not answered from the reply cache: %v", err)
	}
	replayCancel()
	// Eight more writes from the same client evict dupSeq from the ring;
	// now the duplicate can draw neither a cached reply nor a fresh quorum.
	for i := 0; i < 8; i++ {
		v := fmt.Sprintf("evict-%d", i)
		submit(t, c, 20*time.Second, writeOp("key000", v))
		acked["key000"] = v
	}
	dupCtx, dupCancel := context.WithTimeout(context.Background(), 1500*time.Millisecond)
	if _, err := c.Sub.SubmitTxn(dupCtx, dup); err == nil {
		t.Fatal("evicted duplicate transaction unexpectedly completed")
	}
	dupCancel()

	verifyKeys(t, pool, acked, 20*time.Second)

	// Tiered read-back at a 90% SPECULATIVE / 10% ORDERED mix: the fast
	// read path over real processes and sockets. Speculative answers come
	// from one backup's executed prefix, so a momentarily trailing replica
	// may serve an older value — retry until the freshest write is visible
	// (it must become visible: every write above was quorum-acked long ago).
	orderedReads := 0
	specReads := 0
	i := 0
	for key, val := range acked {
		c := pool[i%len(pool)]
		rd, ok := c.Sub.(TieredReader)
		if !ok {
			t.Fatalf("pool client %d does not implement TieredReader", i%len(pool))
		}
		tier := types.ConsistencySpeculative
		if i%10 == 0 {
			tier = types.ConsistencyOrdered
		}
		deadline := time.Now().Add(20 * time.Second)
		for {
			txn := types.Transaction{
				Client:      c.ID,
				Ops:         []types.Op{{Kind: types.OpRead, Key: key}},
				Consistency: tier,
				TimeNanos:   time.Now().UnixNano(),
			}
			var ans client.ReadAnswer
			var err error
			rctx, rcancel := context.WithTimeout(context.Background(), 5*time.Second)
			if tier == types.ConsistencyOrdered {
				txn.Seq = c.Sub.NextSeq()
				ans.Result, err = c.Sub.SubmitTxn(rctx, txn)
				ans.Fallback = true
			} else {
				txn.Seq = rd.NextReadSeq()
				ans, err = rd.ReadTxn(rctx, txn)
			}
			rcancel()
			if err == nil && len(ans.Result.Values) == 1 && string(ans.Result.Values[0]) == val {
				if tier == types.ConsistencySpeculative && !ans.Fallback {
					if ans.ExecSeq == 0 {
						t.Fatalf("speculative answer for %s carries no prefix tag", key)
					}
					specReads++
				} else {
					orderedReads++
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("tiered read of %s (tier %v): err=%v values=%q, want %q",
					key, tier, err, ans.Result.Values, val)
			}
			time.Sleep(50 * time.Millisecond)
		}
		i++
	}
	if specReads == 0 {
		t.Fatal("no read in the 90% mix was served speculatively")
	}

	// Every submission above that returned was quorum-acked: 28 writes, the
	// dup pair, the 8 eviction writes, one read per key, and the tiered
	// reads that fell back to (or chose) ordering. The in-ring replay and
	// the speculative serves never execute, so they are deliberately absent
	// from the executed-count reconciliation.
	ackedTxns := int64(28 + 2 + 8 + len(acked) + orderedReads)

	if err := r.Shutdown(15 * time.Second); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	var executed []int64
	for id := 0; id < r.N(); id++ {
		snap, err := r.ReadMetrics(id)
		if err != nil {
			t.Fatalf("replica %d exit metrics: %v\n%s", id, err, r.TailLog(id, 10))
		}
		if snap.ExecutedTxns == 0 {
			t.Errorf("replica %d executed nothing", id)
		}
		executed = append(executed, snap.ExecutedTxns)
	}
	// PoE acks certify execution on a quorum (nf = 3 of 4), so at shutdown
	// the 3rd-highest exit counter must cover every acked transaction; the
	// 4th replica may legitimately trail by an in-flight batch.
	sort.Slice(executed, func(i, j int) bool { return executed[i] > executed[j] })
	if executed[2] < ackedTxns {
		t.Errorf("quorum executed counts %v do not cover the %d acked txns", executed, ackedTxns)
	}
}

// TestE2EKillRestart: SIGKILL a durable replica mid-run, keep the cluster
// serving, restart the replica from its surviving data directory, then
// remove a *different* replica so the restarted one is required for every
// quorum — its participation in fresh writes and in reads of the full
// history is the end-to-end proof it recovered and caught up.
func TestE2EKillRestart(t *testing.T) {
	requireE2E(t)
	r, pool := startE2ECluster(t, e2eConfig(t, true), 2)
	const victim, bystander = 3, 2

	acked := writeKeys(t, pool, 0, 16, "pre-", 20*time.Second)

	if err := r.Kill(victim); err != nil {
		t.Fatal(err)
	}
	// n=4, f=1: the three survivors still form the nf=3 quorum.
	for k, v := range writeKeys(t, pool, 16, 16, "mid-", 30*time.Second) {
		acked[k] = v
	}

	if err := r.Restart(victim); err != nil {
		t.Fatal(err)
	}
	if err := r.WaitHealthy(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Make the restarted replica load-bearing: with the bystander down,
	// every quorum needs the victim. The submissions below only complete
	// once it has replayed its WAL and fetched the suffix it missed.
	if err := r.Stop(bystander, 15*time.Second); err != nil {
		t.Fatalf("stopping bystander: %v", err)
	}
	for k, v := range writeKeys(t, pool, 32, 8, "post-", 60*time.Second) {
		acked[k] = v
	}
	verifyKeys(t, pool, acked, 60*time.Second)

	if !strings.Contains(readLog(t, r, victim), "recovered ") {
		t.Errorf("restarted replica's log never reported WAL recovery:\n%s", r.TailLog(victim, 15))
	}

	if err := r.Restart(bystander); err != nil {
		t.Fatal(err)
	}
	if err := r.WaitHealthy(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := r.Shutdown(15 * time.Second); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	snap, err := r.ReadMetrics(victim)
	if err != nil {
		t.Fatal(err)
	}
	if snap.ExecutedTxns == 0 {
		t.Error("restarted replica reported zero executed transactions at exit")
	}
}

// TestE2EWipeRejoin: crash a durable replica, destroy its data directory,
// and restart it with nothing — the process-level cold join. The cluster's
// stable checkpoint has outrun the record-retention horizon (tight
// checkpoint interval, enough committed writes), so the blank replica can
// only converge through certificate-verified snapshot state transfer; it
// is then made quorum-critical exactly as in the kill/restart scenario.
func TestE2EWipeRejoin(t *testing.T) {
	requireE2E(t)
	r, pool := startE2ECluster(t, e2eConfig(t, true), 2)
	const victim, bystander = 3, 1

	// Enough acked writes to push the stable checkpoint (interval 4) far
	// past the retention slack, forcing the snapshot path for a rejoiner.
	acked := writeKeys(t, pool, 0, 40, "base-", 30*time.Second)

	if err := r.Kill(victim); err != nil {
		t.Fatal(err)
	}
	if err := r.Wipe(victim); err != nil {
		t.Fatal(err)
	}
	if err := r.Restart(victim); err != nil {
		t.Fatal(err)
	}
	if err := r.WaitHealthy(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := r.Stop(bystander, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	// Quorum now requires the wiped replica: completions prove it
	// installed a snapshot and reached the live head.
	for k, v := range writeKeys(t, pool, 40, 8, "rejoin-", 90*time.Second) {
		acked[k] = v
	}
	verifyKeys(t, pool, acked, 90*time.Second)

	if err := r.Restart(bystander); err != nil {
		t.Fatal(err)
	}
	if err := r.WaitHealthy(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := r.Shutdown(15 * time.Second); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	snap, err := r.ReadMetrics(victim)
	if err != nil {
		t.Fatal(err)
	}
	if snap.SnapshotsInstalled == 0 {
		t.Errorf("wiped replica rejoined without installing a snapshot (metrics: %+v)", snap)
	}
}

// TestE2EPoerunBinary: the poerun binary itself supervises a cluster
// through a kill/restart schedule, shuts it down gracefully at the
// duration, exits 0, and leaves logs plus exit metrics for all replicas.
func TestE2EPoerunBinary(t *testing.T) {
	requireE2E(t)
	runDir := filepath.Join(t.TempDir(), "run")
	cmd := exec.Command(filepath.Join(e2eBinDir, "poerun"),
		"-n", "4",
		"-batch", "8",
		"-run-dir", runDir,
		"-server-bin", filepath.Join(e2eBinDir, "poeserver"),
		"-duration", "4s",
		"-at", "1s:kill:3",
		"-at", "2s:restart:3",
	)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("poerun: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "run complete") {
		t.Fatalf("poerun output missing completion line:\n%s", out)
	}
	for id := 0; id < 4; id++ {
		logPath := filepath.Join(runDir, fmt.Sprintf("replica-%d.log", id))
		if _, err := os.Stat(logPath); err != nil {
			t.Errorf("missing replica log: %v", err)
		}
		metricsPath := filepath.Join(runDir, fmt.Sprintf("replica-%d-metrics.json", id))
		if _, err := os.Stat(metricsPath); err != nil {
			t.Errorf("missing exit metrics: %v", err)
		}
	}
}

// TestE2ELoadSweep: the poeload binary sweeps a live 4-process cluster at
// three offered rates and emits a parseable BENCH_PR8-schema snapshot with
// completions and sane latency quantiles at every point.
func TestE2ELoadSweep(t *testing.T) {
	requireE2E(t)
	cfg := e2eConfig(t, false)
	r, _ := startE2ECluster(t, cfg, 1)
	jsonPath := filepath.Join(t.TempDir(), "BENCH_PR8.json")

	cmd := exec.Command(filepath.Join(e2eBinDir, "poeload"),
		"-peers", strings.Join(r.Addrs(), ","),
		"-seed", cfg.Seed,
		"-rates", "40,80,160",
		"-duration", "800ms",
		"-warmup", "200ms",
		"-clients", "4",
		"-base-client", "100", // clear of the pool startE2ECluster built
		"-records", "200",
		"-json", jsonPath,
	)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("poeload: %v\n%s", err, out)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("poeload wrote no sweep snapshot: %v\n%s", err, out)
	}
	var res SweepResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("parse %s: %v", jsonPath, err)
	}
	if res.Schema != SweepSchema || res.N != 4 {
		t.Fatalf("bad sweep header: %+v", res)
	}
	if len(res.Points) != 3 {
		t.Fatalf("got %d sweep points, want 3:\n%s", len(res.Points), out)
	}
	for _, p := range res.Points {
		if p.Completed == 0 {
			t.Errorf("offered %.0f/s completed nothing: %+v", p.OfferedTxnS, p)
		}
		if p.P50Ms <= 0 || p.P99Ms < p.P50Ms || p.P999Ms < p.P99Ms {
			t.Errorf("offered %.0f/s: implausible quantiles p50=%.2f p99=%.2f p999=%.2f",
				p.OfferedTxnS, p.P50Ms, p.P99Ms, p.P999Ms)
		}
		if p.AchievedTxnS <= 0 {
			t.Errorf("offered %.0f/s: zero achieved throughput", p.OfferedTxnS)
		}
	}
	if err := r.Shutdown(15 * time.Second); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
}

// TestE2EStopDuringStartupIsGraceful: a runner may SIGTERM a replica as
// soon as its port accepts — WaitHealthy's own signal of readiness — while
// the process is still opening its data directory. The signal must take the
// graceful path and exit 0 every time, not the default action that kills
// the process (the source of TestE2EWipeRejoin's occasional "signal:
// terminated" under load).
func TestE2EStopDuringStartupIsGraceful(t *testing.T) {
	requireE2E(t)
	r, err := Start(e2eConfig(t, true))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.killAll)
	if err := r.WaitHealthy(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	const id = 3
	if err := r.Stop(id, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := r.Restart(id); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(20 * time.Second)
		for {
			conn, err := net.DialTimeout("tcp", r.Addrs()[id], 50*time.Millisecond)
			if err == nil {
				conn.Close()
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("restart %d: replica %d never accepted: %v", i, id, err)
			}
		}
		if err := r.Stop(id, 15*time.Second); err != nil {
			t.Fatalf("restart %d: stop at first accept: %v\n%s", i, err, r.TailLog(id, 5))
		}
	}
	if err := r.Shutdown(15 * time.Second); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
}

func readLog(t *testing.T, r *Runner, id int) string {
	t.Helper()
	data, err := os.ReadFile(r.LogPath(id))
	if err != nil {
		t.Fatalf("read replica %d log: %v", id, err)
	}
	return string(data)
}
