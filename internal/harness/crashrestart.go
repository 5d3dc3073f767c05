package harness

// Crash-restart scenario: kill one replica mid-run, restart it from its data
// directory, and check that it rejoins the cluster on the same executed
// prefix. This is the failure class the in-memory reproduction could not
// model at all — a crashed replica's state evaporated with the process — and
// the reason the storage subsystem exists: the restarted replica rebuilds
// store, ledger, and executor from snapshot + WAL replay, then closes the
// remaining gap through the ordinary Fetch state transfer.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/storage"
	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/workload"
)

// CrashRestartOptions configure a crash-restart run.
type CrashRestartOptions struct {
	Options

	// Victim is the replica to kill and restart. Pick a backup: restarting
	// a primary additionally rides through a view change, which is a
	// legitimate but noisier variant of the scenario.
	Victim int

	// CrashAfter is when (from run start) the victim is killed: its
	// goroutine stopped, its network presence dropped, its storage closed
	// — everything except the data directory disappears.
	CrashAfter time.Duration
	// RestartAfter is when (from run start) the victim is rebuilt from the
	// data directory and rejoins. Must be after CrashAfter.
	RestartAfter time.Duration
}

// CrashRestartReport is the outcome of a crash-restart run.
type CrashRestartReport struct {
	Result

	// SeqAtCrash is the victim's last executed sequence number when it was
	// killed; RecoveredSeq is what it rebuilt from disk at restart (≤
	// SeqAtCrash: the OS may not have been told to sync, and in-flight
	// work dies with the process — never more than what was durable).
	SeqAtCrash   types.SeqNum
	RecoveredSeq types.SeqNum
	// VictimFinalSeq and LiveFinalSeq are the victim's and the live
	// replicas' minimum executed sequence numbers at the end of the run.
	VictimFinalSeq types.SeqNum
	LiveFinalSeq   types.SeqNum
	// PrefixMatch reports that every block the victim's ledger holds
	// agrees (batch digest and hash link) with replica liveWitness's.
	PrefixMatch bool
	// Divergence describes the first mismatch when PrefixMatch is false.
	Divergence string
}

// RunCrashRestart executes the crash-restart scenario. DataDir must be set
// in the embedded Options; client load runs for the whole Measure window so
// the restarted replica has traffic to expose its gap against.
func RunCrashRestart(opts CrashRestartOptions) (CrashRestartReport, error) {
	opts.Options = opts.Options.withDefaults()
	if opts.DataDir == "" {
		return CrashRestartReport{}, fmt.Errorf("harness: crash-restart needs Options.DataDir")
	}
	if opts.Victim < 0 || opts.Victim >= opts.N {
		return CrashRestartReport{}, fmt.Errorf("harness: victim %d out of range", opts.Victim)
	}
	if opts.CrashAfter <= 0 || opts.RestartAfter <= opts.CrashAfter {
		return CrashRestartReport{}, fmt.Errorf("harness: need 0 < CrashAfter < RestartAfter")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	net := network.NewChanNet(opts.netOptions()...)
	defer net.Close()
	ring := crypto.NewKeyRing(opts.N, []byte(fmt.Sprintf("harness-%d", opts.Seed)))

	wcfg := workload.DefaultConfig(opts.Records)
	wcfg.Seed = opts.Seed
	var table map[string][]byte
	if !opts.ZeroPayload {
		table = workload.InitialTable(wcfg)
	}

	// Each replica gets its own context so the victim can be stopped alone,
	// and a done channel so its storage is only closed once its goroutine —
	// which may be mid-WAL-append — has fully exited.
	type runningReplica struct {
		handle replicaHandle
		store  *storage.Store
		cancel context.CancelFunc
		done   chan struct{}
	}
	stores := make([]*storage.Store, opts.N)
	defer func() {
		for _, st := range stores {
			if st != nil {
				st.Close()
			}
		}
	}()
	start := func(i int) (*runningReplica, error) {
		st, err := storage.Open(replicaDir(opts.DataDir, i), opts.storageOptions())
		if err != nil {
			return nil, err
		}
		stores[i] = st
		ropts := protocol.RuntimeOptions{ZeroPayload: opts.ZeroPayload, InitialTable: table, Storage: st}
		h, err := buildReplica(opts.Options, replicaConfig(opts.Options, i), ring, net.Join(types.ReplicaNode(types.ReplicaID(i))), ropts, nil)
		if err != nil {
			st.Close()
			stores[i] = nil
			return nil, err
		}
		// Retain the full execution log: the victim comes back with a
		// durable prefix arbitrarily far behind the live checkpoint, and
		// this in-process cluster substitutes full retention for the
		// snapshot-transfer protocol real deployments layer on top.
		h.Runtime().Exec.RetainSlack = 1 << 30
		rctx, rcancel := context.WithCancel(ctx)
		r := &runningReplica{handle: h, store: st, cancel: rcancel, done: make(chan struct{})}
		go func() {
			h.Run(rctx)
			close(r.done)
		}()
		return r, nil
	}

	replicas := make([]*runningReplica, opts.N)
	for i := 0; i < opts.N; i++ {
		r, err := start(i)
		if err != nil {
			return CrashRestartReport{}, err
		}
		replicas[i] = r
	}

	// Client pool, as in Run.
	var completed atomic.Int64
	var latencySum atomic.Int64
	var measuring atomic.Bool
	clients := make([]submitter, opts.Clients)
	for i := 0; i < opts.Clients; i++ {
		s, err := buildClient(opts.Options, i, ring, net)
		if err != nil {
			return CrashRestartReport{}, err
		}
		s.Start(ctx)
		clients[i] = s
	}
	var wg sync.WaitGroup
	startLoad(ctx, &wg, opts.Options, wcfg, clients, &completed, &latencySum, &measuring, newReadStats())

	select {
	case <-time.After(opts.Warmup):
	case <-ctx.Done():
	}
	measuring.Store(true)
	runStart := time.Now()
	report := CrashRestartReport{}
	victimNode := types.ReplicaNode(types.ReplicaID(opts.Victim))

	// Crash: drop the victim off the network, stop its goroutine, close its
	// storage. Only the data directory survives — the process-crash model.
	sleepUntil(ctx, runStart, opts.CrashAfter)
	net.Crash(victimNode)
	replicas[opts.Victim].cancel()
	<-replicas[opts.Victim].done
	report.SeqAtCrash = replicas[opts.Victim].handle.Runtime().Exec.LastExecuted()
	replicas[opts.Victim].store.Close()
	stores[opts.Victim] = nil

	// Restart from disk.
	sleepUntil(ctx, runStart, opts.RestartAfter)
	net.Recover(victimNode)
	restarted, err := start(opts.Victim)
	if err != nil {
		return CrashRestartReport{}, fmt.Errorf("harness: restart victim: %w", err)
	}
	replicas[opts.Victim] = restarted
	report.RecoveredSeq = restarted.handle.Runtime().RecoveredSeq

	// Let the run finish under load, then stop everything and compare.
	sleepUntil(ctx, runStart, opts.Measure)
	measuring.Store(false)
	elapsed := time.Since(runStart)
	cancel()
	net.Close()
	wg.Wait()
	for _, r := range replicas {
		<-r.done
	}

	total := completed.Load()
	report.Result = Result{
		Protocol:   opts.Protocol,
		N:          opts.N,
		BatchSize:  opts.BatchSize,
		Completed:  total,
		Throughput: float64(total) / elapsed.Seconds(),
	}
	if total > 0 {
		report.Result.AvgLatency = time.Duration(latencySum.Load() / total)
	}
	for _, r := range replicas {
		report.Result.addReplicaMetrics(r.handle.Runtime().Metrics)
	}

	victim := replicas[opts.Victim].handle.Runtime().Exec
	report.VictimFinalSeq = victim.LastExecuted()
	report.LiveFinalSeq = 0
	for i, r := range replicas {
		if i == opts.Victim {
			continue
		}
		last := r.handle.Runtime().Exec.LastExecuted()
		if report.LiveFinalSeq == 0 || last < report.LiveFinalSeq {
			report.LiveFinalSeq = last
		}
	}
	report.PrefixMatch, report.Divergence = comparePrefix(replicas[opts.Victim].handle, replicas[(opts.Victim+1)%opts.N].handle)
	return report, nil
}

// comparePrefix checks every ledger block the victim holds against a live
// replica: batch digests must agree wherever both chains have the block, and
// the victim's chain must be internally hash-linked.
func comparePrefix(victim, live replicaHandle) (bool, string) {
	return comparePrefixUpTo(victim, live, types.SeqNum(^uint64(0)))
}

// comparePrefixUpTo is comparePrefix capped at limit (inclusive) — used by
// the chaos runner's CompareStable mode to restrict the check to the
// quorum-certified checkpoint prefix.
func comparePrefixUpTo(victim, live replicaHandle, limit types.SeqNum) (bool, string) {
	vc := victim.Runtime().Exec.Chain()
	lc := live.Runtime().Exec.Chain()
	if seq, ok := vc.Verify(); !ok {
		return false, fmt.Sprintf("victim chain hash link broken at seq %d", seq)
	}
	lo := vc.Base()
	hi := types.SeqNum(vc.Height())
	if lh := types.SeqNum(lc.Height()); lh < hi {
		hi = lh
	}
	if limit < hi {
		hi = limit
	}
	for seq := lo; seq <= hi; seq++ {
		vb, vok := vc.Get(seq)
		lb, lok := lc.Get(seq)
		if !vok || !lok {
			continue // below the live replica's retained base
		}
		if vb.Digest != lb.Digest {
			return false, fmt.Sprintf("batch digest mismatch at seq %d", seq)
		}
		if vb.View != lb.View {
			return false, fmt.Sprintf("view mismatch at seq %d", seq)
		}
	}
	return true, ""
}

// sleepUntil sleeps until `offset` past start (no-op if already past).
func sleepUntil(ctx context.Context, start time.Time, offset time.Duration) {
	d := time.Until(start.Add(offset))
	if d <= 0 {
		return
	}
	select {
	case <-time.After(d):
	case <-ctx.Done():
	}
}
