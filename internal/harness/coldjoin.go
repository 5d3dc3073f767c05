package harness

// Cold-join scenario: kill one replica mid-run, WIPE its data directory, and
// restart it from nothing while the cluster keeps committing. Unlike the
// crash-restart scenario — where the victim rebuilds a durable prefix from
// its own disk and closes a bounded gap via Fetch — the cold joiner has no
// prefix at all, and by the time it returns the live replicas have pruned
// their execution logs past anything Fetch could serve. Rejoining is only
// possible through the snapshot state-transfer protocol
// (internal/consensus/protocol/statesync.go): detect the gap from checkpoint
// certificates, pull a verified snapshot from a peer, and bridge the rest
// with the ordinary record fetch.

import (
	"context"
	"fmt"
	"os"
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

// ColdJoinOptions configure a cold-join run.
type ColdJoinOptions struct {
	Options

	// Victim is the replica to kill, wipe, and restart. Pick a backup:
	// losing a primary additionally rides through a view change, which is a
	// legitimate but noisier variant of the scenario.
	Victim int

	// CrashAfter is when (from run start) the victim is killed and its data
	// directory deleted. RejoinAfter is when the wiped victim is rebuilt
	// and rejoins; the window in between is when the cluster must advance
	// far enough to prune the victim's gap out of Fetch range (size the
	// checkpoint interval and load so it does).
	CrashAfter, RejoinAfter time.Duration
}

// ColdJoinReport is the outcome of a cold-join run.
type ColdJoinReport struct {
	Result

	// SeqAtCrash is the victim's last executed sequence number when it was
	// killed; everything up to it (and beyond) must come back over the wire
	// since the data directory is wiped.
	SeqAtCrash types.SeqNum
	// SnapshotSeq is the sequence number the victim's installed snapshot
	// covered (0 if it never installed one).
	SnapshotSeq types.SeqNum
	// VictimFinalSeq and LiveFinalSeq are the victim's and the live
	// replicas' minimum executed sequence numbers at the end of the run.
	VictimFinalSeq types.SeqNum
	LiveFinalSeq   types.SeqNum
	// CompletedAtRejoin and CompletedAfterRejoin split Completed at
	// RejoinAfter: the cluster holding throughput while the joiner syncs
	// means CompletedAfterRejoin > 0.
	CompletedAtRejoin    int64
	CompletedAfterRejoin int64
	// PrefixMatch reports that every ledger block the victim holds agrees
	// (batch digest, view, hash link) with a live replica's.
	PrefixMatch bool
	Divergence  string
}

// RunColdJoin executes the cold-join scenario. DataDir must be set in the
// embedded Options; client load runs for the whole window so the cluster
// outruns the joiner and keeps committing while it syncs.
func RunColdJoin(opts ColdJoinOptions) (ColdJoinReport, error) {
	opts.Options = opts.Options.withDefaults()
	if opts.DataDir == "" {
		return ColdJoinReport{}, fmt.Errorf("harness: cold-join needs Options.DataDir")
	}
	if opts.Victim < 0 || opts.Victim >= opts.N {
		return ColdJoinReport{}, fmt.Errorf("harness: victim %d out of range", opts.Victim)
	}
	if opts.CrashAfter <= 0 || opts.RejoinAfter <= opts.CrashAfter {
		return ColdJoinReport{}, fmt.Errorf("harness: need 0 < CrashAfter < RejoinAfter")
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
	// Unlike RunCrashRestart, retention is NOT widened: the live replicas
	// prune normally, which is exactly what strands the joiner beyond Fetch
	// and forces the snapshot path.
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
			return ColdJoinReport{}, err
		}
		replicas[i] = r
	}

	var completed atomic.Int64
	var latencySum atomic.Int64
	var measuring atomic.Bool
	clients := make([]submitter, opts.Clients)
	for i := 0; i < opts.Clients; i++ {
		s, err := buildClient(opts.Options, i, ring, net)
		if err != nil {
			return ColdJoinReport{}, err
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
	report := ColdJoinReport{}
	victimNode := types.ReplicaNode(types.ReplicaID(opts.Victim))

	// Crash and wipe: the victim's network presence, goroutine, storage, AND
	// data directory all disappear — the disk-loss model.
	sleepUntil(ctx, runStart, opts.CrashAfter)
	net.Crash(victimNode)
	replicas[opts.Victim].cancel()
	<-replicas[opts.Victim].done
	report.SeqAtCrash = replicas[opts.Victim].handle.Runtime().Exec.LastExecuted()
	replicas[opts.Victim].store.Close()
	stores[opts.Victim] = nil
	if err := os.RemoveAll(replicaDir(opts.DataDir, opts.Victim)); err != nil {
		return ColdJoinReport{}, fmt.Errorf("harness: wipe victim dir: %w", err)
	}

	// Rejoin from nothing.
	sleepUntil(ctx, runStart, opts.RejoinAfter)
	report.CompletedAtRejoin = completed.Load()
	net.Recover(victimNode)
	restarted, err := start(opts.Victim)
	if err != nil {
		return ColdJoinReport{}, fmt.Errorf("harness: rejoin victim: %w", err)
	}
	replicas[opts.Victim] = restarted

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
	report.CompletedAfterRejoin = total - report.CompletedAtRejoin
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

	victim := replicas[opts.Victim].handle.Runtime()
	report.SnapshotSeq = victim.Exec.Chain().Base()
	if victim.Metrics.SnapshotsInstalled.Load() == 0 {
		report.SnapshotSeq = 0
	}
	report.VictimFinalSeq = victim.Exec.LastExecuted()
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
