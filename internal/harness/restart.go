package harness

// Restart scenarios: kill one replica mid-run and bring it back while the
// cluster keeps committing, then check that it rejoins on the same executed
// prefix as the live replicas.
//
// Crash-restart is the failure class the in-memory reproduction could not
// model at all — a crashed replica's state evaporated with the process — and
// the reason the storage subsystem exists: the restarted replica rebuilds
// store, ledger, and executor from snapshot + WAL replay, then closes the
// remaining gap through the ordinary Fetch state transfer.
//
// Cold join also WIPES the data directory. The joiner has no prefix at all,
// and by the time it returns the live replicas have pruned their execution
// logs past anything Fetch could serve. Rejoining is only possible through
// the snapshot state-transfer protocol (internal/consensus/protocol/
// statesync.go): detect the gap from checkpoint certificates, pull a
// verified snapshot from a peer, and bridge the rest with record fetch.

import (
	"fmt"
	"time"

	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/types"
)

// CrashRestartOptions configure a crash-restart run.
type CrashRestartOptions struct {
	Options

	// Victim is the replica to kill and restart. Pick a backup: restarting
	// a primary additionally rides through a view change, which is a
	// legitimate but noisier variant of the scenario.
	Victim int

	// CrashAfter is when (from the start of the measurement window) the
	// victim is killed: its goroutine stopped, its network presence dropped,
	// its storage closed — everything except the data directory disappears.
	CrashAfter time.Duration
	// RestartAfter is when (from the start of the measurement window) the
	// victim is rebuilt from the data directory and rejoins. Must be after
	// CrashAfter.
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
	// agrees (batch digest, view, hash link) with the next replica's.
	PrefixMatch bool
	// Divergence describes the first mismatch when PrefixMatch is false.
	Divergence string
}

// ColdJoinOptions configure a cold-join run.
type ColdJoinOptions struct {
	Options

	// Victim is the replica to kill, wipe, and restart. Pick a backup:
	// losing a primary additionally rides through a view change, which is a
	// legitimate but noisier variant of the scenario.
	Victim int

	// CrashAfter is when (from the start of the measurement window) the
	// victim is killed and its data directory deleted. RejoinAfter is when
	// the wiped victim is rebuilt and rejoins; the window in between is when
	// the cluster must advance far enough to prune the victim's gap out of
	// Fetch range (size the checkpoint interval and load so it does).
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

// RunCrashRestart executes the crash-restart scenario. DataDir must be set
// in the embedded Options; client load runs for the whole Measure window so
// the restarted replica has traffic to expose its gap against.
func RunCrashRestart(opts CrashRestartOptions) (CrashRestartReport, error) {
	r, victim, err := runRestart("crash-restart", opts.Options, opts.Victim, opts.CrashAfter, opts.RestartAfter, false)
	if err != nil {
		return CrashRestartReport{}, err
	}
	return CrashRestartReport{
		Result:     r.Result,
		SeqAtCrash: r.SeqAtCrash, RecoveredSeq: victim.RecoveredSeq,
		VictimFinalSeq: r.VictimFinalSeq, LiveFinalSeq: r.LiveFinalSeq,
		PrefixMatch: r.PrefixMatch, Divergence: r.Divergence,
	}, nil
}

// RunColdJoin executes the cold-join scenario. DataDir must be set in the
// embedded Options; client load runs for the whole window so the cluster
// outruns the joiner and keeps committing while it syncs.
func RunColdJoin(opts ColdJoinOptions) (ColdJoinReport, error) {
	rep, _, err := runRestart("cold-join", opts.Options, opts.Victim, opts.CrashAfter, opts.RejoinAfter, true)
	return rep, err
}

// runRestart is the script both restart scenarios share: kill the victim
// crashAfter into the measurement window, restart it at restartAfter — from
// a wiped data directory if wipe — let the run finish under load, and
// compare the victim's ledger with the next replica's. Without wipe every
// replica keeps its whole execution log: the victim comes back with a
// durable prefix arbitrarily far behind the live checkpoint, and this
// in-process cluster substitutes full retention for the snapshot transfer
// real deployments layer on top. With wipe the live replicas prune
// normally, which is exactly what strands the joiner beyond Fetch and
// forces the snapshot path. It reports in the cold-join shape, whose fields
// cover both scenarios', and returns the restarted victim's runtime.
func runRestart(name string, opts Options, victim int, crashAfter, restartAfter time.Duration, wipe bool) (ColdJoinReport, *protocol.Runtime, error) {
	opts = opts.withDefaults()
	if opts.DataDir == "" {
		return ColdJoinReport{}, nil, fmt.Errorf("harness: %s needs Options.DataDir", name)
	}
	if victim < 0 || victim >= opts.N {
		return ColdJoinReport{}, nil, fmt.Errorf("harness: victim %d out of range", victim)
	}
	if crashAfter <= 0 || restartAfter <= crashAfter {
		return ColdJoinReport{}, nil, fmt.Errorf("harness: %s needs 0 < crash offset < restart offset", name)
	}
	c := newCluster(opts, false)
	defer c.stop()
	c.retainAll = !wipe
	if err := c.start(); err != nil {
		return ColdJoinReport{}, nil, err
	}
	c.warmUp()

	var rep ColdJoinReport
	c.sleepUntil(crashAfter)
	c.kill(victim)
	rep.SeqAtCrash = c.replicas[victim].Runtime().Exec.LastExecuted()
	c.sleepUntil(restartAfter)
	rep.CompletedAtRejoin = c.completed.Load()
	if err := c.restart(victim, wipe); err != nil {
		return ColdJoinReport{}, nil, fmt.Errorf("harness: %s: restart victim: %w", name, err)
	}
	c.sleepUntil(opts.Measure)
	c.stop()

	rep.Result = c.result()
	rep.CompletedAfterRejoin = rep.Completed - rep.CompletedAtRejoin
	rt := c.replicas[victim].Runtime()
	if rt.Metrics.SnapshotsInstalled.Load() > 0 {
		rep.SnapshotSeq = rt.Exec.Chain().Base()
	}
	rep.VictimFinalSeq = rt.Exec.LastExecuted()
	for i, r := range c.replicas {
		if last := r.Runtime().Exec.LastExecuted(); i != victim && (rep.LiveFinalSeq == 0 || last < rep.LiveFinalSeq) {
			rep.LiveFinalSeq = last
		}
	}
	rep.PrefixMatch, rep.Divergence = c.prefixSafety([]int{victim, (victim + 1) % opts.N}, false)
	return rep, rt, nil
}
