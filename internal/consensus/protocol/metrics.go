package protocol

import (
	"sync/atomic"
	"time"
)

// Metrics collects replica-side counters. All fields are safe for concurrent
// use; the harness samples them while the replica runs (Fig 10's throughput
// timeline is built by periodic sampling of ExecutedTxns).
type Metrics struct {
	ExecutedTxns    atomic.Int64
	ExecutedBatches atomic.Int64
	ProposedBatches atomic.Int64
	MessagesIn      atomic.Int64
	ViewChanges     atomic.Int64
	Rollbacks       atomic.Int64
	Checkpoints     atomic.Int64

	// ClientSigVerifies counts Ed25519 checks of client request signatures
	// (memo misses): one per ordered request cluster-wide when backups
	// accept proposals on the client's MAC tags, n when they cannot.
	ClientSigVerifies atomic.Int64

	// Egress loop: jobs submitted, authenticators computed off the event
	// loop, the current queue depth, and the deepest backlog observed —
	// sustained depth near EgressQueued/runtime means the signing pool, not
	// the state machine, is the bottleneck.
	EgressQueued        atomic.Int64
	EgressSignedOffLoop atomic.Int64
	EgressDepth         atomic.Int64
	EgressMaxDepth      atomic.Int64

	// WAL group commit: groups written and records they carried
	// (records/groups = mean group size; 1.0 means no batching was needed).
	WALGroups         atomic.Int64
	WALGroupedRecords atomic.Int64

	// ViewChangesDone counts view changes that completed — the replica
	// entered the new view and resumed progress — as opposed to ViewChanges,
	// which counts attempts started. The soak harness asserts on completions.
	ViewChangesDone atomic.Int64

	// Hybrid-consistency read path: reads served locally per tier (no
	// consensus slot consumed), reads that fell back to ordering (no lease,
	// wrong replica, deferral timeout), speculative serves re-answered after
	// a rollback, and lease grants sent.
	SpecReads     atomic.Int64
	StrongReads   atomic.Int64
	ReadFallbacks atomic.Int64
	ReadRepairs   atomic.Int64
	LeaseGrants   atomic.Int64

	// Snapshot state transfer: snapshots served to lagging peers and
	// installed from peers, chunks and bytes moved in each direction, extra
	// pages pulled by the paginated record fetch, and state-sync attempts
	// abandoned (timeout, invalid offer, corrupt chunk) before converging.
	SnapshotsServed    atomic.Int64
	SnapshotsInstalled atomic.Int64
	SnapshotChunksSent atomic.Int64
	SnapshotChunksRecv atomic.Int64
	SnapshotBytesSent  atomic.Int64
	SnapshotBytesRecv  atomic.Int64
	FetchPages         atomic.Int64
	StateSyncRetries   atomic.Int64

	startNanos atomic.Int64
}

// Start records the measurement start time.
func (m *Metrics) Start() { m.startNanos.Store(time.Now().UnixNano()) }

// MetricsSnapshot is a plain-value copy of Metrics, the schema of
// poeserver's -metrics-json exit dump (collected per replica by the
// multi-process runner, internal/deploy).
type MetricsSnapshot struct {
	ExecutedTxns    int64 `json:"executed_txns"`
	ExecutedBatches int64 `json:"executed_batches"`
	ProposedBatches int64 `json:"proposed_batches"`
	MessagesIn      int64 `json:"messages_in"`
	ViewChanges     int64 `json:"view_changes"`
	ViewChangesDone int64 `json:"view_changes_done"`
	Rollbacks       int64 `json:"rollbacks"`
	Checkpoints     int64 `json:"checkpoints"`

	ClientSigVerifies int64 `json:"client_sig_verifies"`

	EgressQueued        int64 `json:"egress_queued"`
	EgressSignedOffLoop int64 `json:"egress_signed_off_loop"`
	EgressMaxDepth      int64 `json:"egress_max_depth"`

	WALGroups         int64 `json:"wal_groups"`
	WALGroupedRecords int64 `json:"wal_grouped_records"`

	SpecReads     int64 `json:"spec_reads"`
	StrongReads   int64 `json:"strong_reads"`
	ReadFallbacks int64 `json:"read_fallbacks"`
	ReadRepairs   int64 `json:"read_repairs"`
	LeaseGrants   int64 `json:"lease_grants"`

	SnapshotsServed    int64 `json:"snapshots_served"`
	SnapshotsInstalled int64 `json:"snapshots_installed"`
	SnapshotChunksSent int64 `json:"snapshot_chunks_sent"`
	SnapshotChunksRecv int64 `json:"snapshot_chunks_recv"`
	SnapshotBytesSent  int64 `json:"snapshot_bytes_sent"`
	SnapshotBytesRecv  int64 `json:"snapshot_bytes_recv"`
	FetchPages         int64 `json:"fetch_pages"`
	StateSyncRetries   int64 `json:"state_sync_retries"`

	// UptimeSeconds and ThroughputTxnS are measured since Start (0 when
	// Start was never called).
	UptimeSeconds  float64 `json:"uptime_seconds"`
	ThroughputTxnS float64 `json:"throughput_txn_s"`
}

// Snapshot copies every counter into a plain struct for JSON export.
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		ExecutedTxns:    m.ExecutedTxns.Load(),
		ExecutedBatches: m.ExecutedBatches.Load(),
		ProposedBatches: m.ProposedBatches.Load(),
		MessagesIn:      m.MessagesIn.Load(),
		ViewChanges:     m.ViewChanges.Load(),
		ViewChangesDone: m.ViewChangesDone.Load(),
		Rollbacks:       m.Rollbacks.Load(),
		Checkpoints:     m.Checkpoints.Load(),

		ClientSigVerifies: m.ClientSigVerifies.Load(),

		EgressQueued:        m.EgressQueued.Load(),
		EgressSignedOffLoop: m.EgressSignedOffLoop.Load(),
		EgressMaxDepth:      m.EgressMaxDepth.Load(),

		WALGroups:         m.WALGroups.Load(),
		WALGroupedRecords: m.WALGroupedRecords.Load(),

		SpecReads:     m.SpecReads.Load(),
		StrongReads:   m.StrongReads.Load(),
		ReadFallbacks: m.ReadFallbacks.Load(),
		ReadRepairs:   m.ReadRepairs.Load(),
		LeaseGrants:   m.LeaseGrants.Load(),

		SnapshotsServed:    m.SnapshotsServed.Load(),
		SnapshotsInstalled: m.SnapshotsInstalled.Load(),
		SnapshotChunksSent: m.SnapshotChunksSent.Load(),
		SnapshotChunksRecv: m.SnapshotChunksRecv.Load(),
		SnapshotBytesSent:  m.SnapshotBytesSent.Load(),
		SnapshotBytesRecv:  m.SnapshotBytesRecv.Load(),
		FetchPages:         m.FetchPages.Load(),
		StateSyncRetries:   m.StateSyncRetries.Load(),
	}
	if start := m.startNanos.Load(); start != 0 {
		s.UptimeSeconds = time.Since(time.Unix(0, start)).Seconds()
		s.ThroughputTxnS = m.Throughput()
	}
	return s
}

// Throughput returns executed transactions per second since Start.
func (m *Metrics) Throughput() float64 {
	start := m.startNanos.Load()
	if start == 0 {
		return 0
	}
	elapsed := time.Since(time.Unix(0, start)).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(m.ExecutedTxns.Load()) / elapsed
}
