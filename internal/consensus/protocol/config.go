// Package protocol contains the replica framework shared by every consensus
// protocol in this repository: configuration and quorum arithmetic, the
// client-facing message types, the ordered executor that drives the store
// and ledger, the inbound authentication check, the primary-side
// request batcher, the proposal fan-out, the checkpoint sub-protocol, the
// event loop, the normal case and view change the primary-backup protocols
// share (Skeleton), and the analytic cost model behind the paper's Fig 1.
//
// Individual protocols (poe, pbft, zyzzyva, sbft, hotstuff) add only their
// ordering rounds and view-change rules, mirroring how the paper implements
// all five protocols inside the one ResilientDB fabric (§III).
//
// Durability is opt-in through RuntimeOptions.Storage: the executor then
// write-ahead-logs every executed batch before the replica answers its
// clients, stable checkpoints persist snapshots, and NewRuntime rebuilds
// the executed prefix (snapshot restore + WAL replay) at construction; see
// the internal/storage package for the on-disk format and recovery rules.
package protocol

import (
	"fmt"
	"time"

	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/types"
)

// Config describes one replica's view of the system and the protocol tuning
// parameters shared by all protocols.
type Config struct {
	// ID is this replica's identifier, 0 ≤ ID < N.
	ID types.ReplicaID
	// N is the number of replicas; the paper requires N > 3F.
	N int
	// F is the number of byzantine replicas tolerated.
	F int

	// Scheme selects the authentication instantiation (ingredient I3).
	Scheme crypto.Scheme

	// BatchSize is the number of client requests aggregated per proposal
	// (the paper's default is 100).
	BatchSize int
	// BatchLinger bounds how long the primary waits to fill a batch before
	// proposing a partial one.
	BatchLinger time.Duration

	// Window is the out-of-order window: the primary may run consensus for
	// sequence numbers up to Window ahead of the last executed one (§II-F,
	// PBFT's high/low watermarks). Window 1 disables out-of-order
	// processing.
	Window int

	// CheckpointInterval is the number of sequence numbers between
	// checkpoints (§II-D).
	CheckpointInterval types.SeqNum

	// ViewTimeout is the initial failure-detection timeout; it doubles on
	// every consecutive view change (exponential backoff, Theorem 7).
	ViewTimeout time.Duration

	// LeaseDuration is the read-lease promise window (protocol/lease.go): a
	// replica granting a lease promises not to join a higher view for this
	// long on its own clock, and the primary treats each grant as valid for
	// half of it from receipt. Must stay well below ViewTimeout — a pending
	// view change waits out at most one promise window.
	LeaseDuration time.Duration

	// Seed seeds the deterministic key ring shared by the cluster.
	Seed []byte
}

// Validate checks the configuration against the paper's system model.
func (c Config) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("protocol: N must be positive, got %d", c.N)
	}
	if c.N <= 3*c.F {
		return fmt.Errorf("protocol: need n > 3f, got n=%d f=%d", c.N, c.F)
	}
	if c.ID < 0 || int(c.ID) >= c.N {
		return fmt.Errorf("protocol: replica id %d out of range [0,%d)", c.ID, c.N)
	}
	if c.BatchSize < 1 {
		return fmt.Errorf("protocol: batch size must be ≥ 1, got %d", c.BatchSize)
	}
	if c.Window < 1 {
		return fmt.Errorf("protocol: window must be ≥ 1, got %d", c.Window)
	}
	if c.CheckpointInterval < 1 {
		return fmt.Errorf("protocol: checkpoint interval must be ≥ 1, got %d", c.CheckpointInterval)
	}
	return nil
}

// WithDefaults fills unset tuning fields with sensible defaults and returns
// the completed config.
func (c Config) WithDefaults() Config {
	if c.BatchSize == 0 {
		c.BatchSize = 100
	}
	if c.BatchLinger == 0 {
		c.BatchLinger = 2 * time.Millisecond
	}
	if c.Window == 0 {
		c.Window = 128
	}
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = 128
	}
	if c.ViewTimeout == 0 {
		c.ViewTimeout = 300 * time.Millisecond
	}
	if c.LeaseDuration == 0 {
		c.LeaseDuration = c.ViewTimeout / 4
	}
	return c
}

// Tick is the event loop's housekeeping interval. The tick drives both
// failure detection (needs ≲ ViewTimeout/4) and batch-linger flushing (needs
// milliseconds).
func (c Config) Tick() time.Duration {
	return max(min(c.ViewTimeout/4, 10*time.Millisecond), time.Millisecond)
}

// NF returns nf = n − f, the size of the paper's large quorum.
func (c Config) NF() int { return c.N - c.F }

// FPlus1 returns f + 1, the size of the paper's small quorum (at least one
// non-faulty member).
func (c Config) FPlus1() int { return c.F + 1 }

// Primary returns the primary of view v.
func (c Config) Primary(v types.View) types.ReplicaID { return v.Primary(c.N) }

// IsPrimary reports whether this replica is the primary of view v.
func (c Config) IsPrimary(v types.View) bool { return c.Primary(v) == c.ID }
