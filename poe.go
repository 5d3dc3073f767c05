// Package poe is a Go implementation of the Proof-of-Execution (PoE)
// Byzantine fault-tolerant consensus protocol (Gupta, Hellings, Rahnama,
// Sadoghi — EDBT 2021), together with the four baseline protocols the paper
// evaluates against (PBFT, Zyzzyva, SBFT, HotStuff), a ResilientDB-style
// replica fabric (batching, pipelining, checkpoints, a blockchain ledger, a
// deterministic key-value execution layer), a YCSB-style workload generator,
// and the paper's full benchmark harness.
//
// The quickest way in:
//
//	cluster, _ := poe.NewCluster(poe.ClusterConfig{Replicas: 4})
//	defer cluster.Stop()
//	client, _ := cluster.NewClient()
//	res, _ := client.Submit(ctx, []poe.Op{{Kind: poe.OpWrite, Key: "k", Value: []byte("v")}})
//
// Submit returns once the client holds a proof-of-execution: identical
// replies from nf = n − f distinct replicas, which the protocol guarantees
// will survive any view change (Proposition 5 of the paper).
package poe

import (
	"context"
	"fmt"
	"time"

	"github.com/poexec/poe/internal/client"
	"github.com/poexec/poe/internal/consensus"
	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/ledger"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/types"
)

// Re-exported building blocks of the public API.
type (
	// Op is a single key-value operation inside a transaction.
	Op = types.Op
	// OpKind is the kind of operation.
	OpKind = types.OpKind
	// Transaction is a client-issued unit of work.
	Transaction = types.Transaction
	// Result is the outcome of an executed transaction.
	Result = types.Result
	// Block is one ledger entry.
	Block = ledger.Block
	// ReplicaID identifies a replica.
	ReplicaID = types.ReplicaID
)

// Operation kinds.
const (
	OpRead  = types.OpRead
	OpWrite = types.OpWrite
	OpNoop  = types.OpNoop
)

// Protocol selects the consensus protocol a cluster runs.
type Protocol = consensus.Protocol

// The five protocols of the paper.
const (
	ProtocolPoE      = consensus.PoE
	ProtocolPBFT     = consensus.PBFT
	ProtocolZyzzyva  = consensus.Zyzzyva
	ProtocolSBFT     = consensus.SBFT
	ProtocolHotStuff = consensus.HotStuff
)

// Scheme selects the authentication instantiation (the paper's ingredient
// I3: PoE is signature-scheme agnostic).
type Scheme string

// Authentication schemes (§IV-C).
const (
	SchemeMAC  Scheme = "mac"  // pairwise HMACs; all-to-all SUPPORT phase
	SchemeTS   Scheme = "ts"   // threshold signatures; linear phases
	SchemeED   Scheme = "ed"   // Ed25519 signatures on every message
	SchemeNone Scheme = "none" // no authentication (benchmarking only)
)

// ClusterConfig configures an in-process cluster.
type ClusterConfig struct {
	// Replicas is n; Faults is f. Defaults: n = 4, f = (n−1)/3. The system
	// model requires n > 3f.
	Replicas int
	Faults   int
	// Protocol defaults to ProtocolPoE.
	Protocol Protocol
	// Scheme defaults to the protocol's own (§IV-A): SchemeMAC for PBFT and
	// Zyzzyva, SchemeTS for SBFT and HotStuff, and for PoE SchemeMAC below
	// 16 replicas and SchemeTS at or above (ingredient I3).
	Scheme Scheme
	// BatchSize defaults to 100 (the paper's default).
	BatchSize int
	// Window is the out-of-order window; 1 disables out-of-order processing.
	Window int
	// ViewTimeout caps the failure detector's learned age gate (which
	// doubles per view change); see protocol.Config.ViewTimeout.
	ViewTimeout time.Duration
	// InitialTable pre-loads every replica's store.
	InitialTable map[string][]byte
	// Seed makes key material and the network deterministic.
	Seed int64
}

// Cluster is an in-process cluster of replicas on a fault-injectable
// network. It is the programmatic equivalent of the paper's testbed.
type Cluster struct {
	cfg        ClusterConfig
	scheme     crypto.Scheme
	net        *network.ChanNet
	fn         *network.FaultNet // the fault fabric over net: crashes
	ring       *crypto.KeyRing
	handles    []consensus.Replica
	cancel     context.CancelFunc
	ctx        context.Context
	nextClient int
}

// NewCluster builds and starts a cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Replicas == 0 {
		cfg.Replicas = 4
	}
	if cfg.Faults == 0 {
		cfg.Faults = (cfg.Replicas - 1) / 3
	}
	if cfg.Protocol == "" {
		cfg.Protocol = ProtocolPoE
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 100
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	scheme := consensus.DefaultScheme(cfg.Protocol, cfg.Replicas)
	if cfg.Scheme != "" {
		var err error
		if scheme, err = crypto.ParseScheme(string(cfg.Scheme)); err != nil {
			return nil, fmt.Errorf("poe: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Cluster{
		cfg:    cfg,
		scheme: scheme,
		net:    network.NewChanNet(),
		ring:   crypto.NewKeyRing(cfg.Replicas, []byte(fmt.Sprintf("cluster-%d", cfg.Seed))),
		cancel: cancel,
		ctx:    ctx,
	}
	c.fn = network.NewFaultNet(c.net, network.WithFaultSeed(cfg.Seed))
	for i := 0; i < cfg.Replicas; i++ {
		pcfg := protocol.Config{
			ID: types.ReplicaID(i), N: cfg.Replicas, F: cfg.Faults,
			Scheme:      scheme,
			BatchSize:   cfg.BatchSize,
			Window:      cfg.Window,
			ViewTimeout: cfg.ViewTimeout,
		}
		tr := c.fn.Join(types.ReplicaNode(pcfg.ID))
		h, err := consensus.NewReplica(cfg.Protocol, pcfg, c.ring, tr, protocol.Options{
			RuntimeOptions: protocol.RuntimeOptions{InitialTable: cfg.InitialTable},
		})
		if err != nil {
			c.Stop()
			return nil, err
		}
		c.handles = append(c.handles, h)
		go h.Run(ctx)
	}
	return c, nil
}

// Stop shuts the cluster down.
func (c *Cluster) Stop() {
	c.cancel()
	c.fn.Close()
	c.net.Close()
}

// CrashReplica simulates a crash of the given replica: all its traffic is
// dropped.
func (c *Cluster) CrashReplica(id ReplicaID) { c.fn.Crash(types.ReplicaNode(id)) }

// RecoverReplica undoes CrashReplica.
func (c *Cluster) RecoverReplica(id ReplicaID) { c.fn.Recover(types.ReplicaNode(id)) }

// LedgerHeight returns the block height of a replica's ledger.
func (c *Cluster) LedgerHeight(id ReplicaID) int {
	return c.handles[id].Runtime().Exec.Chain().Height()
}

// LedgerBlock returns one block of a replica's ledger.
func (c *Cluster) LedgerBlock(id ReplicaID, seq uint64) (Block, bool) {
	return c.handles[id].Runtime().Exec.Chain().Get(types.SeqNum(seq))
}

// VerifyLedger checks the hash chain of a replica's ledger.
func (c *Cluster) VerifyLedger(id ReplicaID) bool {
	_, ok := c.handles[id].Runtime().Exec.Chain().Verify()
	return ok
}

// StateDigest returns the execution-state digest of a replica; non-faulty
// replicas that executed the same prefix report identical digests.
func (c *Cluster) StateDigest(id ReplicaID) [32]byte {
	return c.handles[id].Runtime().Exec.StateDigest()
}

// ExecutedTxns returns the number of transactions a replica has executed.
func (c *Cluster) ExecutedTxns(id ReplicaID) int64 {
	return c.handles[id].Runtime().Metrics.ExecutedTxns.Load()
}

// Client is a handle for submitting transactions to the cluster.
type Client struct {
	inner consensus.Client
	id    types.ClientID
}

// NewClient creates a client attached to the cluster, configured with the
// protocol's reply rule (nf identical replies for PoE — the proof of
// execution; f+1 for PBFT/HotStuff; all n for Zyzzyva; one certified reply
// for SBFT).
func (c *Cluster) NewClient() (*Client, error) {
	i := c.nextClient
	c.nextClient++
	id := types.ClientID(types.ClientIDBase) + types.ClientID(i)
	inner, err := consensus.NewClient(c.cfg.Protocol, client.Config{
		ID: id, N: c.cfg.Replicas, F: c.cfg.Faults, Scheme: c.scheme,
	}, c.ring, c.fn.Join(types.ClientNode(id)))
	if err != nil {
		return nil, err
	}
	inner.Start(c.ctx)
	return &Client{inner: inner, id: id}, nil
}

// Submit sends the operations as one transaction and blocks until the
// protocol's completion rule is met.
func (cl *Client) Submit(ctx context.Context, ops []Op) (Result, error) {
	txn := types.Transaction{
		Client:    cl.id,
		Seq:       cl.inner.NextSeq(),
		Ops:       ops,
		TimeNanos: time.Now().UnixNano(),
	}
	return cl.inner.SubmitTxn(ctx, txn)
}

// SubmitTxn submits a pre-built transaction; its Client and Seq fields are
// assigned by the client.
func (cl *Client) SubmitTxn(ctx context.Context, txn Transaction) (Result, error) {
	txn.Client = cl.id
	txn.Seq = cl.inner.NextSeq()
	if txn.TimeNanos == 0 {
		txn.TimeNanos = time.Now().UnixNano()
	}
	return cl.inner.SubmitTxn(ctx, txn)
}
