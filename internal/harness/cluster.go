package harness

// The in-process cluster every scenario runs on. A scenario is a short
// script over it: newCluster, start, timed steps (crash, kill, restart, the
// warmup and the measurement window), stop, then the scenario's own checks.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/poexec/poe/internal/client"
	"github.com/poexec/poe/internal/consensus/hotstuff"
	"github.com/poexec/poe/internal/consensus/pbft"
	"github.com/poexec/poe/internal/consensus/poe"
	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/consensus/sbft"
	"github.com/poexec/poe/internal/consensus/zyzzyva"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/storage"
	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/workload"
)

// sbftCollectorWait is how long an SBFT collector waits for all n shares
// before taking the slow path (the paper's replica-side timeout, chosen
// small in §IV-D).
const sbftCollectorWait = 40 * time.Millisecond

// replicaHandle abstracts the per-protocol replica for the harness.
type replicaHandle interface {
	Run(ctx context.Context)
	Runtime() *protocol.Runtime
}

// submitter abstracts the two client implementations.
type submitter interface {
	SubmitTxn(ctx context.Context, txn types.Transaction) (types.Result, error)
	NextSeq() uint64
	Start(ctx context.Context)
}

// tieredReader is the optional read-path side of a submitter. Clients
// without it (the Zyzzyva wrapper) get their reads downgraded to ORDERED.
type tieredReader interface {
	ReadTxn(ctx context.Context, txn types.Transaction) (client.ReadAnswer, error)
	NextReadSeq() uint64
}

// replica is one running replica. It has its own context so it can be
// killed alone, and a done channel so its store is closed only once its
// goroutine — which may be mid-WAL-append — has exited. store is nil for a
// volatile run and once the replica is killed.
type replica struct {
	replicaHandle
	store  *storage.Store
	cancel context.CancelFunc
	done   chan struct{}
}

// cluster is one in-process cluster and the client load driving it.
type cluster struct {
	*load
	opts   Options
	ctx    context.Context
	cancel context.CancelFunc
	net    *network.ChanNet
	fn     *network.FaultNet // the fault fabric over net; nil unless asked for
	join   network.Net       // fn when set, else net
	ring   *crypto.KeyRing
	wcfg   workload.Config
	table  map[string][]byte

	// adv is the Byzantine spec replica faulty runs (chaos attacks).
	adv    *protocol.AdversarySpec
	faulty int
	// retainAll makes every replica keep its whole execution log, so a
	// restarted replica arbitrarily far behind can close its gap by Fetch.
	retainAll bool

	replicas []*replica
	clients  []submitter
	stopped  bool
}

// newCluster builds the network, key ring and initial table of a run
// (opts already defaulted). faults routes every send through a FaultNet.
func newCluster(opts Options, faults bool) *cluster {
	c := &cluster{
		load:     newLoad(),
		opts:     opts,
		net:      network.NewChanNet(network.WithSeed(opts.Seed), network.WithDelay(opts.NetDelay, 0), network.WithSendCost(opts.SendCost)),
		ring:     crypto.NewKeyRing(opts.N, []byte(fmt.Sprintf("harness-%d", opts.Seed))),
		replicas: make([]*replica, opts.N),
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	c.join = c.net
	if faults {
		c.fn = network.NewFaultNet(c.net, network.WithFaultSeed(opts.Seed))
		c.join = c.fn
	}
	c.wcfg = workload.DefaultConfig(opts.Records)
	c.wcfg.Seed = opts.Seed
	if opts.ReadFraction > 0 {
		c.wcfg.WriteFraction = 1 - opts.ReadFraction
	}
	c.wcfg.SpeculativeFraction = opts.SpeculativeFraction
	c.wcfg.StrongFraction = opts.StrongFraction
	if !opts.ZeroPayload {
		c.table = workload.InitialTable(c.wcfg)
	}
	return c
}

// start starts every replica and the client pool; the load waits for warmUp.
func (c *cluster) start() error {
	for i := range c.replicas {
		if err := c.startReplica(i); err != nil {
			return err
		}
	}
	for i := 0; i < c.opts.Clients; i++ {
		s, err := buildClient(c.opts, i, c.ring, c.join)
		if err != nil {
			return err
		}
		if cc, ok := s.(*client.Client); ok {
			cc.OnRepair = c.reads.onRepair
		}
		s.Start(c.ctx)
		c.clients = append(c.clients, s)
	}
	return nil
}

// startReplica builds replica i — durable over its data directory when the
// run has one — and runs it.
func (c *cluster) startReplica(i int) error {
	ropts := protocol.RuntimeOptions{ZeroPayload: c.opts.ZeroPayload, InitialTable: c.table}
	r := &replica{done: make(chan struct{})}
	if c.opts.DataDir != "" {
		st, err := storage.Open(replicaDir(c.opts.DataDir, i), storage.Options{Sync: c.opts.Fsync})
		if err != nil {
			return err
		}
		r.store, ropts.Storage = st, st
	}
	var adv *protocol.AdversarySpec
	if i == c.faulty {
		adv = c.adv
	}
	cfg := protocol.Config{
		ID: types.ReplicaID(i), N: c.opts.N, F: c.opts.F, Scheme: c.opts.Scheme,
		BatchSize: c.opts.BatchSize, Window: c.opts.Window,
		CheckpointInterval: types.SeqNum(c.opts.CheckpointInterval),
		ViewTimeout:        c.opts.ViewTimeout,
	}
	h, err := buildReplica(c.opts.Protocol, cfg, c.ring, c.join.Join(types.ReplicaNode(types.ReplicaID(i))), ropts, adv)
	if err != nil {
		if r.store != nil {
			r.store.Close()
		}
		return err
	}
	if c.retainAll {
		h.Runtime().Exec.RetainSlack = 1 << 30
	}
	r.replicaHandle = h
	var ctx context.Context
	ctx, r.cancel = context.WithCancel(c.ctx)
	c.replicas[i] = r
	go func() {
		h.Run(ctx)
		close(r.done)
	}()
	return nil
}

// warmUp starts the client load, waits out the warmup and opens the
// measurement window.
func (c *cluster) warmUp() {
	c.run(c.ctx, c.clients, c.wcfg, c.opts.Outstanding, c.opts.ZeroPayload, c.opts.Warmup)
}

// crash drops all traffic to and from replica i; the replica keeps running,
// cut off (the paper's crash failure).
func (c *cluster) crash(i int) {
	c.net.Crash(types.ReplicaNode(types.ReplicaID(i)))
}

// crashAfter crashes replica i d from now; zero means never.
func (c *cluster) crashAfter(i int, d time.Duration) {
	if d > 0 {
		time.AfterFunc(d, func() { c.crash(i) })
	}
}

// kill stops replica i the way a process crash does: off the network, its
// goroutine stopped, its store closed. Only its data directory survives.
func (c *cluster) kill(i int) {
	c.crash(i)
	r := c.replicas[i]
	r.cancel()
	<-r.done
	if r.store != nil {
		r.store.Close()
		r.store = nil
	}
}

// restart brings killed replica i back: rebuilt from its data directory, or
// from nothing if wipe deletes the directory first.
func (c *cluster) restart(i int, wipe bool) error {
	if wipe {
		if err := os.RemoveAll(replicaDir(c.opts.DataDir, i)); err != nil {
			return fmt.Errorf("wipe replica %d: %w", i, err)
		}
	}
	c.net.Recover(types.ReplicaNode(types.ReplicaID(i)))
	return c.startReplica(i)
}

// stop closes the measurement window and shuts the cluster down: cancel,
// close the network, wait for the load, join the replicas, then close the
// stores — a replica may still be inside a WAL append until it has exited,
// and closing its store under it would turn an orderly shutdown into a
// crash-stop panic. Stopping twice is a no-op.
func (c *cluster) stop() {
	if c.stopped {
		return
	}
	c.stopped = true
	c.closeWindow()
	c.cancel()
	if c.fn != nil {
		c.fn.Close()
	}
	c.net.Close()
	c.wg.Wait()
	for _, r := range c.replicas {
		if r != nil {
			<-r.done
		}
	}
	for _, r := range c.replicas {
		if r != nil && r.store != nil {
			r.store.Close()
		}
	}
}

// result reports the measured load, every replica's counters and the
// read-path audit.
func (c *cluster) result() Result {
	res := c.measured(c.opts.Protocol, c.opts.N, c.opts.BatchSize)
	for i, r := range c.replicas {
		m := r.Runtime().Metrics
		res.addReplicaMetrics(m)
		if n := m.ExecutedTxns.Load(); i == 0 || n < res.ExecutedTxns {
			res.ExecutedTxns = n
		}
	}
	res.ReadAuditChecked, res.ReadAuditSkipped, res.ReadAuditMismatches = c.reads.audit(c.replicas)
	return res
}

// prefixSafety checks that every replica in ids holds an internally
// hash-linked ledger and that every pair agrees on batch digest and view
// wherever both chains hold a block — with stableOnly, only up to the pair's
// lowest stable checkpoint (the quorum-certified prefix). It describes the
// first violation.
func (c *cluster) prefixSafety(ids []int, stableOnly bool) (bool, string) {
	for _, i := range ids {
		if seq, ok := c.replicas[i].Runtime().Exec.Chain().Verify(); !ok {
			return false, fmt.Sprintf("replica %d: chain hash link broken at seq %d", i, seq)
		}
	}
	for k, i := range ids {
		for _, j := range ids[k+1:] {
			a, b := c.replicas[i].Runtime().Exec, c.replicas[j].Runtime().Exec
			hi := types.SeqNum(min(a.Chain().Height(), b.Chain().Height()))
			if stableOnly {
				hi = min(hi, a.StableCheckpointSeq(), b.StableCheckpointSeq())
			}
			for seq := a.Chain().Base(); seq <= hi; seq++ {
				ab, aok := a.Chain().Get(seq)
				bb, bok := b.Chain().Get(seq)
				switch {
				case !aok || !bok:
					// below one chain's retained base
				case ab.Digest != bb.Digest:
					return false, fmt.Sprintf("replicas %d vs %d: batch digest mismatch at seq %d", i, j, seq)
				case ab.View != bb.View:
					return false, fmt.Sprintf("replicas %d vs %d: view mismatch at seq %d", i, j, seq)
				}
			}
		}
	}
	return true, ""
}

// load is a client pool's workload and its measurement window.
type load struct {
	wg         sync.WaitGroup
	completed  atomic.Int64
	latencySum atomic.Int64 // nanoseconds
	measuring  atomic.Bool
	opened     time.Time // when the measurement window opened
	elapsed    time.Duration
	reads      *readStats
}

func newLoad() *load { return &load{reads: newReadStats()} }

// run spawns outstanding goroutines per client, each submitting generated
// transactions until ctx ends and counting completions and latency while the
// window is open; then it waits out warmup (the paper uses 60 s + 120 s;
// scaled here) and opens the window.
func (l *load) run(ctx context.Context, clients []submitter, wcfg workload.Config, outstanding int, zeroPayload bool, warmup time.Duration) {
	for i, s := range clients {
		gen := workload.NewGenerator(wcfg, types.ClientID(types.ClientIDBase)+types.ClientID(i))
		genMu := &sync.Mutex{}
		for j := 0; j < outstanding; j++ {
			l.wg.Add(1)
			go func(s submitter) {
				defer l.wg.Done()
				rd, canRead := s.(tieredReader)
				for ctx.Err() == nil {
					genMu.Lock()
					txn := gen.Next()
					genMu.Unlock()
					// Tiered reads travel the fast read path with their own
					// sequence space; everything else (including reads on a
					// client without the read API, or zero-payload mode,
					// which strips the ops) orders normally.
					tiered := canRead && !zeroPayload && txn.Consistency != types.ConsistencyOrdered
					if tiered {
						txn.Seq = rd.NextReadSeq()
					} else {
						txn.Consistency = types.ConsistencyOrdered
						txn.Seq = s.NextSeq()
					}
					if zeroPayload {
						txn.Ops = nil
					}
					start := time.Now()
					txn.TimeNanos = start.UnixNano()
					if tiered {
						ans, err := rd.ReadTxn(ctx, txn)
						if err != nil {
							return
						}
						l.reads.observe(txn, ans)
					} else if _, err := s.SubmitTxn(ctx, txn); err != nil {
						return
					}
					if l.measuring.Load() {
						l.completed.Add(1)
						l.latencySum.Add(int64(time.Since(start)))
					}
				}
			}(s)
		}
	}
	time.Sleep(warmup)
	l.opened = time.Now()
	l.measuring.Store(true)
}

// sleepUntil sleeps until offset past the opening of the measurement window
// (no-op if already past).
func (l *load) sleepUntil(offset time.Duration) {
	time.Sleep(time.Until(l.opened.Add(offset)))
}

// closeWindow ends the measurement window, if it is open.
func (l *load) closeWindow() {
	if l.measuring.Swap(false) {
		l.elapsed = time.Since(l.opened)
	}
}

// measured reports what the closed window counted, client read outcomes
// included.
func (l *load) measured(p Protocol, n, batch int) Result {
	total := l.completed.Load()
	res := Result{
		Protocol: p, N: n, BatchSize: batch,
		Completed:      total,
		Throughput:     float64(total) / l.elapsed.Seconds(),
		ReadsCompleted: l.reads.completed.Load(),
		ReadsFallback:  l.reads.fallback.Load(),
		ReadsRepaired:  l.reads.repaired.Load(),
	}
	if total > 0 {
		res.AvgLatency = time.Duration(l.latencySum.Load() / total)
	}
	return res
}

// replicaDir is replica i's data directory under a run's DataDir root.
func replicaDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("replica-%d", i))
}

// buildReplica constructs one replica of the selected protocol. A non-nil
// adv installs the shared Byzantine adversary spec on it (chaos scenarios).
func buildReplica(p Protocol, cfg protocol.Config, ring *crypto.KeyRing, tr network.Transport, ropts protocol.RuntimeOptions, adv *protocol.AdversarySpec) (replicaHandle, error) {
	switch p {
	case PoE:
		return poe.New(cfg, ring, tr, poe.Options{RuntimeOptions: ropts, Adversary: adv})
	case PBFT:
		return pbft.New(cfg, ring, tr, pbft.Options{RuntimeOptions: ropts, Adversary: adv})
	case Zyzzyva:
		return zyzzyva.New(cfg, ring, tr, zyzzyva.Options{RuntimeOptions: ropts, Adversary: adv})
	case SBFT:
		return sbft.New(cfg, ring, tr, sbft.Options{RuntimeOptions: ropts, Adversary: adv, CollectorTimeout: sbftCollectorWait})
	case HotStuff:
		return hotstuff.New(cfg, ring, tr, hotstuff.Options{RuntimeOptions: ropts, Adversary: adv})
	default:
		return nil, fmt.Errorf("harness: unknown protocol %q", p)
	}
}

func buildClient(opts Options, i int, ring *crypto.KeyRing, net network.Net) (submitter, error) {
	id := types.ClientID(types.ClientIDBase) + types.ClientID(i)
	tr := net.Join(types.ClientNode(id))
	switch opts.Protocol {
	case Zyzzyva:
		return zyzzyva.NewClient(zyzzyva.ClientConfig{
			ID: id, N: opts.N, F: opts.F, Scheme: opts.Scheme,
			SpecTimeout: opts.ClientTimeout,
		}, ring, tr)
	case SBFT:
		verifier := crypto.NewVerifier(ring, opts.N-opts.F,
			opts.Scheme == crypto.SchemeTS || opts.Scheme == crypto.SchemeED)
		return client.New(client.Config{
			ID: id, N: opts.N, F: opts.F, Scheme: opts.Scheme,
			Quorum:  1,
			Timeout: opts.ClientTimeout,
			CertAccept: func(m *protocol.Inform) bool {
				return len(m.Cert) > 0 && verifier.Verify(sbft.ExecPayload(m.Seq, m.OrderProof), m.Cert)
			},
		}, ring, tr)
	case PBFT:
		return client.New(client.Config{
			ID: id, N: opts.N, F: opts.F, Scheme: opts.Scheme,
			Quorum: opts.F + 1, Timeout: opts.ClientTimeout,
		}, ring, tr)
	case HotStuff:
		return client.New(client.Config{
			ID: id, N: opts.N, F: opts.F, Scheme: opts.Scheme,
			Quorum: opts.F + 1, Timeout: opts.ClientTimeout,
			BroadcastRequests: true,
		}, ring, tr)
	default: // PoE: nf identical replies — the proof of execution
		return client.New(client.Config{
			ID: id, N: opts.N, F: opts.F, Scheme: opts.Scheme,
			Quorum: opts.N - opts.F, Timeout: opts.ClientTimeout,
		}, ring, tr)
	}
}
