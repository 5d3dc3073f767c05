// Package client implements the client role of the protocols (Fig 3,
// Client-role): sign a transaction, send it to the primary, collect
// identical INFORM messages from a protocol-specific number of distinct
// replicas, and — if no timely response arrives — broadcast the request to
// all replicas so they can forward it to the primary and start their
// failure-detection timers (§II-B).
//
// The quorum rule differs per protocol: PoE clients need nf identical
// replies (the proof-of-execution), PBFT clients need f+1, Zyzzyva clients
// need all n (its fast path), and SBFT clients accept a single reply
// carrying a valid threshold certificate. The rule is configured per client;
// the Zyzzyva-specific commit-certificate fallback lives in the zyzzyva
// package.
package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/types"
)

// Config parameterizes a client.
type Config struct {
	// ID is the client's identity.
	ID types.ClientID
	// N and F describe the replica system.
	N, F int
	// Scheme is the cluster's authentication scheme; clients sign requests
	// with Ed25519 except under SchemeNone (§IV-C), and add per-replica MAC
	// tags when replicas authenticate by MAC (protocol.SignRequest).
	Scheme crypto.Scheme
	// Quorum is the number of identical replies from distinct replicas
	// required to accept a result. Zero defaults to nf = n − f (PoE's
	// proof-of-execution rule).
	Quorum int
	// CertAccept, if non-nil, completes a request immediately when a single
	// reply satisfies it (SBFT's aggregated execute-ack).
	CertAccept func(m *protocol.Inform) bool
	// Timeout bounds how long a write waits for a quorum before the client
	// broadcasts it to all replicas (paper: clients use coarse timeouts; §IV-D
	// discusses the consequences). Once the client has measured its own
	// reply latency it broadcasts sooner (rto.go); tiered reads always wait
	// Timeout.
	Timeout time.Duration
	// VerifyReplyMAC enables checking the MAC tag on replies. Defaults on
	// for all schemes but SchemeNone.
	VerifyReplyMAC bool
	// BroadcastRequests sends every request to all replicas immediately
	// instead of to the presumed primary. Rotating-leader protocols
	// (HotStuff) need this: any replica may become the proposer.
	BroadcastRequests bool
	// MaxRetryInterval caps the retransmission backoff. Retries double the
	// first wait — with ±25% jitter so a fleet of clients that timed out
	// together does not re-broadcast in lockstep — up to this cap. Zero
	// defaults to 8×Timeout.
	MaxRetryInterval time.Duration
}

// Client is a protocol client. One Client may have many Submit calls in
// flight concurrently (the paper's out-of-order experiments depend on deep
// client pipelines); each outstanding request is keyed by its client-local
// sequence number.
type Client struct {
	cfg  Config
	keys *crypto.NodeKeys
	net  network.Transport

	nextSeq  atomic.Uint64
	viewHint atomic.Uint64 // latest view observed in replies

	// rto times the first retransmission of a write.
	rto rto

	// nextReadSeq numbers tiered reads. Reads run in their own client-local
	// sequence space — they bypass ordering, so threading them through the
	// write sequence would leave gaps the dedup watermark treats as lost
	// writes. readRR spreads speculative reads across backups.
	nextReadSeq atomic.Uint64
	readRR      atomic.Uint64

	mu      sync.Mutex
	waiters map[uint64]*waiter

	// readMu guards readWaiters: tiered reads are keyed by request digest
	// (their sequence space can collide with write sequences).
	readMu      sync.Mutex
	readWaiters map[types.Digest]*readWaiter

	// OnSpeculative, if set, receives speculative replies (Zyzzyva fast
	// path) instead of the normal tally; used by the zyzzyva client
	// wrapper.
	OnSpeculative func(m *protocol.Inform)

	// OnRepair, if set, receives the re-answer of a speculative read whose
	// serving prefix was rolled back after the original answer was already
	// delivered (the replica-side repair path). Called from the read loop;
	// must not block.
	OnRepair func(ReadAnswer)

	started sync.Once
	done    chan struct{}
}

type waiter struct {
	digest types.Digest // request digest; informs must match it exactly
	ch     chan types.Result
	tally  map[protocol.ReplyKey]map[types.ReplicaID]bool
	res    map[protocol.ReplyKey]types.Result
}

// ReadAnswer is the outcome of a tiered read: the values plus the provenance
// tag — which replica answered, from which executed prefix — that the harness
// uses for the digest-prefix safety audit.
type ReadAnswer struct {
	Result      types.Result
	Tier        types.Consistency
	From        types.ReplicaID
	ExecSeq     types.SeqNum
	StateDigest types.Digest
	Repaired    bool
	// Fallback marks an answer that came through the ordering pipeline
	// (Inform quorum) rather than a local serve.
	Fallback bool
}

type readWaiter struct {
	ch    chan ReadAnswer
	tally map[protocol.ReplyKey]map[types.ReplicaID]bool
}

// New creates a client over the given transport. The transport's node must
// equal ClientNode(cfg.ID).
func New(cfg Config, ring *crypto.KeyRing, net network.Transport) (*Client, error) {
	if cfg.N <= 3*cfg.F {
		return nil, fmt.Errorf("client: need n > 3f, got n=%d f=%d", cfg.N, cfg.F)
	}
	if net.Node() != types.ClientNode(cfg.ID) {
		return nil, fmt.Errorf("client: transport joined as %v, want %v", net.Node(), types.ClientNode(cfg.ID))
	}
	if cfg.Quorum == 0 {
		cfg.Quorum = cfg.N - cfg.F
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 500 * time.Millisecond
	}
	if cfg.MaxRetryInterval == 0 {
		cfg.MaxRetryInterval = 8 * cfg.Timeout
	}
	if cfg.Scheme != crypto.SchemeNone {
		cfg.VerifyReplyMAC = true
	}
	return &Client{
		cfg:         cfg,
		rto:         rto{max: cfg.Timeout},
		keys:        ring.NodeKeys(types.ClientNode(cfg.ID)),
		net:         net,
		waiters:     make(map[uint64]*waiter),
		readWaiters: make(map[types.Digest]*readWaiter),
		done:        make(chan struct{}),
	}, nil
}

// Start launches the reply-processing goroutine and announces the client to
// every replica, so that the backups can answer its first request (the
// quorum needs their INFORMs, and the request itself only reaches the
// primary). It is idempotent.
func (c *Client) Start(ctx context.Context) {
	c.started.Do(func() {
		go c.readLoop(ctx)
		network.Announce(c.net, c.cfg.N)
	})
}

// Sign produces the signed request 〈T〉c for a transaction.
func (c *Client) Sign(txn types.Transaction) types.Request {
	return protocol.SignRequest(c.keys, c.cfg.Scheme, c.cfg.N, txn)
}

// NextSeq allocates the next client-local sequence number.
func (c *Client) NextSeq() uint64 { return c.nextSeq.Add(1) }

// NextReadSeq allocates the next sequence number in the tiered-read space.
func (c *Client) NextReadSeq() uint64 { return c.nextReadSeq.Add(1) }

// ErrClosed is returned when the client's transport closed mid-request.
var ErrClosed = errors.New("client: transport closed")

// Submit signs ops as a transaction and drives it to completion: it returns
// once Quorum identical replies (or a certificate-bearing reply) arrived.
// Submit retransmits on timeout — first to the presumed primary, then by
// broadcasting to all replicas — and only fails when ctx is done.
func (c *Client) Submit(ctx context.Context, ops []types.Op) (types.Result, error) {
	txn := types.Transaction{
		Client:    c.cfg.ID,
		Seq:       c.NextSeq(),
		Ops:       ops,
		TimeNanos: time.Now().UnixNano(),
	}
	return c.SubmitTxn(ctx, txn)
}

// SubmitTxn is Submit for a pre-built transaction (the workload generator
// produces these). The transaction's client must be this client and its
// sequence number must be fresh.
func (c *Client) SubmitTxn(ctx context.Context, txn types.Transaction) (types.Result, error) {
	if txn.Client != c.cfg.ID {
		return types.Result{}, fmt.Errorf("client: transaction for %d submitted via client %d", txn.Client, c.cfg.ID)
	}
	req := c.Sign(txn)
	w := &waiter{
		digest: req.Digest(),
		ch:     make(chan types.Result, 1),
		tally:  make(map[protocol.ReplyKey]map[types.ReplicaID]bool),
		res:    make(map[protocol.ReplyKey]types.Result),
	}
	c.mu.Lock()
	c.waiters[txn.Seq] = w
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.waiters, txn.Seq)
		c.mu.Unlock()
	}()

	// First attempt goes to the presumed primary (or everywhere, for
	// rotating-leader protocols); retries broadcast.
	sent := time.Now()
	if c.cfg.BroadcastRequests {
		network.Broadcast(c.net, c.cfg.N, &protocol.ClientRequest{Req: req}, false)
	} else {
		c.net.Send(c.primaryNode(), &protocol.ClientRequest{Req: req})
	}
	backoff := c.rto.wait()
	timer := time.NewTimer(backoff)
	defer timer.Stop()
	for attempt := 1; ; attempt++ {
		select {
		case <-ctx.Done():
			return types.Result{}, ctx.Err()
		case <-c.done:
			return types.Result{}, ErrClosed
		case res := <-w.ch:
			if attempt == 1 {
				c.rto.sample(time.Since(sent))
			}
			return res, nil
		case <-timer.C:
			// §II-B: on timeout, broadcast so replicas forward to the
			// primary and arm their failure detectors. Backoff doubles up
			// to MaxRetryInterval: during a view change (or while this
			// client is partitioned) constant-rate re-broadcasts from the
			// whole closed-loop fleet only add load to the recovery.
			network.Broadcast(c.net, c.cfg.N, &protocol.ClientRequest{Req: req}, false)
			if backoff < c.cfg.MaxRetryInterval {
				backoff *= 2
				if backoff > c.cfg.MaxRetryInterval {
					backoff = c.cfg.MaxRetryInterval
				}
			}
			timer.Reset(c.retryWait(backoff, txn.Seq, attempt))
		}
	}
}

// retryWait jitters a backoff interval by ±25%. The jitter is derived from
// the (client, txn seq, attempt) tuple rather than a shared RNG so no lock
// is taken on the submit path.
func (c *Client) retryWait(backoff time.Duration, seq uint64, attempt int) time.Duration {
	h := types.DigestConcat(
		[]byte("client-retry"),
		[]byte{byte(c.cfg.ID), byte(seq), byte(seq >> 8), byte(seq >> 16), byte(attempt)},
	)
	// Map 16 digest bits onto [-25%, +25%].
	frac := int64(h[0])<<8 | int64(h[1]) // 0..65535
	delta := backoff / 4 * time.Duration(frac-32768) / 32768
	return backoff + delta
}

func (c *Client) primaryNode() types.NodeID {
	v := types.View(c.viewHint.Load())
	return types.ReplicaNode(v.Primary(c.cfg.N))
}

func (c *Client) readLoop(ctx context.Context) {
	defer close(c.done)
	inbox := c.net.Inbox()
	for {
		select {
		case <-ctx.Done():
			return
		case env, ok := <-inbox:
			if !ok {
				return
			}
			if !env.From.IsReplica() {
				continue
			}
			switch m := env.Msg.(type) {
			case *protocol.Inform:
				c.onInform(env.From.Replica(), m)
			case *protocol.ReadReply:
				c.onReadReply(env.From.Replica(), m)
			}
		}
	}
}

func (c *Client) onInform(from types.ReplicaID, m *protocol.Inform) {
	if m.From != from {
		return
	}
	key := m.Key()
	if c.cfg.VerifyReplyMAC && !c.keys.CheckMAC(types.ReplicaNode(from), key.Digest[:], m.Tag) {
		return
	}
	// Track the view so retransmissions reach the current primary.
	for {
		cur := c.viewHint.Load()
		if uint64(m.View) <= cur || c.viewHint.CompareAndSwap(cur, uint64(m.View)) {
			break
		}
	}
	if m.Speculative && c.OnSpeculative != nil {
		c.OnSpeculative(m)
		return
	}
	c.mu.Lock()
	w, ok := c.waiters[m.ClientSeq]
	// The digest must match: tiered reads run in their own sequence space,
	// so a read's client-seq can collide with a write's. Without the digest
	// check an Inform for a fallback-ordered read could complete the write
	// waiter that happens to share its number.
	if ok && w.digest == m.Digest {
		defer c.mu.Unlock()
		if c.cfg.CertAccept != nil && c.cfg.CertAccept(m) {
			c.finish(w, types.Result{Client: c.cfg.ID, Seq: m.ClientSeq, Values: m.Values})
			return
		}
		votes, ok := w.tally[key]
		if !ok {
			votes = make(map[types.ReplicaID]bool)
			w.tally[key] = votes
			w.res[key] = types.Result{Client: c.cfg.ID, Seq: m.ClientSeq, Values: m.Values}
		}
		votes[from] = true
		if len(votes) >= c.cfg.Quorum {
			c.finish(w, w.res[key])
		}
		return
	}
	c.mu.Unlock()
	// No write in flight under this (seq, digest): a tiered read that fell
	// back to ordering comes home as ordinary Informs carrying the read
	// request's digest. Tally those against the digest-keyed read waiters.
	c.tallyReadInform(from, m, key)
}

func (c *Client) finish(w *waiter, res types.Result) {
	select {
	case w.ch <- res:
	default:
	}
}

// --- hybrid-consistency read path ---

// ErrNotReadOnly is returned when a tiered read contains write operations.
var ErrNotReadOnly = errors.New("client: tiered read contains non-read ops")

// Read issues a read-only transaction at the requested consistency tier.
//
//   - ConsistencyOrdered runs the read through full consensus like any
//     write — the baseline tier, and the only one with full BFT guarantees.
//   - ConsistencyStrong is served locally by the primary while it holds a
//     quorum-granted read lease; without one it degrades to Ordered.
//   - ConsistencySpeculative is served by any single replica from its
//     executed prefix; the answer may be repaired later if a view change
//     rolls that prefix back (see OnRepair).
func (c *Client) Read(ctx context.Context, ops []types.Op, tier types.Consistency) (ReadAnswer, error) {
	txn := types.Transaction{
		Client:      c.cfg.ID,
		Ops:         ops,
		TimeNanos:   time.Now().UnixNano(),
		Consistency: tier,
	}
	if tier == types.ConsistencyOrdered {
		// Ordered reads are ordinary transactions: write sequence space,
		// normal dedup, Inform quorum.
		txn.Seq = c.NextSeq()
		res, err := c.SubmitTxn(ctx, txn)
		return ReadAnswer{Result: res, Tier: types.ConsistencyOrdered, Fallback: true}, err
	}
	txn.Seq = c.NextReadSeq()
	return c.ReadTxn(ctx, txn)
}

// ReadTxn is Read for a pre-built transaction (the workload generator
// produces these). The transaction must be read-only with a non-Ordered
// consistency tier and a sequence number fresh in the read space.
func (c *Client) ReadTxn(ctx context.Context, txn types.Transaction) (ReadAnswer, error) {
	if txn.Client != c.cfg.ID {
		return ReadAnswer{}, fmt.Errorf("client: transaction for %d submitted via client %d", txn.Client, c.cfg.ID)
	}
	if !txn.ReadOnly() || txn.Consistency == types.ConsistencyOrdered {
		return ReadAnswer{}, ErrNotReadOnly
	}
	req := c.Sign(txn)
	d := req.Digest()
	w := &readWaiter{
		ch:    make(chan ReadAnswer, 1),
		tally: make(map[protocol.ReplyKey]map[types.ReplicaID]bool),
	}
	c.readMu.Lock()
	c.readWaiters[d] = w
	c.readMu.Unlock()
	defer func() {
		c.readMu.Lock()
		delete(c.readWaiters, d)
		c.readMu.Unlock()
	}()

	c.net.Send(c.readTarget(txn.Consistency), &protocol.ReadRequest{Req: req})
	backoff := c.cfg.Timeout
	timer := time.NewTimer(c.retryWait(backoff, txn.Seq, 0))
	defer timer.Stop()
	for attempt := 1; ; attempt++ {
		select {
		case <-ctx.Done():
			return ReadAnswer{}, ctx.Err()
		case <-c.done:
			return ReadAnswer{}, ErrClosed
		case ans := <-w.ch:
			return ans, nil
		case <-timer.C:
			// Retries broadcast: every replica can serve a speculative
			// read, and a strong read reaching a backup is forwarded to
			// the primary (or falls back into ordering), so flooding is
			// the fastest way out of a stale view hint.
			network.Broadcast(c.net, c.cfg.N, &protocol.ReadRequest{Req: req}, false)
			if backoff < c.cfg.MaxRetryInterval {
				backoff *= 2
				if backoff > c.cfg.MaxRetryInterval {
					backoff = c.cfg.MaxRetryInterval
				}
			}
			timer.Reset(c.retryWait(backoff, txn.Seq, attempt))
		}
	}
}

// readTarget picks the first-attempt destination: STRONG reads go to the
// presumed primary (only the lease holder may serve them locally), while
// SPECULATIVE reads round-robin across the backups so the primary's
// ordering pipeline never sees them.
func (c *Client) readTarget(tier types.Consistency) types.NodeID {
	if tier == types.ConsistencyStrong {
		return c.primaryNode()
	}
	v := types.View(c.viewHint.Load())
	primary := v.Primary(c.cfg.N)
	id := types.ReplicaID(c.readRR.Add(1) % uint64(c.cfg.N))
	if id == primary {
		id = types.ReplicaID((uint64(id) + 1) % uint64(c.cfg.N))
	}
	return types.ReplicaNode(id)
}

// onReadReply completes a tiered read answered locally by a replica. A
// single MAC-verified reply suffices: the tiers deliberately trade the
// inform quorum for latency — SPECULATIVE trusts one replica's executed
// prefix (repairable), STRONG trusts the lease holder.
func (c *Client) onReadReply(from types.ReplicaID, m *protocol.ReadReply) {
	if m.From != from {
		return
	}
	if c.cfg.VerifyReplyMAC {
		p := m.Payload()
		if !c.keys.CheckMAC(types.ReplicaNode(from), p[:], m.Tag) {
			return
		}
	}
	for {
		cur := c.viewHint.Load()
		if uint64(m.View) <= cur || c.viewHint.CompareAndSwap(cur, uint64(m.View)) {
			break
		}
	}
	ans := ReadAnswer{
		Result:      types.Result{Client: c.cfg.ID, Seq: m.ClientSeq, Values: m.Values},
		Tier:        m.Tier,
		From:        from,
		ExecSeq:     m.ExecSeq,
		StateDigest: m.StateDigest,
		Repaired:    m.Repaired,
	}
	// Repairs are surfaced even when the original call already returned:
	// the first answer was served from a prefix a view change rolled back,
	// and this reply carries the repaired value.
	if m.Repaired && c.OnRepair != nil {
		c.OnRepair(ans)
	}
	c.readMu.Lock()
	w, ok := c.readWaiters[m.Digest]
	c.readMu.Unlock()
	if ok {
		select {
		case w.ch <- ans:
		default:
		}
	}
}

// tallyReadInform completes a tiered read that a replica pushed through the
// ordering pipeline instead of serving locally (a strong read without a
// lease, or any read reaching a protocol without local-serve support). The
// answer arrives as ordinary Informs matched by request digest; the usual
// quorum / certificate acceptance rules apply.
func (c *Client) tallyReadInform(from types.ReplicaID, m *protocol.Inform, key protocol.ReplyKey) {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	w, ok := c.readWaiters[m.Digest]
	if !ok {
		return
	}
	ans := ReadAnswer{
		Result:   types.Result{Client: c.cfg.ID, Seq: m.ClientSeq, Values: m.Values},
		Tier:     types.ConsistencyOrdered,
		From:     from,
		ExecSeq:  m.Seq,
		Fallback: true,
	}
	if c.cfg.CertAccept != nil && c.cfg.CertAccept(m) {
		select {
		case w.ch <- ans:
		default:
		}
		return
	}
	votes, ok := w.tally[key]
	if !ok {
		votes = make(map[types.ReplicaID]bool)
		w.tally[key] = votes
	}
	votes[from] = true
	if len(votes) >= c.cfg.Quorum {
		select {
		case w.ch <- ans:
		default:
		}
	}
}
