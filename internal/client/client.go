// Package client implements the client role of the protocols (Fig 3,
// Client-role): sign a transaction, send it to the primary, collect
// identical INFORM messages from a protocol-specific number of distinct
// replicas, and — if no timely response arrives — broadcast the request to
// all replicas so they can forward it to the primary and start their
// failure-detection timers (§II-B).
//
// One core serves every protocol: transport, read loop, waiters, view hint,
// announcement and retransmission schedule. A protocol states only its reply
// rule (Rule): PoE clients need nf identical replies (the proof of
// execution), PBFT clients f+1, HotStuff clients f+1 with requests sent to
// every replica, SBFT clients one reply carrying a valid threshold
// certificate, and Zyzzyva's speculative rule is a Custom tally in the
// zyzzyva package.
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
	// with Ed25519 except under SchemeNone (§IV-C), add per-replica MAC tags
	// when replicas authenticate by MAC (protocol.SignRequest), and check
	// the MAC on every reply unless the scheme is SchemeNone.
	Scheme crypto.Scheme
	// Rule is the protocol's reply rule; the zero Rule is PoE's.
	Rule Rule
	// Timeout bounds how long a write waits for its reply rule before the
	// client broadcasts it to all replicas (paper: clients use coarse
	// timeouts; §IV-D discusses the consequences). Once the client has
	// measured its own reply latency it broadcasts sooner (protocol.RTO);
	// tiered reads and Custom rules always wait Timeout.
	Timeout time.Duration
}

// maxBackoff caps the retransmission backoff at maxBackoff×Timeout. Retries
// double the first wait — with ±25% jitter so a fleet of clients that timed
// out together does not re-broadcast in lockstep — up to this cap.
const maxBackoff = 8

// Rule is a protocol's client reply rule: when the replies to a request
// complete it, and where its first attempt goes. The zero Rule is PoE's: nf
// identical replies, the first attempt to the presumed primary.
type Rule struct {
	quorum    int                           // identical replies from distinct replicas; 0 means nf
	certified func(m *protocol.Inform) bool // accepts one reply on its own
	broadcast bool                          // first attempts go to every replica
	open      func(req types.Request) Tally // a protocol's own tally of each write
}

// Quorum completes a request on q identical replies from distinct replicas:
// nf for PoE's proof of execution, f+1 for PBFT.
func Quorum(q int) Rule { return Rule{quorum: q} }

// Broadcast is Quorum(q) with every first attempt sent to all replicas:
// under a rotating leader (HotStuff) any of them may propose it.
func Broadcast(q int) Rule { return Rule{quorum: q, broadcast: true} }

// Certified completes a request on one reply that accept passes (SBFT's
// threshold-certified execute-ack).
func Certified(accept func(m *protocol.Inform) bool) Rule { return Rule{certified: accept} }

// Custom hands every reply to a write, and every timed-out attempt, to the
// Tally open returns (Zyzzyva's speculative rule). Its writes wait the full
// Timeout before the first retransmission, and between later ones too,
// without backing off: each expiry is a step of the protocol (the slow path
// sends its commit certificate on one), not a suspicion of the primary that
// reply latencies could teach. Reads keep the nf rule.
func Custom(open func(req types.Request) Tally) Rule { return Rule{open: open} }

// Tally is one write's reply state under a Custom rule. The client calls it
// under its lock, so it must not block.
type Tally interface {
	// Add folds in a reply from replica from — an Inform whose MAC checked,
	// or a Reply, which the tally authenticates itself — and returns the
	// write's result once the rule is met.
	Add(from types.ReplicaID, m any) (types.Result, bool)
	// Expired returns what a timed-out attempt broadcasts; nil means the
	// request again.
	Expired() any
}

// Reply is a protocol message other than an Inform that answers one write
// (Zyzzyva's LOCAL-COMMIT). The client hands it to the Tally of the write
// with that client-local sequence number.
type Reply interface{ ForWrite() uint64 }

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

	// rto times the first retransmission of a write. Only writes answered
	// on their first attempt are sampled (Karn's rule): a retransmitted
	// write's reply cannot be matched to one attempt, and a view change
	// would otherwise teach the client to wait out view changes.
	rto protocol.RTO

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
	votes  votes
	custom Tally // the Custom rule's tally; nil under the built-in rules
}

// votes counts identical replies by the distinct replicas that sent them.
type votes map[protocol.ReplyKey]map[types.ReplicaID]bool

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
	votes votes
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
	if cfg.Rule.quorum == 0 {
		cfg.Rule.quorum = cfg.N - cfg.F
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 500 * time.Millisecond
	}
	return &Client{
		cfg:         cfg,
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

// NextSeq allocates the next client-local sequence number.
func (c *Client) NextSeq() uint64 { return c.nextSeq.Add(1) }

// NextReadSeq allocates the next sequence number in the tiered-read space.
func (c *Client) NextReadSeq() uint64 { return c.nextReadSeq.Add(1) }

// ErrClosed is returned when the client's transport closed mid-request.
var ErrClosed = errors.New("client: transport closed")

// Submit signs ops as a transaction and drives it to completion: it returns
// once the replies meet the client's Rule. Submit retransmits on timeout — first to the presumed primary, then by
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
	req := protocol.SignRequest(c.keys, c.cfg.Scheme, c.cfg.N, txn)
	w := &waiter{
		digest: req.Digest(),
		ch:     make(chan types.Result, 1),
		votes:  make(votes),
	}
	backoff := c.rto.Wait(c.cfg.Timeout)
	if c.cfg.Rule.open != nil {
		w.custom = c.cfg.Rule.open(req)
		backoff = c.cfg.Timeout
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
	if c.cfg.Rule.broadcast {
		network.Broadcast(c.net, c.cfg.N, &protocol.ClientRequest{Req: req}, false)
	} else {
		c.net.Send(c.primaryNode(), &protocol.ClientRequest{Req: req})
	}
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
				c.rto.Sample(time.Since(sent))
			}
			return res, nil
		case <-timer.C:
			// §II-B: on timeout, broadcast so replicas forward to the
			// primary and arm their failure detectors.
			network.Broadcast(c.net, c.cfg.N, c.expired(w, req), false)
			if w.custom == nil {
				backoff = c.backoff(backoff)
			}
			timer.Reset(c.retryWait(backoff, txn.Seq, attempt))
		}
	}
}

// expired returns what a timed-out attempt of write w broadcasts: the
// request, unless a Custom rule's tally has something else to send.
func (c *Client) expired(w *waiter, req types.Request) any {
	if w.custom != nil {
		c.mu.Lock()
		m := w.custom.Expired()
		c.mu.Unlock()
		if m != nil {
			return m
		}
	}
	return &protocol.ClientRequest{Req: req}
}

// backoff doubles a retransmission interval up to maxBackoff×Timeout: during
// a view change (or while this client is partitioned) constant-rate
// re-broadcasts from the whole closed-loop fleet only add load to the
// recovery.
func (c *Client) backoff(d time.Duration) time.Duration {
	return min(2*d, maxBackoff*c.cfg.Timeout)
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
			case Reply:
				c.onReply(env.From.Replica(), m)
			}
		}
	}
}

func (c *Client) onInform(from types.ReplicaID, m *protocol.Inform) {
	if m.From != from {
		return
	}
	key := m.Key()
	if c.cfg.Scheme != crypto.SchemeNone && !c.keys.CheckMAC(types.ReplicaNode(from), key.Digest[:], m.Tag) {
		return
	}
	c.noteView(m.View)
	c.mu.Lock()
	w, ok := c.waiters[m.ClientSeq]
	// The digest must match: tiered reads run in their own sequence space,
	// so a read's client-seq can collide with a write's. Without the digest
	// check an Inform for a fallback-ordered read could complete the write
	// waiter that happens to share its number.
	if ok && w.digest == m.Digest {
		defer c.mu.Unlock()
		if w.custom != nil {
			if res, done := w.custom.Add(from, m); done {
				c.finish(w, res)
			}
		} else if c.accept(w.votes, from, m, key) {
			c.finish(w, types.Result{Client: c.cfg.ID, Seq: m.ClientSeq, Values: m.Values})
		}
		return
	}
	c.mu.Unlock()
	// No write in flight under this (seq, digest): a tiered read that fell
	// back to ordering comes home as ordinary Informs carrying the read
	// request's digest. Tally those against the digest-keyed read waiters.
	c.tallyReadInform(from, m, key)
}

// accept folds a MAC-checked Inform into a request's votes under the
// built-in rule and reports whether the rule is met. Matching replies carry
// equal values (key binds their hash), so the completing reply's result is
// the request's.
func (c *Client) accept(v votes, from types.ReplicaID, m *protocol.Inform, key protocol.ReplyKey) bool {
	if c.cfg.Rule.certified != nil {
		return c.cfg.Rule.certified(m)
	}
	senders, ok := v[key]
	if !ok {
		senders = make(map[types.ReplicaID]bool)
		v[key] = senders
	}
	senders[from] = true
	return len(senders) >= c.cfg.Rule.quorum
}

// onReply hands a protocol's own reply to the Custom tally of its write.
func (c *Client) onReply(from types.ReplicaID, m Reply) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.waiters[m.ForWrite()]; ok && w.custom != nil {
		if res, done := w.custom.Add(from, m); done {
			c.finish(w, res)
		}
	}
}

// noteView tracks the latest view seen in a reply, so retransmissions reach
// the current primary.
func (c *Client) noteView(v types.View) {
	for {
		cur := c.viewHint.Load()
		if uint64(v) <= cur || c.viewHint.CompareAndSwap(cur, uint64(v)) {
			return
		}
	}
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
	req := protocol.SignRequest(c.keys, c.cfg.Scheme, c.cfg.N, txn)
	d := req.Digest()
	w := &readWaiter{
		ch:    make(chan ReadAnswer, 1),
		votes: make(votes),
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
			backoff = c.backoff(backoff)
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
	if c.cfg.Scheme != crypto.SchemeNone {
		p := m.Payload()
		if !c.keys.CheckMAC(types.ReplicaNode(from), p[:], m.Tag) {
			return
		}
	}
	c.noteView(m.View)
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
// answer arrives as ordinary Informs matched by request digest; the
// built-in reply rule applies.
func (c *Client) tallyReadInform(from types.ReplicaID, m *protocol.Inform, key protocol.ReplyKey) {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	w, ok := c.readWaiters[m.Digest]
	if !ok || !c.accept(w.votes, from, m, key) {
		return
	}
	select {
	case w.ch <- ReadAnswer{
		Result:   types.Result{Client: c.cfg.ID, Seq: m.ClientSeq, Values: m.Values},
		Tier:     types.ConsistencyOrdered,
		From:     from,
		ExecSeq:  m.Seq,
		Fallback: true,
	}:
	default:
	}
}
