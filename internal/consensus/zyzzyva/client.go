package zyzzyva

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

// ClientConfig parameterizes a Zyzzyva client.
type ClientConfig struct {
	ID     types.ClientID
	N, F   int
	Scheme crypto.Scheme
	// SpecTimeout is how long the client waits for all n matching
	// speculative responses before falling back to the commit phase. This
	// is the timeout whose calibration §IV-D discusses (the paper uses 3 s).
	SpecTimeout time.Duration
	// RetryTimeout is how long to wait in the commit phase before
	// retransmitting.
	RetryTimeout time.Duration
}

// Client implements Zyzzyva's client role, which actively participates in
// the protocol: the client is the fast path's only completion point (all n
// matching speculative responses) and drives the slow path by assembling and
// distributing commit certificates. The paper's ingredient I2 discussion
// contrasts this reliance on clients with PoE's design.
type Client struct {
	cfg  ClientConfig
	keys *crypto.NodeKeys
	net  network.Transport

	nextSeq  atomic.Uint64
	viewHint atomic.Uint64

	mu      sync.Mutex
	waiters map[uint64]*specWaiter

	started sync.Once
	done    chan struct{}
}

type specWaiter struct {
	full   chan types.Result                            // all n matched
	slow   chan types.Result                            // commit phase completed
	tally  map[specKey]map[types.ReplicaID]crypto.Share // speculative responses
	result map[specKey]types.Result
	lcFrom map[types.ReplicaID]bool // local-commit senders
	lcNeed int
	lcDone bool
}

type specKey struct {
	Digest    types.Digest
	Seq       types.SeqNum
	History   types.Digest
	ValueHash types.Digest
}

// NewClient creates a Zyzzyva client.
func NewClient(cfg ClientConfig, ring *crypto.KeyRing, net network.Transport) (*Client, error) {
	if cfg.N <= 3*cfg.F {
		return nil, fmt.Errorf("zyzzyva: need n > 3f, got n=%d f=%d", cfg.N, cfg.F)
	}
	if cfg.SpecTimeout == 0 {
		cfg.SpecTimeout = 500 * time.Millisecond
	}
	if cfg.RetryTimeout == 0 {
		cfg.RetryTimeout = cfg.SpecTimeout
	}
	return &Client{
		cfg:     cfg,
		keys:    ring.NodeKeys(types.ClientNode(cfg.ID)),
		net:     net,
		waiters: make(map[uint64]*specWaiter),
		done:    make(chan struct{}),
	}, nil
}

// Start launches the response-processing goroutine and announces the client
// to every replica (see client.Client.Start); idempotent.
func (c *Client) Start(ctx context.Context) {
	c.started.Do(func() {
		go c.readLoop(ctx)
		network.Announce(c.net, c.cfg.N)
	})
}

// NextSeq allocates a client-local sequence number.
func (c *Client) NextSeq() uint64 { return c.nextSeq.Add(1) }

// ErrClosed mirrors client.ErrClosed.
var ErrClosed = errors.New("zyzzyva: transport closed")

// Submit drives one transaction to completion through the fast or slow path.
func (c *Client) Submit(ctx context.Context, ops []types.Op) (types.Result, error) {
	txn := types.Transaction{Client: c.cfg.ID, Seq: c.NextSeq(), Ops: ops, TimeNanos: time.Now().UnixNano()}
	return c.SubmitTxn(ctx, txn)
}

// SubmitTxn submits a pre-built transaction.
func (c *Client) SubmitTxn(ctx context.Context, txn types.Transaction) (types.Result, error) {
	req := protocol.SignRequest(c.keys, c.cfg.Scheme, c.cfg.N, txn)
	w := &specWaiter{
		full:   make(chan types.Result, 1),
		slow:   make(chan types.Result, 1),
		tally:  make(map[specKey]map[types.ReplicaID]crypto.Share),
		result: make(map[specKey]types.Result),
		lcFrom: make(map[types.ReplicaID]bool),
		lcNeed: c.cfg.N - c.cfg.F,
	}
	c.mu.Lock()
	c.waiters[txn.Seq] = w
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.waiters, txn.Seq)
		c.mu.Unlock()
	}()

	v := types.View(c.viewHint.Load())
	c.net.Send(types.ReplicaNode(v.Primary(c.cfg.N)), &protocol.ClientRequest{Req: req})

	timer := time.NewTimer(c.cfg.SpecTimeout)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return types.Result{}, ctx.Err()
		case <-c.done:
			return types.Result{}, ErrClosed
		case res := <-w.full:
			return res, nil
		case res := <-w.slow:
			return res, nil
		case <-timer.C:
			// The fast path expired. If some key has nf matching spec
			// responses, enter the commit phase; otherwise broadcast the
			// request so replicas forward it and arm failure detection.
			if !c.tryCommitPhase(txn.Seq) {
				network.Broadcast(c.net, c.cfg.N, &protocol.ClientRequest{Req: req}, false)
			}
			timer.Reset(c.cfg.RetryTimeout)
		}
	}
}

// tryCommitPhase sends a commit certificate if any response key reached nf
// matching speculative responses. It reports whether a certificate was sent.
func (c *Client) tryCommitPhase(clientSeq uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.waiters[clientSeq]
	if !ok {
		return false
	}
	for key, votes := range w.tally {
		if len(votes) < c.cfg.N-c.cfg.F {
			continue
		}
		shares := make([]crypto.Share, 0, len(votes))
		for _, sh := range votes {
			shares = append(shares, sh)
		}
		cr := &CommitReq{
			Client:    c.cfg.ID,
			ClientSeq: clientSeq,
			Seq:       key.Seq,
			History:   key.History,
			Shares:    shares,
		}
		network.Broadcast(c.net, c.cfg.N, cr, false)
		return true
	}
	return false
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
			case *LocalCommit:
				c.onLocalCommit(m)
			}
		}
	}
}

func (c *Client) onInform(from types.ReplicaID, m *protocol.Inform) {
	if m.From != from || !m.Speculative {
		return
	}
	rk := m.Key()
	if c.cfg.Scheme != crypto.SchemeNone && !c.keys.CheckMAC(types.ReplicaNode(from), rk.Digest[:], m.Tag) {
		return
	}
	for {
		cur := c.viewHint.Load()
		if uint64(m.View) <= cur || c.viewHint.CompareAndSwap(cur, uint64(m.View)) {
			break
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.waiters[m.ClientSeq]
	if !ok {
		return
	}
	// Responses are grouped by (txn digest, seq, history, value hash); the
	// history digest alone is what the commit certificate proves, since it
	// transitively binds the whole ordered prefix.
	key := specKey{Digest: rk.Digest, Seq: m.Seq, History: m.OrderProof, ValueHash: rk.ValueHash}
	votes, okKey := w.tally[key]
	if !okKey {
		votes = make(map[types.ReplicaID]crypto.Share)
		w.tally[key] = votes
		w.result[key] = types.Result{Client: c.cfg.ID, Seq: m.ClientSeq, Values: m.Values}
	}
	votes[from] = m.Share
	if len(votes) >= c.cfg.N {
		select {
		case w.full <- w.result[key]:
		default:
		}
	}
}

func (c *Client) onLocalCommit(m *LocalCommit) {
	d := types.DigestConcat([]byte("zyz-lc"), types.U64(m.ClientSeq), types.U64(uint64(m.Seq)))
	if c.cfg.Scheme != crypto.SchemeNone && !c.keys.CheckMAC(types.ReplicaNode(m.From), d[:], m.Tag) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.waiters[m.ClientSeq]
	if !ok || w.lcDone {
		return
	}
	w.lcFrom[m.From] = true
	if len(w.lcFrom) >= w.lcNeed {
		w.lcDone = true
		// Deliver whichever tallied result reached nf speculative votes.
		for key, votes := range w.tally {
			if len(votes) >= c.cfg.N-c.cfg.F {
				select {
				case w.slow <- w.result[key]:
				default:
				}
				return
			}
		}
	}
}
