package zyzzyva

import (
	"context"

	"github.com/poexec/poe/internal/client"
	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/types"
)

// Client implements Zyzzyva's client role, which actively participates in
// the protocol: the client is the fast path's only completion point (all n
// matching speculative responses) and drives the slow path by assembling and
// distributing commit certificates. The paper's ingredient I2 discussion
// contrasts this reliance on clients with PoE's design.
//
// It is the shared client core under Zyzzyva's reply rule (tally), less the
// tiered reads: a caller orders its reads like any write.
type Client struct{ core }

// core is the part of client.Client that Client offers.
type core interface {
	Start(ctx context.Context)
	NextSeq() uint64
	Submit(ctx context.Context, ops []types.Op) (types.Result, error)
	SubmitTxn(ctx context.Context, txn types.Transaction) (types.Result, error)
}

// NewClient creates a Zyzzyva client. cfg.Timeout is how long a write waits
// for all n matching speculative responses before the commit phase — the
// timeout whose calibration §IV-D discusses (the paper uses 3 s); cfg.Rule
// is replaced by Zyzzyva's.
func NewClient(cfg client.Config, ring *crypto.KeyRing, net network.Transport) (*Client, error) {
	keys := ring.NodeKeys(types.ClientNode(cfg.ID))
	cfg.Rule = client.Custom(func(types.Request) client.Tally {
		return &tally{
			keys: keys, scheme: cfg.Scheme, n: cfg.N, nf: cfg.N - cfg.F, client: cfg.ID,
			spec:    make(map[specKey]*spec),
			commits: make(map[types.ReplicaID]bool),
		}
	})
	c, err := client.New(cfg, ring, net)
	if err != nil {
		return nil, err
	}
	return &Client{c}, nil
}

// tally is one write's speculative responses, grouped by what they claim,
// with each sender's share, and the LOCAL-COMMITs acknowledging its commit
// certificate.
type tally struct {
	keys   *crypto.NodeKeys
	scheme crypto.Scheme
	n, nf  int
	client types.ClientID

	spec    map[specKey]*spec
	cert    *spec // what the last commit certificate proved
	commits map[types.ReplicaID]bool
}

// spec is the speculative responses that match one key: their result and
// each sender's share.
type spec struct {
	res    types.Result
	shares map[types.ReplicaID]crypto.Share
}

// specKey groups speculative responses by (request, position, result,
// history); the history digest alone is what the commit certificate proves,
// since it transitively binds the whole ordered prefix.
type specKey struct {
	protocol.ReplyKey
	History types.Digest
}

// Add implements client.Tally: all n matching speculative responses
// complete the write (the fast path), and so do nf LOCAL-COMMITs for its
// commit certificate (the slow path).
func (t *tally) Add(from types.ReplicaID, msg any) (types.Result, bool) {
	switch m := msg.(type) {
	case *protocol.Inform:
		if !m.Speculative {
			return types.Result{}, false
		}
		k := specKey{m.Key(), m.OrderProof}
		sp, ok := t.spec[k]
		if !ok {
			sp = &spec{
				res:    types.Result{Client: t.client, Seq: m.ClientSeq, Values: m.Values},
				shares: make(map[types.ReplicaID]crypto.Share),
			}
			t.spec[k] = sp
		}
		sp.shares[from] = m.Share
		return sp.res, len(sp.shares) >= t.n
	case *LocalCommit:
		d := localCommitPayload(m.ClientSeq, m.Seq)
		if m.From != from || t.scheme != crypto.SchemeNone && !t.keys.CheckMAC(types.ReplicaNode(from), d[:], m.Tag) {
			return types.Result{}, false
		}
		t.commits[from] = true
		if len(t.commits) >= t.nf && t.cert != nil {
			return t.cert.res, true
		}
	}
	return types.Result{}, false
}

// Expired implements client.Tally: once the fast path has expired, a
// response that nf replicas match becomes a commit certificate; without one
// the request itself is broadcast, so replicas forward it and arm failure
// detection.
func (t *tally) Expired() any {
	for k, sp := range t.spec {
		if len(sp.shares) < t.nf {
			continue
		}
		t.cert = sp
		shares := make([]crypto.Share, 0, len(sp.shares))
		for _, sh := range sp.shares {
			shares = append(shares, sh)
		}
		return &CommitReq{Client: t.client, ClientSeq: k.ClientSeq, Seq: k.Seq, History: k.History, Shares: shares}
	}
	return nil
}
