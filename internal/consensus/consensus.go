// Package consensus is the protocol table: for each of the paper's five
// protocols it states, once, the replica constructor, the client's reply
// rule and the default authentication scheme. Every other package that
// builds a cluster (the public facade, the harness, poeserver) asks the table
// instead of switching on the protocol's name.
package consensus

import (
	"context"
	"fmt"

	"github.com/poexec/poe/internal/client"
	"github.com/poexec/poe/internal/consensus/hotstuff"
	"github.com/poexec/poe/internal/consensus/pbft"
	"github.com/poexec/poe/internal/consensus/poe"
	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/consensus/sbft"
	"github.com/poexec/poe/internal/consensus/zyzzyva"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/types"
)

// Protocol names a consensus protocol.
type Protocol string

// The five protocols of the paper.
const (
	PoE      Protocol = "poe"
	PBFT     Protocol = "pbft"
	Zyzzyva  Protocol = "zyzzyva"
	SBFT     Protocol = "sbft"
	HotStuff Protocol = "hotstuff"
)

// Replica is a running replica of any protocol.
type Replica interface {
	Run(ctx context.Context)
	Runtime() *protocol.Runtime
}

// Client is a client of any protocol.
type Client interface {
	Start(ctx context.Context)
	NextSeq() uint64
	SubmitTxn(ctx context.Context, txn types.Transaction) (types.Result, error)
}

// entry is one protocol's row of the table.
type entry struct {
	replica func(protocol.Config, *crypto.KeyRing, network.Transport, protocol.Options) (Replica, error)
	// client builds the client with the protocol's reply rule.
	client func(client.Config, *crypto.KeyRing, network.Transport) (Client, error)
	// scheme is the paper's authentication configuration (§IV-A) below 16
	// replicas and, second, from 16 on.
	scheme [2]crypto.Scheme
}

var table = map[Protocol]entry{
	// nf identical replies, the proof of execution. Ingredient I3: MACs
	// below 16 replicas, threshold signatures from there on.
	PoE: {
		replica: replica(poe.New),
		client:  rule(func(c client.Config, _ *crypto.KeyRing) client.Rule { return client.Quorum(c.N - c.F) }),
		scheme:  [2]crypto.Scheme{crypto.SchemeMAC, crypto.SchemeTS},
	},
	// f+1 identical replies; MACs between replicas.
	PBFT: {
		replica: replica(pbft.New),
		client:  rule(func(c client.Config, _ *crypto.KeyRing) client.Rule { return client.Quorum(c.F + 1) }),
		scheme:  [2]crypto.Scheme{crypto.SchemeMAC, crypto.SchemeMAC},
	},
	// The speculative rule: all n matching responses, else a commit
	// certificate and nf LOCAL-COMMITs. MACs between replicas.
	Zyzzyva: {
		replica: replica(zyzzyva.New),
		client: func(c client.Config, r *crypto.KeyRing, t network.Transport) (Client, error) {
			return zyzzyva.NewClient(c, r, t)
		},
		scheme: [2]crypto.Scheme{crypto.SchemeMAC, crypto.SchemeMAC},
	},
	// One reply carrying the executor's certificate; threshold signatures.
	SBFT: {
		replica: replica(sbft.New),
		client: rule(func(c client.Config, r *crypto.KeyRing) client.Rule {
			return client.Certified(sbft.CertifiedReply(r, c.N-c.F, c.Scheme))
		}),
		scheme: [2]crypto.Scheme{crypto.SchemeTS, crypto.SchemeTS},
	},
	// f+1 identical replies, requests sent to every replica: any of them
	// may be the next leader. Threshold signatures.
	HotStuff: {
		replica: replica(hotstuff.New),
		client:  rule(func(c client.Config, _ *crypto.KeyRing) client.Rule { return client.Broadcast(c.F + 1) }),
		scheme:  [2]crypto.Scheme{crypto.SchemeTS, crypto.SchemeTS},
	},
}

// replica adapts a protocol package's constructor to the table.
func replica[R Replica](build func(protocol.Config, *crypto.KeyRing, network.Transport, protocol.Options) (R, error)) func(protocol.Config, *crypto.KeyRing, network.Transport, protocol.Options) (Replica, error) {
	return func(c protocol.Config, ring *crypto.KeyRing, t network.Transport, o protocol.Options) (Replica, error) {
		r, err := build(c, ring, t, o)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
}

// rule builds the shared client core under the reply rule r returns.
func rule(r func(client.Config, *crypto.KeyRing) client.Rule) func(client.Config, *crypto.KeyRing, network.Transport) (Client, error) {
	return func(c client.Config, ring *crypto.KeyRing, t network.Transport) (Client, error) {
		c.Rule = r(c, ring)
		return client.New(c, ring, t)
	}
}

func lookup(p Protocol) (entry, error) {
	e, ok := table[p]
	if !ok {
		return entry{}, fmt.Errorf("consensus: unknown protocol %q", p)
	}
	return e, nil
}

// NewReplica builds one replica of protocol p.
func NewReplica(p Protocol, cfg protocol.Config, ring *crypto.KeyRing, tr network.Transport, opts protocol.Options) (Replica, error) {
	e, err := lookup(p)
	if err != nil {
		return nil, err
	}
	return e.replica(cfg, ring, tr, opts)
}

// NewClient builds a client of protocol p under its reply rule; cfg.Rule is
// replaced. The client is not started.
func NewClient(p Protocol, cfg client.Config, ring *crypto.KeyRing, tr network.Transport) (Client, error) {
	e, err := lookup(p)
	if err != nil {
		return nil, err
	}
	return e.client(cfg, ring, tr)
}

// DefaultScheme returns protocol p's authentication scheme at n replicas:
// MACs for PBFT and Zyzzyva, threshold signatures for SBFT and HotStuff,
// and for PoE MACs below 16 replicas and threshold signatures from 16 on.
// An unknown protocol gets MACs; building it fails.
func DefaultScheme(p Protocol, n int) crypto.Scheme {
	e, ok := table[p]
	if !ok {
		return crypto.SchemeMAC
	}
	if n >= 16 {
		return e.scheme[1]
	}
	return e.scheme[0]
}
