package harness

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/poexec/poe/internal/client"
	"github.com/poexec/poe/internal/consensus"
	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/store"
	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/workload"
)

// UpperBoundOptions configure the Fig 7 system-characterization run: no
// consensus, no replication — clients talk to a single primary that either
// just echoes (no execution) or executes each query before replying, with
// two parallel worker threads (the paper bounds the fabric at two workers).
type UpperBoundOptions struct {
	Execute bool
	Warmup  time.Duration
	Measure time.Duration
}

// The fixed shape of the upper-bound run: the paper's two workers, and a
// client pool deep enough to keep them busy.
const (
	upperBoundWorkers     = 2
	upperBoundClients     = 16
	upperBoundOutstanding = 16
	upperBoundRecords     = 4096
	upperBoundSeed        = 42
)

// RunUpperBound measures the fabric's no-consensus ceiling (Fig 7).
func RunUpperBound(opts UpperBoundOptions) (Result, error) {
	if opts.Warmup == 0 {
		opts.Warmup = 200 * time.Millisecond
	}
	if opts.Measure == 0 {
		opts.Measure = time.Second
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := network.NewChanNet()
	defer net.Close()
	ring := crypto.NewKeyRing(1, []byte("upper-bound"))

	wcfg := workload.DefaultConfig(upperBoundRecords)
	wcfg.Seed = upperBoundSeed
	kv := store.New()
	kv.Load(workload.InitialTable(wcfg))
	keys := ring.NodeKeys(types.ReplicaNode(0))

	// The "primary": workers drain the inbox and reply directly.
	tr := net.Join(types.ReplicaNode(0))
	var kvMu sync.Mutex
	var seq atomic.Uint64
	for w := 0; w < upperBoundWorkers; w++ {
		go func() {
			for {
				select {
				case <-ctx.Done():
					return
				case env, ok := <-tr.Inbox():
					if !ok {
						return
					}
					cr, ok := env.Msg.(*protocol.ClientRequest)
					if !ok {
						continue
					}
					txn := &cr.Req.Txn
					var values [][]byte
					if opts.Execute {
						kvMu.Lock()
						for _, op := range txn.Ops {
							switch op.Kind {
							case types.OpRead:
								v, _ := kv.Get(op.Key)
								values = append(values, v)
							case types.OpWrite:
								// Direct write, bypassing ordered Apply: no
								// ordering is maintained in this experiment
								// (per the paper's description of Fig 7).
								kv.Load(map[string][]byte{op.Key: op.Value})
								values = append(values, nil)
							}
						}
						kvMu.Unlock()
					}
					msg := &protocol.Inform{
						From:      0,
						Digest:    cr.Req.Digest(),
						Seq:       types.SeqNum(seq.Add(1)),
						ClientSeq: txn.Seq,
						Values:    values,
					}
					key := msg.Key()
					msg.Tag = keys.MAC(types.ClientNode(txn.Client), key.Digest[:])
					tr.Send(types.ClientNode(txn.Client), msg)
				}
			}
		}()
	}

	clients := make([]consensus.Client, upperBoundClients)
	for i := range clients {
		id := types.ClientID(types.ClientIDBase) + types.ClientID(i)
		cl, err := client.New(client.Config{
			ID: id, N: 1, F: 0, Scheme: crypto.SchemeNone,
			Timeout: time.Second,
		}, ring, net.Join(types.ClientNode(id)))
		if err != nil {
			return Result{}, err
		}
		cl.Start(ctx)
		clients[i] = cl
	}
	l := newLoad()
	l.run(ctx, clients, wcfg, upperBoundOutstanding, false, opts.Warmup)
	l.sleepUntil(opts.Measure)
	l.closeWindow()
	cancel()
	net.Close()
	l.wg.Wait()
	return l.measured("none", 1, 0), nil
}
