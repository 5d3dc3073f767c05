package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/poexec/poe/internal/consensus/poe"
	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/deploy"
	"github.com/poexec/poe/internal/exec"
	"github.com/poexec/poe/internal/ledger"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/storage"
	"github.com/poexec/poe/internal/store"
	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/wire"
	"github.com/poexec/poe/internal/workload"
)

// The layer ledger times calls into each module's public functions, with
// inputs shaped like the workload's traffic: a batch of batchSize signed
// requests from the workload's generator. Nothing here runs while a cluster
// is being measured.

const batchSize = 100 // poeserver's default -batch

// timed calls op in rounds for about budget in all and returns the median
// over the rounds of the time one call took, in µs. A round's figure is a
// mean over its calls; the median over rounds drops the round a scheduler
// hiccup fell into.
func timed(budget time.Duration, op func()) float64 {
	const rounds = 5
	op() // fill caches and pools
	var perCall []float64
	for r := 0; r < rounds; r++ {
		calls := 0
		began := time.Now()
		for time.Since(began) < budget/rounds {
			op()
			calls++
		}
		perCall = append(perCall, float64(time.Since(began).Nanoseconds())/1e3/float64(calls))
	}
	return median(perCall)
}

// layerInputs is the workload-shaped material the timed calls share.
type layerInputs struct {
	ring    *crypto.KeyRing
	wcfg    workload.Config
	gens    []*workload.Generator // one per client of the batch
	batch   types.Batch           // batchSize signed requests, one per client
	propose *poe.Propose
	frame   []byte // the PROPOSE as a transport frame
}

func newLayerInputs(sp *spec, seed int64) *layerInputs {
	in := &layerInputs{ring: crypto.NewKeyRing(replicas, []byte(ringSeed)), wcfg: sp.workload(seed)}
	// Tiered reads never travel in a batch: the batch holds what the
	// workload orders.
	in.wcfg.SpeculativeFraction, in.wcfg.StrongFraction = 0, 0
	for i := 0; i < batchSize; i++ {
		in.gens = append(in.gens, workload.NewGenerator(in.wcfg, types.ClientIDBase+types.ClientID(i)))
	}
	in.batch = in.signedBatch(1)
	in.propose = &poe.Propose{View: 0, Seq: 1, Batch: in.batch.Clone(), Auth: make([][]byte, replicas)}
	primary := in.ring.NodeKeys(types.ReplicaNode(0))
	for i := 1; i < replicas; i++ {
		in.propose.Auth[i] = primary.MAC(types.ReplicaNode(types.ReplicaID(i)), in.propose.SignedPayload())
	}
	in.frame = wire.AppendFrame(nil, 0, in.propose)
	return in
}

// signedBatch returns batchSize signed requests, the next of each of
// batchSize clients, numbered round.
func (in *layerInputs) signedBatch(round uint64) types.Batch {
	var b types.Batch
	for _, gen := range in.gens {
		txn := gen.Next()
		txn.Seq = round
		req := types.Request{Txn: txn}
		d := req.Digest()
		req.Sig = in.ring.NodeKeys(types.ClientNode(txn.Client)).Sign(d[:])
		b.Requests = append(b.Requests, req)
	}
	return b
}

// fresh returns the batch as a replica first sees it after decoding: no
// digest memoized yet.
func (in *layerInputs) fresh() types.Batch {
	var b types.Batch
	b.Requests = make([]types.Request, len(in.batch.Requests))
	for i := range in.batch.Requests {
		b.Requests[i] = types.Request{Txn: in.batch.Requests[i].Txn, Sig: in.batch.Requests[i].Sig}
	}
	return b
}

// layerCosts are the timed calls' results, µs per call unless named
// otherwise.
type layerCosts struct {
	encodePropose, decodePropose   float64
	edSign, edVerify, mac          float64
	batchDigest                    float64
	applyBatch, runBatch           float64
	ledgerAppend                   float64
	appendSync, groupAppendPerRec  float64
	tcpRTT, tcpMsgCPU, tcpBcast    float64
	verifierReqsPerS, egressJobsPS float64
	workloadGen                    float64
	execOnlyTxnS                   float64
}

// measureLayers spends about budget on the timed calls.
func measureLayers(ctx context.Context, dir string, sp *spec, seed int64, budget time.Duration) (layerCosts, error) {
	in := newLayerInputs(sp, seed)
	slice := budget / 18 // 16 timed calls, the round trip takes two slices
	var c layerCosts
	var sink int

	// wire
	buf := make([]byte, 0, 2*len(in.frame))
	c.encodePropose = timed(slice, func() { buf = wire.AppendFrame(buf[:0], 0, in.propose) })
	c.decodePropose = timed(slice, func() {
		if _, _, err := wire.DecodeFrame(in.frame[4:]); err != nil {
			panic(err) // the frame was encoded three lines up
		}
	})

	// crypto
	clientNode := types.ClientNode(types.ClientIDBase)
	clientKeys := in.ring.NodeKeys(clientNode)
	replicaKeys := in.ring.NodeKeys(types.ReplicaNode(1))
	d := in.batch.Requests[0].Digest()
	sig := clientKeys.Sign(d[:])
	c.edSign = timed(slice, func() { sink += len(clientKeys.Sign(d[:])) })
	c.edVerify = timed(slice, func() {
		if !replicaKeys.VerifyFrom(clientNode, d[:], sig) {
			panic("own signature does not verify")
		}
	})
	c.mac = timed(slice, func() { sink += len(replicaKeys.MAC(clientNode, d[:])) })

	// types
	c.batchDigest = timed(slice, func() {
		b := in.fresh()
		sink += int(b.Digest()[0])
	})

	// store, exec, ledger
	kv := store.New()
	kv.Load(workload.InitialTable(in.wcfg))
	seq := types.SeqNum(0)
	c.applyBatch = timed(slice, func() {
		seq++
		if _, err := kv.Apply(seq, &in.batch); err != nil {
			panic(err)
		}
		if seq%128 == 0 {
			kv.Checkpoint(seq) // as the replicas do, so the undo log stays bounded
		}
	})
	engine := exec.New(0)
	c.runBatch = timed(slice, func() {
		res, _ := engine.Run(kv, []exec.Task{{Seq: seq + 1, Batch: &in.batch}})
		sink += len(res)
	})
	chain := ledger.NewChain(0)
	bd := in.batch.Digest()
	lseq := types.SeqNum(0)
	c.ledgerAppend = timed(slice, func() {
		lseq++
		if _, err := chain.Append(lseq, bd, 0, nil); err != nil {
			panic(err)
		}
		if lseq%128 == 0 {
			chain.MarkStable(lseq)
		}
	})

	// storage: one synced append per call, then group commit.
	st, err := storage.Open(filepath.Join(dir, "layers-wal"), storage.Options{Sync: true})
	if err != nil {
		return c, err
	}
	defer st.Close()
	wseq := types.SeqNum(0)
	var walErr error
	record := func() *types.ExecRecord {
		wseq++
		return &types.ExecRecord{Seq: wseq, Digest: bd, Batch: in.batch}
	}
	c.appendSync = timed(slice, func() {
		if err := st.Append(record()); err != nil {
			walErr = err
		}
	})
	const group = 32
	c.groupAppendPerRec = timed(slice, func() {
		for i := 0; i < group; i++ {
			st.AppendAsync(record(), nil)
		}
		if err := st.Flush(); err != nil {
			walErr = err
		}
	}) / group
	if walErr != nil {
		return c, fmt.Errorf("layer storage: %w", walErr)
	}

	// network
	if err := c.measureNetwork(in, slice); err != nil {
		return c, err
	}

	// protocol pipelines
	if c.verifierReqsPerS, err = verifierRate(ctx, in); err != nil {
		return c, err
	}
	c.egressJobsPS = egressRate(ctx, replicaKeys, d[:])

	// workload
	gen := workload.NewGenerator(in.wcfg, types.ClientIDBase)
	c.workloadGen = timed(slice, func() { sink += len(gen.Next().Ops) })

	// The baseline without replication (paper Fig 7): the executor alone,
	// store and ledger, fed decided batches.
	ex := protocol.NewExecutor(func() *store.KV {
		kv := store.New()
		kv.Load(workload.InitialTable(in.wcfg))
		return kv
	}(), ledger.NewChain(0))
	round := uint64(0)
	perBatch := timed(slice, func() {
		round++
		b := in.batch.Clone()
		for i := range b.Requests {
			b.Requests[i].Txn.Seq = round
		}
		if got := ex.Commit(types.SeqNum(round), 0, b, nil); len(got) != 1 {
			panic(fmt.Sprintf("executor ran %d batches for one decision", len(got)))
		}
		if round%128 == 0 {
			ex.MarkStable(types.SeqNum(round))
		}
	})
	c.execOnlyTxnS = batchSize / perBatch * 1e6
	_ = sink
	return c, nil
}

// measureNetwork times loopback TCP between TCPNets in this process: a
// small message there and back, what such a message costs in CPU, and a
// PROPOSE broadcast to three peers until all have it.
func (c *layerCosts) measureNetwork(in *layerInputs, slice time.Duration) error {
	addrs, err := deploy.FreePorts(replicas)
	if err != nil {
		return err
	}
	peers := make(map[types.NodeID]string, replicas)
	for i, a := range addrs {
		peers[types.ReplicaNode(types.ReplicaID(i))] = a
	}
	nets := make([]*network.TCPNet, replicas)
	for i := range nets {
		if nets[i], err = network.NewTCPNet(types.ReplicaNode(types.ReplicaID(i)), peers); err != nil {
			return err
		}
		defer nets[i].Close()
	}
	// Peers 1..3 echo a SUPPORT and acknowledge a PROPOSE with one.
	small := &poe.Support{View: 0, Seq: 1, Share: crypto.Share{Signer: 1, Data: make([]byte, 32)}}
	for i := 1; i < replicas; i++ {
		go func(n *network.TCPNet) {
			for env := range n.Inbox() {
				n.Send(env.From, small)
			}
		}(nets[i])
	}
	lost := false
	await := func(n int) {
		for ; n > 0 && !lost; n-- {
			select {
			case <-nets[0].Inbox():
			case <-time.After(5 * time.Second):
				lost = true
			}
		}
	}
	to := types.ReplicaNode(1)
	var before, after syscall.Rusage
	trips := 0
	syscall.Getrusage(syscall.RUSAGE_SELF, &before)
	c.tcpRTT = timed(2*slice, func() {
		nets[0].Send(to, small)
		await(1)
		trips++
	})
	syscall.Getrusage(syscall.RUSAGE_SELF, &after)
	cpu := (after.Utime.Nano() + after.Stime.Nano()) - (before.Utime.Nano() + before.Stime.Nano())
	c.tcpMsgCPU = float64(cpu) / 1e3 / float64(2*trips)

	tos := []types.NodeID{types.ReplicaNode(1), types.ReplicaNode(2), types.ReplicaNode(3)}
	c.tcpBcast = timed(slice, func() {
		nets[0].Broadcast(tos, in.propose)
		await(len(tos))
	})
	if lost {
		return fmt.Errorf("layer network: a loopback TCP message was not delivered")
	}
	return nil
}

// verifierRate pushes signed client requests, each seen for the first time,
// through the ingress authentication pipeline and returns requests per
// second.
func verifierRate(ctx context.Context, in *layerInputs) (float64, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	cn := network.NewChanNet()
	defer cn.Close()
	rt := protocol.NewRuntime(protocol.Config{ID: 0, N: replicas, F: 1, Scheme: crypto.SchemeMAC},
		in.ring, cn.Join(types.ReplicaNode(0)), protocol.RuntimeOptions{})
	v := protocol.NewVerifier(func(env *network.Envelope) bool {
		keep, _ := rt.VerifyCommonInbound(env)
		return keep
	}, 0)
	// Signing is the expensive part of making inputs: a few batches are
	// signed ahead, enough to keep the pipeline busy for the slice.
	var reqs []*protocol.ClientRequest
	for round := uint64(1); round <= 20; round++ {
		b := in.signedBatch(round)
		for i := range b.Requests {
			r := b.Requests[i]
			reqs = append(reqs, &protocol.ClientRequest{Req: types.Request{Txn: r.Txn, Sig: r.Sig}})
		}
	}
	inbox := make(chan network.Envelope, len(reqs))
	out := v.Pipe(ctx, inbox)
	began := time.Now()
	for _, r := range reqs {
		inbox <- network.Envelope{From: types.ClientNode(r.Req.Txn.Client), To: types.ReplicaNode(0), Msg: r, Owned: true}
	}
	for range reqs {
		select {
		case <-out:
		case <-time.After(10 * time.Second):
			return 0, fmt.Errorf("verifier dropped a valid request")
		}
	}
	return float64(len(reqs)) / time.Since(began).Seconds(), nil
}

// egressRate pushes jobs that authenticate a broadcast (one MAC per peer)
// through the egress signing pipeline and returns jobs per second.
func egressRate(ctx context.Context, keys *crypto.NodeKeys, payload []byte) float64 {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	eg := protocol.NewEgress(0, &protocol.Metrics{})
	eg.Start(ctx)
	var sent atomic.Int64
	const jobs = 20000
	began := time.Now()
	for i := 0; i < jobs; i++ {
		eg.Enqueue(func() {
			for p := 0; p < replicas-1; p++ {
				keys.MAC(types.ReplicaNode(types.ReplicaID(p)), payload)
			}
		}, func() { sent.Add(1) }, nil)
	}
	for sent.Load() < jobs && time.Since(began) < 10*time.Second {
		time.Sleep(100 * time.Microsecond)
	}
	return float64(sent.Load()) / time.Since(began).Seconds()
}

// budget estimates the replicas' CPU per transaction from the timed calls:
// each cost times how often one PoE decision of txnsPerBatch transactions,
// in MAC mode on four replicas, makes that call. orderedShare is the part of
// the requests that is ordered; the rest are tiered reads, each verified and
// answered by one replica.
func (c layerCosts) budget(txnsPerBatch, orderedShare float64, durable bool) float64 {
	if txnsPerBatch < 1 {
		txnsPerBatch = 1
	}
	perDecision := c.encodePropose + (replicas-1)*c.decodePropose + // PROPOSE marshalled once, decoded by each backup
		replicas*c.batchDigest + // every replica digests the batch
		(replicas-1)*c.mac + // PROPOSE authenticator
		2*replicas*(replicas-1)*c.mac + // SUPPORT all-to-all: made and checked
		(replicas-1+replicas*(replicas-1))*c.tcpMsgCPU + // PROPOSE and SUPPORT deliveries
		replicas*(c.applyBatch+c.ledgerAppend)*txnsPerBatch/batchSize // timed on full batches
	if durable {
		perDecision += replicas * c.groupAppendPerRec
	}
	perOrdered := replicas*c.edVerify + // every replica checks the client's signature
		replicas*c.mac + // every replica's INFORM
		(1+replicas)*c.tcpMsgCPU + // the request in, the INFORMs out
		perDecision/txnsPerBatch
	perRead := c.edVerify + c.mac + 2*c.tcpMsgCPU
	return orderedShare*perOrdered + (1-orderedShare)*perRead
}
