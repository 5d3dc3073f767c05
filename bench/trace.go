package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"github.com/poexec/poe/internal/client"
	"github.com/poexec/poe/internal/consensus/poe"
	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/deploy"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/storage"
	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/wire"
)

// The traced run puts the four replicas and the clients into this process
// and wraps every node's Transport, so that each message is stamped, on one
// clock, where it enters and leaves a node. Nothing inside the program is
// instrumented: a span starts and ends at a transport boundary, and what a
// node does between two of them (verify, linger, sign, execute, WAL wait) is
// that span's self time. Spans are kept in memory and analysed at the end.

type msgKind uint8

const (
	kindOther msgKind = iota
	kindRequest
	kindPropose
	kindSupport
	kindInform
	kindRead
	kindReadReply
)

// spanKey joins the events of one span: (client, client seq) for what a
// client sends and receives, (view, seq) for what replicas exchange.
type spanKey struct{ a, b uint64 }

type event struct {
	at     time.Duration // since the tracer's origin
	node   types.NodeID  // the node whose transport saw it
	peer   types.NodeID  // recv: the sender; send: the (first) destination
	send   bool
	kind   msgKind
	key    spanKey
	seq    types.SeqNum // Inform: the decision that executed the request
	size   int          // send: encoded body bytes
	fanout int          // send: number of destinations
}

// proposal is where a request was put into a PROPOSE.
type proposal struct {
	at   time.Duration
	slot spanKey
}

type tracer struct {
	origin time.Time

	mu        sync.Mutex
	events    []event
	proposed  map[spanKey]proposal      // request → the PROPOSE that carried it
	submitted map[spanKey]time.Duration // request → when the client was asked to submit it
	took      map[spanKey]float64       // request → ms it took in SubmitTxn
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), proposed: make(map[spanKey]proposal), submitted: make(map[spanKey]time.Duration), took: make(map[spanKey]float64)}
}

// stamp records one message at node's transport boundary.
func (tr *tracer) stamp(node, peer types.NodeID, send bool, fanout int, msg any) {
	ev := event{at: time.Since(tr.origin), node: node, peer: peer, send: send, fanout: fanout}
	// A client's span is keyed by the client, which is the node itself for
	// what it sends and receives, and the peer for a replica.
	cl := node
	if node.IsReplica() {
		cl = peer
	}
	var batch *types.Batch
	switch m := msg.(type) {
	case *protocol.ClientRequest:
		ev.kind, ev.key = kindRequest, spanKey{uint64(m.Req.Txn.Client), m.Req.Txn.Seq}
	case *protocol.ReadRequest:
		ev.kind, ev.key = kindRead, spanKey{uint64(m.Req.Txn.Client), m.Req.Txn.Seq}
	case *protocol.Inform:
		ev.kind, ev.key, ev.seq = kindInform, spanKey{uint64(cl), m.ClientSeq}, m.Seq
	case *protocol.ReadReply:
		ev.kind, ev.key = kindReadReply, spanKey{uint64(cl), m.ClientSeq}
	case *poe.Propose:
		ev.kind, ev.key = kindPropose, spanKey{uint64(m.View), uint64(m.Seq)}
		if send {
			batch = &m.Batch
		}
	case *poe.Support:
		ev.kind, ev.key = kindSupport, spanKey{uint64(m.View), uint64(m.Seq)}
	}
	if send {
		ev.size = wire.EncodedSize(msg)
	}
	tr.mu.Lock()
	tr.events = append(tr.events, ev)
	if batch != nil {
		for i := range batch.Requests {
			txn := &batch.Requests[i].Txn
			k := spanKey{uint64(txn.Client), txn.Seq}
			if _, dup := tr.proposed[k]; !dup {
				tr.proposed[k] = proposal{at: ev.at, slot: ev.key}
			}
		}
	}
	tr.mu.Unlock()
}

// tap is a Transport that stamps what passes through it.
type tap struct {
	network.Transport
	tr *tracer
	in chan network.Envelope
}

// newTap wraps inner. The goroutine that hands its inbox on ends when inner
// is closed or, should nobody read the tap any more, when done is.
func newTap(inner network.Transport, tr *tracer, done <-chan struct{}) *tap {
	// The inner transport keeps its own deep inbox; this one only hands on.
	t := &tap{Transport: inner, tr: tr, in: make(chan network.Envelope, 1)}
	go func() {
		defer close(t.in)
		for env := range inner.Inbox() {
			tr.stamp(inner.Node(), env.From, false, 0, env.Msg)
			select {
			case t.in <- env:
			case <-done:
				return
			}
		}
	}()
	return t
}

func (t *tap) Send(to types.NodeID, msg any) {
	t.tr.stamp(t.Node(), to, true, 1, msg)
	t.Transport.Send(to, msg)
}

func (t *tap) Broadcast(tos []types.NodeID, msg any) {
	if len(tos) > 0 {
		t.tr.stamp(t.Node(), tos[0], true, len(tos), msg)
	}
	t.Transport.Broadcast(tos, msg)
}

func (t *tap) Inbox() <-chan network.Envelope { return t.in }

// tracedSub notes when a client was asked to submit each request, and how
// long each ordered request took.
type tracedSub struct {
	*client.Client
	tr *tracer
}

func (s tracedSub) SubmitTxn(ctx context.Context, txn types.Transaction) (types.Result, error) {
	key := spanKey{uint64(txn.Client), txn.Seq}
	began := time.Since(s.tr.origin)
	s.tr.mu.Lock()
	s.tr.submitted[key] = began
	s.tr.mu.Unlock()
	res, err := s.Client.SubmitTxn(ctx, txn)
	if err == nil {
		took := msOf(time.Since(s.tr.origin) - began)
		s.tr.mu.Lock()
		s.tr.took[key] = took
		s.tr.mu.Unlock()
	}
	return res, err
}

// tracedCluster is four PoE replicas and their clients inside this process,
// every transport tapped.
type tracedCluster struct {
	ids    []*identity
	cancel context.CancelFunc
	wg     sync.WaitGroup
	nets   []*network.TCPNet
	stores []*storage.Store
}

// startTraced builds the cluster with the settings poeserver and the deploy
// package's clients use: mac scheme, batch 100, every other value the
// protocol's default, loopback TCP between all nodes.
func startTraced(ctx context.Context, dir string, sp *spec, seed int64, durable bool, tr *tracer) (*tracedCluster, error) {
	addrs, err := deploy.FreePorts(replicas)
	if err != nil {
		return nil, err
	}
	peers := make(map[types.NodeID]string, replicas+1)
	for i, a := range addrs {
		peers[types.ReplicaNode(types.ReplicaID(i))] = a
	}
	ring := crypto.NewKeyRing(replicas, []byte(ringSeed))
	cctx, cancel := context.WithCancel(ctx)
	c := &tracedCluster{cancel: cancel}
	fail := func(err error) (*tracedCluster, error) {
		c.stop()
		return nil, err
	}
	for i := 0; i < replicas; i++ {
		id := types.ReplicaID(i)
		tcp, err := network.NewTCPNet(types.ReplicaNode(id), peers)
		if err != nil {
			return fail(err)
		}
		c.nets = append(c.nets, tcp)
		var ropts protocol.RuntimeOptions
		if durable {
			st, err := storage.Open(filepath.Join(dir, fmt.Sprintf("replica-%d", i)), storage.Options{Sync: true})
			if err != nil {
				return fail(err)
			}
			c.stores = append(c.stores, st)
			ropts.Storage = st
		}
		cfg := protocol.Config{ID: id, N: replicas, F: (replicas - 1) / 3, Scheme: crypto.SchemeMAC, BatchSize: 100}
		rep, err := poe.New(cfg, ring, newTap(tcp, tr, cctx.Done()), poe.Options{RuntimeOptions: ropts})
		if err != nil {
			return fail(err)
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			rep.Run(cctx)
		}()
	}
	wcfg := sp.workload(seed)
	for i := 0; i < sp.identities; i++ {
		id := types.ClientIDBase + types.ClientID(i)
		book := make(map[types.NodeID]string, len(peers)+1)
		for n, a := range peers {
			book[n] = a
		}
		book[types.ClientNode(id)] = "127.0.0.1:0"
		tcp, err := network.NewTCPNet(types.ClientNode(id), book)
		if err != nil {
			return fail(err)
		}
		c.nets = append(c.nets, tcp)
		cl, err := client.New(client.Config{ID: id, N: replicas, F: (replicas - 1) / 3, Scheme: crypto.SchemeMAC}, ring, newTap(tcp, tr, cctx.Done()))
		if err != nil {
			return fail(err)
		}
		cl.Start(cctx)
		c.ids = append(c.ids, newIdentity(id, tracedSub{cl, tr}, wcfg, sp.probeEvery))
	}
	err = eachIdentity(c.ids, func(id *identity) error {
		rctx, cancel := context.WithTimeout(cctx, 2*requestTimeout)
		defer cancel()
		return id.writePrivate(rctx, "pre")
	})
	if err != nil {
		return fail(err)
	}
	return c, nil
}

// stop ends the replicas' loops, waits for them, then closes the WALs and
// the sockets.
func (c *tracedCluster) stop() {
	c.cancel()
	c.wg.Wait()
	for _, st := range c.stores {
		st.Close()
	}
	for _, n := range c.nets {
		n.Close()
	}
}

// phases is what the analysis of one traced run yields. Durations are the
// median over the run's spans, in ms.
type phases struct {
	submitToSend      float64 // client: SubmitTxn called → request on the wire (sign, encode)
	sendToFirstInform float64 // client: request sent → first INFORM back
	firstToQuorum     float64 // client: first INFORM → the nf-th matching one
	retransmits       float64 // request sends beyond the first, per 1000 requests
	readRTT           float64 // client: tiered read sent → its reply
	reqToPropose      float64 // primary: request received → PROPOSE carrying it sent (verify, linger, sign)
	proposeToSupport  float64 // backup: PROPOSE received → own SUPPORT sent
	supportToQuorum   float64 // backup: own SUPPORT sent → nf SUPPORTs known
	quorumToInform    float64 // backup: nf SUPPORTs known → first INFORM sent (execute, WAL wait, MAC)
	hops              float64 // the three one-way deliveries on the reply path: request, PROPOSE, INFORM
	orderedP50        float64 // the whole: SubmitTxn call to return

	msgsPerDecision  float64 // replica-to-replica messages
	bytesPerDecision float64
	proposeBytes     float64
}

// analyse turns the events at or after from into phase medians.
func (tr *tracer) analyse(from time.Duration) phases {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	nf := replicas - (replicas-1)/3

	type clientSpan struct {
		sent, sends   int           // index of first send event; number of sends
		recvAtPrimary time.Duration // first arrival at replica 0
		informs       []time.Duration
		informFrom    map[types.NodeID]bool
		readReply     time.Duration
		isRead        bool
	}
	type backupSpan struct {
		proposeRecv, supportSent, informSent time.Duration
		foreign                              []time.Duration // SUPPORTs of other replicas, by arrival
	}
	type keyNode struct {
		key  spanKey
		node types.NodeID
	}
	clients := make(map[spanKey]*clientSpan)
	backups := make(map[keyNode]*backupSpan)
	proposeSent := make(map[spanKey]time.Duration)
	informSent := make(map[keyNode]time.Duration) // (request, replica) → INFORM sent
	var proposeSizes, proposeHop, requestHop, informHop []float64
	var rrMsgs, rrBytes float64

	backup := func(slot spanKey, node types.NodeID) *backupSpan {
		k := keyNode{slot, node}
		b := backups[k]
		if b == nil {
			b = &backupSpan{proposeRecv: -1, supportSent: -1, informSent: -1}
			backups[k] = b
		}
		return b
	}
	// No fault is injected into a traced run, so it stays in view 0: replica
	// 0 leads, and the decision an INFORM quotes by seq is slot (0, seq).
	primary := types.ReplicaNode(0)

	for i := range tr.events {
		ev := &tr.events[i]
		if ev.at < from {
			continue
		}
		if ev.send && ev.node.IsReplica() && ev.peer.IsReplica() {
			rrMsgs += float64(ev.fanout)
			rrBytes += float64(ev.fanout * ev.size)
		}
		switch ev.kind {
		case kindRequest, kindRead:
			if ev.node.IsClient() && ev.send {
				cs := clients[ev.key]
				if cs == nil {
					cs = &clientSpan{sent: i, recvAtPrimary: -1, readReply: -1, informFrom: make(map[types.NodeID]bool), isRead: ev.kind == kindRead}
					clients[ev.key] = cs
				}
				cs.sends++
			} else if !ev.send && ev.node == primary {
				if cs := clients[ev.key]; cs != nil && cs.recvAtPrimary < 0 {
					cs.recvAtPrimary = ev.at
					requestHop = append(requestHop, msOf(ev.at-tr.events[cs.sent].at))
				}
			}
		case kindInform:
			if ev.send {
				slot := spanKey{0, uint64(ev.seq)}
				if b := backup(slot, ev.node); b.informSent < 0 {
					b.informSent = ev.at
				}
				k := keyNode{ev.key, ev.node}
				if _, dup := informSent[k]; !dup {
					informSent[k] = ev.at
				}
			} else if cs := clients[ev.key]; cs != nil && !cs.informFrom[ev.peer] {
				cs.informFrom[ev.peer] = true
				cs.informs = append(cs.informs, ev.at)
				if sent, ok := informSent[keyNode{ev.key, ev.peer}]; ok {
					informHop = append(informHop, msOf(ev.at-sent))
				}
			}
		case kindReadReply:
			if cs := clients[ev.key]; !ev.send && cs != nil && cs.isRead && cs.readReply < 0 {
				cs.readReply = ev.at
			}
		case kindPropose:
			if ev.send {
				proposeSent[ev.key] = ev.at
				proposeSizes = append(proposeSizes, float64(ev.size))
			} else if b := backup(ev.key, ev.node); b.proposeRecv < 0 {
				b.proposeRecv = ev.at
				if sent, ok := proposeSent[ev.key]; ok {
					proposeHop = append(proposeHop, msOf(ev.at-sent))
				}
			}
		case kindSupport:
			b := backup(ev.key, ev.node)
			if ev.send {
				if b.supportSent < 0 {
					b.supportSent = ev.at
				}
			} else {
				b.foreign = append(b.foreign, ev.at)
			}
		}
	}

	var p phases
	var submitToSend, sendToFirst, firstToQuorum, readRTT, reqToPropose, took []float64
	var requests, resent int // ordered requests traced from submit to quorum; their sends beyond the first
	for key, cs := range clients {
		sent := tr.events[cs.sent].at
		if cs.isRead {
			if cs.readReply >= 0 {
				readRTT = append(readRTT, msOf(cs.readReply-sent))
			}
			continue
		}
		if len(cs.informs) < nf {
			continue
		}
		requests++
		resent += cs.sends - 1
		if at, ok := tr.submitted[key]; ok {
			submitToSend = append(submitToSend, msOf(sent-at))
		}
		if ms, ok := tr.took[key]; ok {
			took = append(took, ms)
		}
		sendToFirst = append(sendToFirst, msOf(cs.informs[0]-sent))
		firstToQuorum = append(firstToQuorum, msOf(cs.informs[nf-1]-cs.informs[0]))
		if pr, ok := tr.proposed[key]; ok && cs.recvAtPrimary >= 0 && pr.at >= cs.recvAtPrimary {
			reqToPropose = append(reqToPropose, msOf(pr.at-cs.recvAtPrimary))
		}
	}
	var proposeToSupport, supportToQuorum, quorumToInform []float64
	for k, b := range backups {
		if k.node == primary || b.proposeRecv < 0 || b.supportSent < 0 || len(b.foreign) < nf-1 {
			continue
		}
		proposeToSupport = append(proposeToSupport, msOf(b.supportSent-b.proposeRecv))
		// The replica's own SUPPORT counts towards nf; the others may have
		// arrived before it was sent.
		quorum := b.foreign[nf-2]
		if quorum < b.supportSent {
			quorum = b.supportSent
		}
		supportToQuorum = append(supportToQuorum, msOf(quorum-b.supportSent))
		if b.informSent >= quorum {
			quorumToInform = append(quorumToInform, msOf(b.informSent-quorum))
		}
	}

	p.submitToSend = median(submitToSend)
	p.sendToFirstInform = median(sendToFirst)
	p.firstToQuorum = median(firstToQuorum)
	p.readRTT = median(readRTT)
	p.reqToPropose = median(reqToPropose)
	p.proposeToSupport = median(proposeToSupport)
	p.supportToQuorum = median(supportToQuorum)
	p.quorumToInform = median(quorumToInform)
	p.hops = median(requestHop) + median(proposeHop) + median(informHop)
	p.orderedP50 = median(took)
	p.proposeBytes = median(proposeSizes)
	p.retransmits = ratio(float64(resent)*1000, float64(requests))
	p.msgsPerDecision = ratio(rrMsgs, float64(len(proposeSent)))
	p.bytesPerDecision = ratio(rrBytes, float64(len(proposeSent)))
	return p
}

// parts is the sum of the phase medians that lie end to end on an ordered
// request's path; over orderedP50 it shows how much of the whole the phases
// explain.
func (p phases) parts() float64 {
	return p.submitToSend + p.reqToPropose + p.proposeToSupport + p.supportToQuorum + p.quorumToInform + p.firstToQuorum + p.hops
}

// tracedPass runs the workload's traffic over a traced in-process cluster
// and returns the phase medians and the client-side p50 of all its requests.
func tracedPass(ctx context.Context, dir string, sp *spec, seed int64, window time.Duration, durable bool) (phases, float64, error) {
	tr := newTracer()
	c, err := startTraced(ctx, dir, sp, seed, durable, tr)
	if err != nil {
		return phases{}, 0, err
	}
	defer c.stop()
	l := &load{ids: c.ids, rate: sp.rate, seed: seed, warmup: warmupFor(window), window: window}
	begin := time.Now()
	l.run(ctx, begin)
	if err := ctx.Err(); err != nil {
		return phases{}, 0, err
	}
	samples := l.measured()
	for _, s := range samples {
		if !s.ok {
			return phases{}, 0, fmt.Errorf("traced run: a request failed")
		}
	}
	lat := latencies(samples, 0, window)
	return tr.analyse(begin.Add(l.warmup).Sub(tr.origin)), quantile(lat, 0.5), nil
}
