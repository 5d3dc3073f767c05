package network

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"time"

	"github.com/poexec/poe/internal/types"
)

// Net is the node-joining surface of a network: harnesses hold a Net, nodes
// hold the Transport Join returns. ChanNet implements it directly; FaultNet
// implements it by wrapping another Net, which is how fault injection is
// composed underneath an unmodified cluster.
type Net interface {
	Join(node types.NodeID) Transport
}

// LinkFaults are the omission-class faults of one directed link (DESIGN.md
// §6): each is applied independently per message, with probabilities drawn
// from the link's own seeded stream so a run is reproducible.
type LinkFaults struct {
	// Drop is the i.i.d. probability that a message is silently lost.
	Drop float64
	// Duplicate is the probability that a message is delivered twice.
	Duplicate float64
	// Reorder is the probability that a message is held back and delivered
	// after the next message on the same link (a pairwise swap — the
	// smallest reordering a FIFO transport can exhibit). On a link that
	// then goes quiet the held message waits for the next send; Close
	// releases any still-held messages, and in between the protocols'
	// retransmission covers the gap, like any delayed datagram.
	Reorder float64
	// Delay (± Jitter, uniform) postpones delivery.
	Delay  time.Duration
	Jitter time.Duration
}

// IsZero reports whether the rule injects no faults at all.
func (lf LinkFaults) IsZero() bool {
	return lf.Drop == 0 && lf.Duplicate == 0 && lf.Reorder == 0 && lf.Delay == 0 && lf.Jitter == 0
}

// Verdict classifies what the fabric did with one message.
type Verdict string

// The verdicts a TraceEvent can carry.
const (
	VerdictDeliver   Verdict = "deliver"
	VerdictDrop      Verdict = "drop"      // lost to LinkFaults.Drop
	VerdictDuplicate Verdict = "duplicate" // delivered, then delivered again
	VerdictHold      Verdict = "hold"      // held for a pairwise reorder
	VerdictRelease   Verdict = "release"   // a held message delivered behind its successor
	VerdictCut       Verdict = "cut"       // lost to a lossy partition / cut link
	VerdictQueue     Verdict = "queue"     // buffered by a reliable partition
	VerdictFlush     Verdict = "flush"     // a queued message delivered at heal
	VerdictCrash     Verdict = "crash"     // endpoint crashed
	VerdictSilence   Verdict = "silence"   // suppressed by a sender mutator
	VerdictMutate    Verdict = "mutate"    // rewritten by a sender mutator
)

// TraceEvent records one fault decision. Index is the per-link send counter,
// so a (From, To, Index, Verdict) sequence is a complete delivery trace:
// with the same seed, rules, and per-link send order, two runs produce
// identical traces (the determinism contract FaultNet tests pin down).
type TraceEvent struct {
	From, To types.NodeID
	Index    uint64
	Verdict  Verdict
	Delay    time.Duration
}

// Mutator is a sender-side Byzantine hook at the network layer: it may
// rewrite or suppress (ok=false) any message the node sends. Because
// protocol messages are authenticated above the transport, a mutator cannot
// forge meaningful protocol state — honest verifiers drop what it corrupts —
// so its chief uses are selective silence (keeping a quorum subset dark) and
// robustness tests that tampered bytes die in the inbound check.
// Effective equivocation, which requires re-signing, lives in
// protocol.AdversarySpec instead (DESIGN.md §6).
type Mutator func(to types.NodeID, msg any) (any, bool)

// FaultStats counts fabric decisions.
type FaultStats struct {
	Sent, Delivered, Dropped, Duplicated, Reordered, Queued, Flushed int64
}

// FaultNet is the composable fault-injection fabric (DESIGN.md §6): it wraps
// another Net (usually a ChanNet) and applies deterministic, seeded fault
// rules to every message on the sender's side — per-link drop, delay,
// duplication, and pairwise reordering, dynamic partitions that either lose
// or queue the traffic they block, crash markers, and per-sender Byzantine
// mutators. Rules can be changed at any time, directly or on a schedule via
// a Plan, so a harness can inject "at t=2s, partition {0,1} from {2,3} for
// one second" into a running cluster.
//
// All methods are safe for concurrent use. Determinism: every directed link
// owns an RNG seeded from (seed, from, to), and fault decisions are drawn in
// per-link send order — so runs with the same seed, the same rule schedule,
// and the same per-link send sequences make identical decisions regardless
// of cross-link goroutine interleaving.
type FaultNet struct {
	inner Net
	seed  int64

	mu       sync.Mutex
	closed   bool
	links    map[linkKey]*linkState
	defaults LinkFaults
	cut      map[linkKey]*cutState
	crashed  map[types.NodeID]bool
	mutators map[types.NodeID]Mutator
	trace    func(TraceEvent)
	stats    FaultStats
}

type linkState struct {
	faults    LinkFaults
	hasFaults bool // SetLink was called; overrides the net-wide default
	rng       *rand.Rand
	idx       uint64
	held      *heldMsg
}

type heldMsg struct {
	to    types.NodeID
	msg   any
	tr    Transport
	delay time.Duration
	idx   uint64
}

type cutState struct {
	reliable bool
	queue    []heldMsg
}

// FaultNetOption configures a FaultNet.
type FaultNetOption func(*FaultNet)

// WithFaultSeed seeds the per-link randomness (default 1).
func WithFaultSeed(seed int64) FaultNetOption {
	return func(f *FaultNet) { f.seed = seed }
}

// WithTrace installs a decision-trace callback. It is invoked synchronously
// under the fabric's lock — it must be fast and must not call back into the
// FaultNet. Intended for determinism tests and debugging.
func WithTrace(fn func(TraceEvent)) FaultNetOption {
	return func(f *FaultNet) { f.trace = fn }
}

// NewFaultNet wraps inner in the fault fabric. A nil inner is allowed when
// the fabric is only used through Wrap (e.g. around a TCP transport).
func NewFaultNet(inner Net, opts ...FaultNetOption) *FaultNet {
	f := &FaultNet{
		inner:    inner,
		seed:     1,
		links:    make(map[linkKey]*linkState),
		cut:      make(map[linkKey]*cutState),
		crashed:  make(map[types.NodeID]bool),
		mutators: make(map[types.NodeID]Mutator),
	}
	for _, o := range opts {
		o(f)
	}
	return f
}

// Join joins the inner network and returns a transport whose sends pass
// through the fabric.
func (f *FaultNet) Join(node types.NodeID) Transport {
	if f.inner == nil {
		panic("network: FaultNet.Join needs an inner Net (use Wrap for bare transports)")
	}
	return f.Wrap(f.inner.Join(node))
}

// Wrap routes an existing transport's sends through the fabric. This is how
// the TCP transport (which has no Join; every process owns exactly one
// transport) gets sender-side fault injection in poeserver.
func (f *FaultNet) Wrap(tr Transport) Transport {
	return &faultTransport{net: f, inner: tr}
}

// SetDefaultFaults applies faults to every link without an explicit SetLink
// rule. Passing the zero LinkFaults clears the default.
func (f *FaultNet) SetDefaultFaults(lf LinkFaults) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.defaults = lf
}

// SetLink installs a per-link fault rule (overriding the default for that
// link).
func (f *FaultNet) SetLink(from, to types.NodeID, lf LinkFaults) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ls := f.link(from, to)
	ls.faults = lf
	ls.hasFaults = true
}

// ClearLink removes a per-link rule; the link falls back to the default.
func (f *FaultNet) ClearLink(from, to types.NodeID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ls, ok := f.links[linkKey{from, to}]; ok {
		ls.faults = LinkFaults{}
		ls.hasFaults = false
	}
}

// Crash drops all traffic to and from the node until Recover.
func (f *FaultNet) Crash(node types.NodeID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashed[node] = true
}

// Recover clears a crash mark.
func (f *FaultNet) Recover(node types.NodeID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.crashed, node)
}

// CutLink blocks the directed link from → to. With reliable set, blocked
// messages are queued and delivered, in order, when the link heals —
// modelling a partition over a reliable transport (TCP retransmission
// outlives the outage). Without it they are lost, modelling datagram loss.
func (f *FaultNet) CutLink(from, to types.NodeID, reliable bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.cut[linkKey{from, to}]; !ok {
		f.cut[linkKey{from, to}] = &cutState{reliable: reliable}
	}
}

// Partition cuts every link between groups a and b, both directions. With
// reliable set the blocked traffic is queued instead of lost (see CutLink).
// Nodes absent from both groups — clients, typically — are unaffected.
func (f *FaultNet) Partition(a, b []types.NodeID, reliable bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, x := range a {
		for _, y := range b {
			if _, ok := f.cut[linkKey{x, y}]; !ok {
				f.cut[linkKey{x, y}] = &cutState{reliable: reliable}
			}
			if _, ok := f.cut[linkKey{y, x}]; !ok {
				f.cut[linkKey{y, x}] = &cutState{reliable: reliable}
			}
		}
	}
}

// HealLink restores one directed link, flushing any queued messages in send
// order.
func (f *FaultNet) HealLink(from, to types.NodeID) {
	f.mu.Lock()
	flushes := f.takeCut(linkKey{from, to})
	f.mu.Unlock()
	f.flush(flushes)
}

// Heal removes every cut and partition, flushing all reliable queues (per
// link in send order; across links in deterministic key order).
func (f *FaultNet) Heal() {
	f.mu.Lock()
	keys := make([]linkKey, 0, len(f.cut))
	for k := range f.cut {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	var flushes []heldMsg
	for _, k := range keys {
		flushes = append(flushes, f.takeCut(k)...)
	}
	f.mu.Unlock()
	f.flush(flushes)
}

// takeCut removes a cut entry and returns its queued messages. Caller holds
// f.mu.
func (f *FaultNet) takeCut(k linkKey) []heldMsg {
	cs, ok := f.cut[k]
	if !ok {
		return nil
	}
	delete(f.cut, k)
	for range cs.queue {
		f.stats.Flushed++
		f.emit(TraceEvent{From: k.from, To: k.to, Verdict: VerdictFlush})
	}
	return cs.queue
}

// flush delivers heal-released messages outside the lock.
func (f *FaultNet) flush(msgs []heldMsg) {
	for _, h := range msgs {
		f.deliver(h.tr, h.to, h.msg, h.delay)
	}
}

// SetMutator installs (or, with nil, removes) the sender-side Byzantine
// mutator for a node.
func (f *FaultNet) SetMutator(from types.NodeID, m Mutator) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if m == nil {
		delete(f.mutators, from)
		return
	}
	f.mutators[from] = m
}

// Stats returns cumulative fabric counters.
func (f *FaultNet) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Close stops the fabric: subsequent and in-flight (delayed) sends are
// dropped, and reliable queues are discarded. Reorder-held messages are
// released first (their delivery was already decided and traced as a hold),
// so closing cannot convert a reorder into a silent loss. It does not close
// the inner network — the fabric does not own it.
func (f *FaultNet) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	keys := make([]linkKey, 0, len(f.links))
	for k, ls := range f.links {
		if ls.held != nil {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	var held []heldMsg
	for _, k := range keys {
		ls := f.links[k]
		f.stats.Delivered++
		f.stats.Reordered++
		f.emit(TraceEvent{From: k.from, To: k.to, Index: ls.held.idx, Verdict: VerdictRelease, Delay: ls.held.delay})
		held = append(held, *ls.held)
		ls.held = nil
	}
	f.cut = make(map[linkKey]*cutState)
	f.mu.Unlock()
	// Deliver before marking closed so the releases are not self-dropped;
	// sends racing this window behave as if Close happened a moment later.
	for _, h := range held {
		h.tr.Send(h.to, h.msg)
	}
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
}

// sameMsg reports whether a mutator returned its input unchanged. Interface
// equality panics on uncomparable dynamic types (a by-value struct holding a
// slice), so messages of such types are conservatively treated as mutated.
func sameMsg(a, b any) bool {
	ta := reflect.TypeOf(a)
	if ta != reflect.TypeOf(b) || ta == nil || !ta.Comparable() {
		return false
	}
	return a == b
}

// link returns (lazily creating) the directed link state. Caller holds f.mu.
func (f *FaultNet) link(from, to types.NodeID) *linkState {
	k := linkKey{from, to}
	ls, ok := f.links[k]
	if !ok {
		// Seed each link independently of map iteration and goroutine
		// interleaving: the stream depends only on (seed, from, to).
		mix := f.seed ^ (int64(from)+1)<<20 ^ (int64(to)+1)<<40 ^ 0x5eed
		ls = &linkState{rng: rand.New(rand.NewSource(mix))}
		f.links[k] = ls
	}
	return ls
}

func (f *FaultNet) emit(ev TraceEvent) {
	if f.trace != nil {
		f.trace(ev)
	}
}

// delivery is one post-decision transport action: what decideLocked chose
// to actually put on the inner transport once the lock is released.
type delivery struct {
	tr    Transport
	to    types.NodeID
	msg   any
	delay time.Duration
	// orig marks a delivery whose message the fabric left untouched — the
	// caller's own msg, not a mutation or duplicate. Broadcast batches orig
	// deliveries of one fan-out into shared inner Broadcasts (immediate
	// ones together, delayed ones grouped by delay), preserving the
	// marshal-once path through the fabric even under WAN emulation.
	orig bool
}

// decideLocked runs the fault pipeline for one message and appends the
// resulting deliveries (main, then duplicate, then reorder-release — the
// order the pre-refactor code delivered in) to ds. The decision order per
// link is fixed — mutate, crash, cut, drop, delay, duplicate, reorder — so
// the consumed randomness (and therefore the whole trace) is a function of
// the rule schedule and the per-link send sequence alone. Caller holds f.mu.
func (f *FaultNet) decideLocked(ds []delivery, tr Transport, from, to types.NodeID, msg any) []delivery {
	f.stats.Sent++
	orig := true

	if mut, ok := f.mutators[from]; ok {
		m2, keep := mut(to, msg)
		if !keep {
			f.emit(TraceEvent{From: from, To: to, Verdict: VerdictSilence})
			return ds
		}
		if !sameMsg(m2, msg) {
			f.emit(TraceEvent{From: from, To: to, Verdict: VerdictMutate})
			msg = m2
			orig = false
		}
	}

	if f.crashed[from] || f.crashed[to] {
		f.emit(TraceEvent{From: from, To: to, Verdict: VerdictCrash})
		return ds
	}

	if cs, ok := f.cut[linkKey{from, to}]; ok {
		if cs.reliable {
			cs.queue = append(cs.queue, heldMsg{to: to, msg: msg, tr: tr})
			f.stats.Queued++
			f.emit(TraceEvent{From: from, To: to, Verdict: VerdictQueue})
		} else {
			f.stats.Dropped++
			f.emit(TraceEvent{From: from, To: to, Verdict: VerdictCut})
		}
		return ds
	}

	ls := f.link(from, to)
	lf := ls.faults
	if !ls.hasFaults {
		lf = f.defaults
	}
	idx := ls.idx
	ls.idx++

	// A message held for reordering is released behind the next message on
	// the link, whatever happens to that message.
	released := ls.held
	ls.held = nil
	releaseDelivery := func() []delivery {
		if released == nil {
			return ds
		}
		f.stats.Delivered++
		f.stats.Reordered++
		f.emit(TraceEvent{From: from, To: to, Index: released.idx, Verdict: VerdictRelease, Delay: released.delay})
		return append(ds, delivery{tr: released.tr, to: released.to, msg: released.msg, delay: released.delay})
	}

	if lf.Drop > 0 && ls.rng.Float64() < lf.Drop {
		f.stats.Dropped++
		f.emit(TraceEvent{From: from, To: to, Index: idx, Verdict: VerdictDrop})
		return releaseDelivery()
	}

	delay := lf.Delay
	if lf.Jitter > 0 {
		delay += time.Duration((ls.rng.Float64()*2 - 1) * float64(lf.Jitter))
		if delay < 0 {
			delay = 0
		}
	}

	dup := lf.Duplicate > 0 && ls.rng.Float64() < lf.Duplicate

	if lf.Reorder > 0 && released == nil && ls.rng.Float64() < lf.Reorder {
		ls.held = &heldMsg{to: to, msg: msg, tr: tr, delay: delay, idx: idx}
		f.emit(TraceEvent{From: from, To: to, Index: idx, Verdict: VerdictHold, Delay: delay})
		return ds
	}

	f.stats.Delivered++
	f.emit(TraceEvent{From: from, To: to, Index: idx, Verdict: VerdictDeliver, Delay: delay})
	ds = append(ds, delivery{tr: tr, to: to, msg: msg, delay: delay, orig: orig})
	if dup {
		f.stats.Duplicated++
		f.emit(TraceEvent{From: from, To: to, Index: idx, Verdict: VerdictDuplicate, Delay: delay})
		ds = append(ds, delivery{tr: tr, to: to, msg: msg, delay: delay})
	}
	return releaseDelivery()
}

// send runs the fault pipeline for one message and dispatches the outcome.
func (f *FaultNet) send(tr Transport, from, to types.NodeID, msg any) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	ds := f.decideLocked(make([]delivery, 0, 3), tr, from, to, msg)
	f.mu.Unlock()
	for _, d := range ds {
		f.deliver(d.tr, d.to, d.msg, d.delay)
	}
}

// sendMany runs the fault pipeline for one message to many destinations.
// Destinations whose message the fabric leaves unmutated forward as shared
// inner Broadcasts — the undelayed ones in one immediate fan-out, delayed
// ones grouped per delay value — so a serializing inner transport still
// marshals once per broadcast even under -fault-delay WAN emulation.
// Mutated messages, duplicates, and reorder releases dispatch singly.
func (f *FaultNet) sendMany(tr Transport, from types.NodeID, tos []types.NodeID, msg any) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	ds := make([]delivery, 0, len(tos)+3)
	for _, to := range tos {
		ds = f.decideLocked(ds, tr, from, to, msg)
	}
	f.mu.Unlock()

	var batch []types.NodeID
	var delayed map[time.Duration][]types.NodeID
	for _, d := range ds {
		switch {
		case d.orig && d.delay <= 0:
			batch = append(batch, d.to)
		case d.orig:
			if delayed == nil {
				delayed = make(map[time.Duration][]types.NodeID)
			}
			delayed[d.delay] = append(delayed[d.delay], d.to)
		}
	}
	if len(batch) > 0 {
		tr.Broadcast(batch, msg)
	}
	for delay, group := range delayed {
		f.deliverMany(tr, group, msg, delay)
	}
	for _, d := range ds {
		if !d.orig {
			f.deliver(d.tr, d.to, d.msg, d.delay)
		}
	}
}

// deliverMany hands a group of same-delay destinations to the inner
// transport as one broadcast, now or after the delay — the fan-out analogue
// of deliver, with the same at-fire-time liveness re-check per destination.
func (f *FaultNet) deliverMany(tr Transport, tos []types.NodeID, msg any, delay time.Duration) {
	if delay <= 0 {
		tr.Broadcast(tos, msg)
		return
	}
	time.AfterFunc(delay, func() {
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			return
		}
		live := make([]types.NodeID, 0, len(tos))
		for _, to := range tos {
			if !f.crashed[to] {
				live = append(live, to)
			}
		}
		f.mu.Unlock()
		if len(live) > 0 {
			tr.Broadcast(live, msg)
		}
	})
}

// deliver hands the message to the inner transport, now or after a delay.
func (f *FaultNet) deliver(tr Transport, to types.NodeID, msg any, delay time.Duration) {
	if delay <= 0 {
		tr.Send(to, msg)
		return
	}
	time.AfterFunc(delay, func() {
		f.mu.Lock()
		dead := f.closed || f.crashed[to]
		f.mu.Unlock()
		if dead {
			return
		}
		tr.Send(to, msg)
	})
}

type faultTransport struct {
	net   *FaultNet
	inner Transport
}

func (t *faultTransport) Node() types.NodeID { return t.inner.Node() }

func (t *faultTransport) Send(to types.NodeID, msg any) {
	t.net.send(t.inner, t.inner.Node(), to, msg)
}

func (t *faultTransport) Broadcast(tos []types.NodeID, msg any) {
	t.net.sendMany(t.inner, t.inner.Node(), tos, msg)
}

func (t *faultTransport) Inbox() <-chan Envelope { return t.inner.Inbox() }

// SetCheck forwards the check to the wrapped transport: the fabric acts on
// the sender's side, and the inbox is the inner transport's.
func (t *faultTransport) SetCheck(check func(env *Envelope) bool) { t.inner.SetCheck(check) }

func (t *faultTransport) Close() error { return t.inner.Close() }

// --- scheduled fault plans ---

// Plan is a schedule of fault-rule changes: each step fires at a fixed
// offset from the moment Execute (or ApplyNow) is called, so a harness can
// script "at t=2s partition {0,1} from {2,3}; at t=3s heal" and replay it
// identically across runs. Steps are applied in offset order (ties in
// insertion order); the builder methods return the Plan for chaining.
type Plan struct {
	steps []planStep
}

type planStep struct {
	at    time.Duration
	label string
	do    func(*FaultNet)
}

// NewPlan returns an empty plan.
func NewPlan() *Plan { return &Plan{} }

// Clone returns an independent copy of the plan (nil-safe): appending to
// the copy never mutates the original, so a caller's plan can be extended
// per run.
func (p *Plan) Clone() *Plan {
	if p == nil {
		return NewPlan()
	}
	return &Plan{steps: append([]planStep(nil), p.steps...)}
}

// At schedules an arbitrary rule change.
func (p *Plan) At(at time.Duration, label string, do func(*FaultNet)) *Plan {
	p.steps = append(p.steps, planStep{at: at, label: label, do: do})
	return p
}

// PartitionAt schedules a partition between groups a and b.
func (p *Plan) PartitionAt(at time.Duration, a, b []types.NodeID, reliable bool) *Plan {
	return p.At(at, fmt.Sprintf("partition %v | %v", a, b), func(f *FaultNet) { f.Partition(a, b, reliable) })
}

// HealAt schedules a full heal.
func (p *Plan) HealAt(at time.Duration) *Plan {
	return p.At(at, "heal", func(f *FaultNet) { f.Heal() })
}

// CrashAt schedules a crash marker for a node.
func (p *Plan) CrashAt(at time.Duration, node types.NodeID) *Plan {
	return p.At(at, fmt.Sprintf("crash %v", node), func(f *FaultNet) { f.Crash(node) })
}

// RecoverAt schedules the removal of a crash marker.
func (p *Plan) RecoverAt(at time.Duration, node types.NodeID) *Plan {
	return p.At(at, fmt.Sprintf("recover %v", node), func(f *FaultNet) { f.Recover(node) })
}

// LinkAt schedules a per-link fault rule.
func (p *Plan) LinkAt(at time.Duration, from, to types.NodeID, lf LinkFaults) *Plan {
	return p.At(at, fmt.Sprintf("link %v->%v", from, to), func(f *FaultNet) { f.SetLink(from, to, lf) })
}

// DefaultFaultsAt schedules a change of the net-wide default faults.
func (p *Plan) DefaultFaultsAt(at time.Duration, lf LinkFaults) *Plan {
	return p.At(at, "default faults", func(f *FaultNet) { f.SetDefaultFaults(lf) })
}

// Offsets lists every step's firing offset, in schedule order.
func (p *Plan) Offsets() []time.Duration {
	out := make([]time.Duration, 0, len(p.steps))
	for _, s := range p.sorted() {
		out = append(out, s.at)
	}
	return out
}

// sorted returns the steps in firing order without mutating the plan.
func (p *Plan) sorted() []planStep {
	steps := append([]planStep(nil), p.steps...)
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].at < steps[j].at })
	return steps
}

// ApplyNow applies every step immediately, in offset order. Used by
// deterministic tests that control time themselves.
func (f *FaultNet) ApplyNow(p *Plan) {
	if p == nil {
		return
	}
	for _, s := range p.sorted() {
		s.do(f)
	}
}

// Execute runs the plan against the fabric on a background goroutine; step
// offsets are measured from the moment Execute is called. Cancelling the
// context abandons the remaining steps.
func (f *FaultNet) Execute(ctx context.Context, p *Plan) {
	if p == nil || len(p.steps) == 0 {
		return
	}
	steps := p.sorted()
	start := time.Now()
	go func() {
		for _, s := range steps {
			d := time.Until(start.Add(s.at))
			if d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					return
				}
			}
			if ctx.Err() != nil {
				return
			}
			s.do(f)
		}
	}()
}
