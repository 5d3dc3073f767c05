// Package crypto provides the authenticated-communication primitives the PoE
// paper relies on (§II-A, §IV-C): pairwise message authentication codes,
// digital signatures, and threshold signatures, plus SHA-256 digests.
//
// Substitutions relative to the paper's implementation (see DESIGN.md §3):
//
//   - CMAC+AES        → HMAC-SHA256 (same symmetric-authenticator role).
//   - BLS threshold   → Ed25519 multi-signature aggregation: a certificate is
//     the set of nf constituent signatures plus a signer bitmap. It offers
//     the same unforgeability structure (no coalition of f replicas can mint
//     a certificate) behind the same Share/Combine/Verify interface.
//   - An additional HMAC-based threshold scheme is provided for experiments
//     that isolate protocol cost from public-key cost; it is NOT byzantine
//     unforgeable (any key holder can forge) and is clearly marked.
//
// All keys derive deterministically from a master seed held by the trusted
// dealer (KeyRing). In a real deployment the dealer is replaced by a
// distributed key-generation ceremony; the protocol code is agnostic.
package crypto

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"sync"
	"sync/atomic"

	"github.com/poexec/poe/internal/types"
)

// edVerifies counts actual ed25519.Verify invocations (cache misses). Tests
// and benchmarks use it to assert that shares and certificates are verified
// at most once; it is not a correctness mechanism.
var edVerifies atomic.Int64

// EdVerifyCount returns the cumulative number of raw Ed25519 signature
// verifications performed by this package.
func EdVerifyCount() int64 { return edVerifies.Load() }

// Scheme selects how replicas authenticate protocol messages (ingredient I3
// of the paper: PoE is signature-scheme agnostic).
type Scheme int

const (
	// SchemeNone disables authentication. Only for the Fig 8 "None" column;
	// such a system cannot handle malicious behaviour.
	SchemeNone Scheme = iota
	// SchemeMAC authenticates replica messages with pairwise HMACs and uses
	// all-to-all SUPPORT broadcast (Appendix A of the paper).
	SchemeMAC
	// SchemeTS uses threshold signatures to linearize the support phase
	// (§II-B of the paper).
	SchemeTS
	// SchemeED signs every message with Ed25519 digital signatures
	// (the Fig 8 "ED" column).
	SchemeED
)

func (s Scheme) String() string {
	switch s {
	case SchemeNone:
		return "none"
	case SchemeMAC:
		return "mac"
	case SchemeTS:
		return "ts"
	case SchemeED:
		return "ed"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// KeyRing is the trusted dealer: it derives every key in the system from a
// master seed. Each node receives a NodeKeys view scoped to its identity;
// the protocol code never touches another node's private material.
type KeyRing struct {
	seed    []byte
	n       int
	pubKeys map[types.NodeID]ed25519.PublicKey

	// cliKeys caches lazily derived client public keys. Deriving an Ed25519
	// public key is a scalar-base multiplication — comparable in cost to a
	// verification — so re-deriving it per signature check would double the
	// price of every client-request verification.
	cliMu   sync.RWMutex
	cliKeys map[types.NodeID]ed25519.PublicKey
}

// NewKeyRing creates a dealer for a system of n replicas using the given
// master seed. Clients obtain keys on demand.
func NewKeyRing(n int, seed []byte) *KeyRing {
	if len(seed) == 0 {
		seed = []byte("poe-deterministic-master-seed")
	}
	r := &KeyRing{
		seed:    append([]byte(nil), seed...),
		n:       n,
		pubKeys: make(map[types.NodeID]ed25519.PublicKey),
		cliKeys: make(map[types.NodeID]ed25519.PublicKey),
	}
	for i := 0; i < n; i++ {
		node := types.ReplicaNode(types.ReplicaID(i))
		r.pubKeys[node] = r.privKey(node).Public().(ed25519.PublicKey)
	}
	return r
}

// N returns the number of replicas the ring was created for.
func (r *KeyRing) N() int { return r.n }

// derive produces 32 bytes of key material bound to a label.
func (r *KeyRing) derive(label string, parts ...uint64) []byte {
	mac := hmac.New(sha256.New, r.seed)
	mac.Write([]byte(label))
	var buf [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(buf[:], p)
		mac.Write(buf[:])
	}
	return mac.Sum(nil)
}

func (r *KeyRing) privKey(node types.NodeID) ed25519.PrivateKey {
	return ed25519.NewKeyFromSeed(r.derive("ed25519", uint64(uint32(node))))
}

// PublicKey returns the Ed25519 public key of a node. Replica keys are
// precomputed; client keys are derived on first use and cached. PublicKey is
// safe for concurrent use.
func (r *KeyRing) PublicKey(node types.NodeID) ed25519.PublicKey {
	if pk, ok := r.pubKeys[node]; ok {
		return pk
	}
	r.cliMu.RLock()
	pk, ok := r.cliKeys[node]
	r.cliMu.RUnlock()
	if ok {
		return pk
	}
	pk = r.privKey(node).Public().(ed25519.PublicKey)
	r.cliMu.Lock()
	if r.cliKeys == nil || len(r.cliKeys) >= 1<<17 {
		r.cliKeys = make(map[types.NodeID]ed25519.PublicKey)
	}
	r.cliKeys[node] = pk
	r.cliMu.Unlock()
	return pk
}

// pairKey returns the symmetric key shared between nodes a and b.
func (r *KeyRing) pairKey(a, b types.NodeID) []byte {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	return r.derive("pairmac", uint64(uint32(lo)), uint64(uint32(hi)))
}

// thresholdKey returns replica i's key for the HMAC threshold scheme.
func (r *KeyRing) thresholdKey(i types.ReplicaID) []byte {
	return r.derive("thresh-hmac", uint64(i))
}

// NodeKeys returns the key material visible to one node.
func (r *KeyRing) NodeKeys(node types.NodeID) *NodeKeys {
	return &NodeKeys{
		ring: r,
		self: node,
		priv: r.privKey(node),
		macs: make(map[types.NodeID]*keyedMAC),
	}
}

// keyedMAC is one HMAC-SHA256 key's keyed hash states. hmac.New runs the
// key schedule once per state; after that, Reset returns a used state to
// the keyed start from saved copies of its pad states, so a tag costs the
// two SHA-256 passes over the message and nothing else. The pool lets
// concurrent callers — transport read goroutines, the egress loop — tag
// under one key without sharing a state.
type keyedMAC struct{ pool sync.Pool }

func newKeyedMAC(key []byte) *keyedMAC {
	k := &keyedMAC{}
	k.pool.New = func() any { return hmac.New(sha256.New, key) }
	return k
}

// sum appends the HMAC of label followed by msg to dst.
func (k *keyedMAC) sum(dst, label, msg []byte) []byte {
	h := k.pool.Get().(hash.Hash)
	h.Write(label)
	h.Write(msg)
	dst = h.Sum(dst)
	h.Reset()
	k.pool.Put(h)
	return dst
}

// check reports whether tag is the HMAC of label followed by msg,
// truncated to size bytes (at most sha256.Size).
func (k *keyedMAC) check(label, msg, tag []byte, size int) bool {
	if len(tag) != size {
		return false
	}
	var sum [sha256.Size]byte
	return hmac.Equal(k.sum(sum[:0], label, msg)[:size], tag)
}

// NodeKeys is one node's view of the key ring: its own private keys plus
// everyone's public keys. NodeKeys is safe for concurrent use (transport
// read goroutines verify with it while the egress loop signs).
type NodeKeys struct {
	ring *KeyRing
	self types.NodeID
	priv ed25519.PrivateKey

	// macs holds the keyed MAC state shared with each peer, built on first
	// use: deriving the pairwise key and keying an HMAC each cost a full
	// HMAC pass, which would otherwise be paid on every tag.
	macMu sync.RWMutex
	macs  map[types.NodeID]*keyedMAC
}

// pairMAC returns the keyed MAC state shared with peer, building it on
// first use.
func (k *NodeKeys) pairMAC(peer types.NodeID) *keyedMAC {
	k.macMu.RLock()
	m, ok := k.macs[peer]
	k.macMu.RUnlock()
	if ok {
		return m
	}
	m = newKeyedMAC(k.ring.pairKey(k.self, peer))
	k.macMu.Lock()
	if k.macs == nil || len(k.macs) >= 1<<17 {
		k.macs = make(map[types.NodeID]*keyedMAC)
	}
	k.macs[peer] = m
	k.macMu.Unlock()
	return m
}

// Self returns the owning node.
func (k *NodeKeys) Self() types.NodeID { return k.self }

// Sign produces an Ed25519 signature by this node over msg.
func (k *NodeKeys) Sign(msg []byte) []byte {
	return ed25519.Sign(k.priv, msg)
}

// VerifyFrom checks an Ed25519 signature allegedly produced by node from.
func (k *NodeKeys) VerifyFrom(from types.NodeID, msg, sig []byte) bool {
	if len(sig) != ed25519.SignatureSize {
		return false
	}
	edVerifies.Add(1)
	return ed25519.Verify(k.ring.PublicKey(from), msg, sig)
}

// MAC computes the HMAC tag for a message destined to peer.
func (k *NodeKeys) MAC(peer types.NodeID, msg []byte) []byte {
	return k.pairMAC(peer).sum(nil, nil, msg)
}

// CheckMAC verifies the HMAC tag on a message received from peer.
func (k *NodeKeys) CheckMAC(peer types.NodeID, msg, tag []byte) bool {
	return k.pairMAC(peer).check(nil, msg, tag, sha256.Size)
}

// RequestTagSize is the length of one client→replica request tag: an
// HMAC-SHA256 truncated to 128 bits, half the hash output — the shortest
// RFC 2104 recommends. A forger gets one online guess per proposal a primary
// is willing to burn, so 2⁻¹²⁸ per guess is ample, and the tag travels n
// times per request.
const RequestTagSize = 16

// requestTagLabel separates request tags from the other MACs computed under
// the same pairwise keys (INFORM and read-reply tags also cover a request
// digest), so a reply tag can never be replayed as a request tag.
var requestTagLabel = []byte("poe/request-auth")

func (k *NodeKeys) requestTag(dst []byte, peer types.NodeID, digest []byte) []byte {
	var sum [sha256.Size]byte
	return append(dst, k.pairMAC(peer).sum(sum[:0], requestTagLabel, digest)[:RequestTagSize]...)
}

// RequestAuth is the client side of the client→replica authenticator: one
// RequestTagSize tag per replica over a request digest, replica i's at
// offset i × RequestTagSize (types.Request.Auth).
func (k *NodeKeys) RequestAuth(n int, digest []byte) []byte {
	auth := make([]byte, 0, n*RequestTagSize)
	for i := 0; i < n; i++ {
		auth = k.requestTag(auth, types.ReplicaNode(types.ReplicaID(i)), digest)
	}
	return auth
}

// CheckRequestAuth is the replica side: it reports whether auth holds this
// replica's valid tag from client over digest. An authenticator too short to
// reach this replica's slot — absent, truncated, built for a smaller n — is
// simply not valid.
func (k *NodeKeys) CheckRequestAuth(client types.NodeID, digest, auth []byte) bool {
	off := int(k.self.Replica()) * RequestTagSize
	if !k.self.IsReplica() || off < 0 || len(auth) < off+RequestTagSize {
		return false
	}
	return k.pairMAC(client).check(requestTagLabel, digest, auth[off:off+RequestTagSize], RequestTagSize)
}

// Share is a threshold-signature share s〈v〉i produced by one replica.
type Share struct {
	Signer types.ReplicaID
	Data   []byte
}

// ErrNotEnoughShares is returned by Combine when fewer than Threshold() valid
// shares from distinct signers are supplied.
var ErrNotEnoughShares = errors.New("crypto: not enough valid threshold shares")

// ThresholdScheme is the signature-share interface the protocols use: any
// replica produces a Share; nf valid shares from distinct replicas Combine
// into a constant certificate verifiable by everyone (§II-A).
type ThresholdScheme interface {
	// Share produces this replica's signature share over msg.
	Share(msg []byte) Share
	// VerifyShare checks a share received from another replica.
	VerifyShare(msg []byte, s Share) bool
	// Combine aggregates at least Threshold() valid shares from distinct
	// replicas into a certificate.
	Combine(msg []byte, shares []Share) ([]byte, error)
	// Verify checks a certificate produced by Combine.
	Verify(msg []byte, cert []byte) bool
	// Threshold returns the number of distinct shares Combine requires.
	Threshold() int
}

// NewThresholdScheme builds the threshold scheme for the given replica. If
// unforgeable is true the Ed25519 multi-signature scheme is returned,
// otherwise the cheap HMAC scheme.
func NewThresholdScheme(ring *KeyRing, self types.ReplicaID, threshold int, unforgeable bool) ThresholdScheme {
	if unforgeable {
		return &EdThreshold{ring: ring, self: self, keys: ring.NodeKeys(types.ReplicaNode(self)), t: threshold}
	}
	return newHMACThreshold(ring, self, threshold)
}

// NewVerifier builds a verify-only threshold scheme for non-replica parties
// (clients checking aggregated certificates). Calling Share on it panics.
func NewVerifier(ring *KeyRing, threshold int, unforgeable bool) ThresholdScheme {
	if unforgeable {
		return &EdThreshold{ring: ring, self: -1, t: threshold}
	}
	return newHMACThreshold(ring, -1, threshold)
}

// EdThreshold implements ThresholdScheme as an Ed25519 multi-signature: the
// certificate is a signer bitmap followed by the constituent signatures.
// Stand-in for the paper's BLS signatures (DESIGN.md §3).
//
// EdThreshold is safe for concurrent use and remembers which shares and
// certificates it has already verified: the inbound check verifies shares
// on the transports' read goroutines as they arrive, and the replica event
// loop's later VerifyShare/Combine/Verify calls become cache hits instead
// of repeated Ed25519 operations. A Byzantine replica that forces a retry can
// therefore never make honest shares pay the verification cost twice.
type EdThreshold struct {
	ring *KeyRing
	self types.ReplicaID
	keys *NodeKeys
	t    int

	mu      sync.Mutex
	shareOK map[[32]byte]struct{} // shares proven valid
	certOK  map[[32]byte]struct{} // certificates proven valid
}

// cacheCap bounds the verified-share/certificate memo; exceeding it clears
// the map (a burst of re-verification, amortized away).
const cacheCap = 8192

// Threshold implements ThresholdScheme.
func (e *EdThreshold) Threshold() int { return e.t }

// Share implements ThresholdScheme.
func (e *EdThreshold) Share(msg []byte) Share {
	return Share{Signer: e.self, Data: e.keys.Sign(msg)}
}

// shareCacheKey binds a share to the message it signs.
func shareCacheKey(msg []byte, s Share) [32]byte {
	h := sha256.New()
	var id [4]byte
	binary.BigEndian.PutUint32(id[:], uint32(s.Signer))
	h.Write([]byte("share"))
	h.Write(id[:])
	h.Write(s.Data)
	h.Write(msg)
	var k [32]byte
	h.Sum(k[:0])
	return k
}

// certCacheKey binds a certificate to the message it certifies.
func certCacheKey(msg, cert []byte) [32]byte {
	h := sha256.New()
	h.Write([]byte("cert"))
	var l [8]byte
	binary.BigEndian.PutUint64(l[:], uint64(len(msg)))
	h.Write(l[:])
	h.Write(msg)
	h.Write(cert)
	var k [32]byte
	h.Sum(k[:0])
	return k
}

func (e *EdThreshold) rememberShare(k [32]byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.shareOK == nil || len(e.shareOK) >= cacheCap {
		e.shareOK = make(map[[32]byte]struct{})
	}
	e.shareOK[k] = struct{}{}
}

func (e *EdThreshold) rememberCert(k [32]byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.certOK == nil || len(e.certOK) >= cacheCap {
		e.certOK = make(map[[32]byte]struct{})
	}
	e.certOK[k] = struct{}{}
}

// VerifyShare implements ThresholdScheme. A share is Ed25519-verified at
// most once; subsequent checks of the same (message, share) pair are memo
// lookups.
func (e *EdThreshold) VerifyShare(msg []byte, s Share) bool {
	if s.Signer < 0 || int(s.Signer) >= e.ring.n || len(s.Data) != ed25519.SignatureSize {
		return false
	}
	k := shareCacheKey(msg, s)
	e.mu.Lock()
	_, hit := e.shareOK[k]
	e.mu.Unlock()
	if hit {
		return true
	}
	edVerifies.Add(1)
	if !ed25519.Verify(e.ring.PublicKey(types.ReplicaNode(s.Signer)), msg, s.Data) {
		return false
	}
	e.rememberShare(k)
	return true
}

// Combine implements ThresholdScheme. The certificate layout is:
//
//	uint16 count | count × (uint32 signer | 64-byte signature)
//
// Share validity checks are independent, so they fan out across the
// verification pool; shares the pipeline already verified cost a memo
// lookup.
func (e *EdThreshold) Combine(msg []byte, shares []Share) ([]byte, error) {
	uniq := make([]Share, 0, len(shares))
	seen := make(map[types.ReplicaID]bool, len(shares))
	for _, s := range shares {
		if s.Signer < 0 || int(s.Signer) >= e.ring.n || seen[s.Signer] {
			continue
		}
		seen[s.Signer] = true
		uniq = append(uniq, s)
	}
	ok := make([]bool, len(uniq))
	ParallelEach(len(uniq), func(i int) { ok[i] = e.VerifyShare(msg, uniq[i]) })
	var valid []Share
	for i, s := range uniq {
		if !ok[i] {
			continue
		}
		valid = append(valid, s)
		if len(valid) == e.t {
			break
		}
	}
	if len(valid) < e.t {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrNotEnoughShares, len(valid), e.t)
	}
	cert := make([]byte, 2, 2+len(valid)*(4+ed25519.SignatureSize))
	binary.BigEndian.PutUint16(cert, uint16(len(valid)))
	for _, s := range valid {
		var id [4]byte
		binary.BigEndian.PutUint32(id[:], uint32(s.Signer))
		cert = append(cert, id[:]...)
		cert = append(cert, s.Data...)
	}
	// The combiner proved every constituent share, so the certificate itself
	// is known-valid: remember it so a later Verify is a memo lookup.
	e.rememberCert(certCacheKey(msg, cert))
	return cert, nil
}

// Verify implements ThresholdScheme. Constituent signatures are checked
// concurrently on the verification pool; a certificate (or share) this
// scheme has already proven costs a memo lookup.
func (e *EdThreshold) Verify(msg []byte, cert []byte) bool {
	if len(cert) < 2 {
		return false
	}
	count := int(binary.BigEndian.Uint16(cert))
	if count < e.t || len(cert) != 2+count*(4+ed25519.SignatureSize) {
		return false
	}
	ck := certCacheKey(msg, cert)
	e.mu.Lock()
	_, hit := e.certOK[ck]
	e.mu.Unlock()
	if hit {
		return true
	}
	entries := make([]Share, 0, count)
	seen := make(map[types.ReplicaID]bool, count)
	off := 2
	for i := 0; i < count; i++ {
		signer := types.ReplicaID(binary.BigEndian.Uint32(cert[off:]))
		sig := cert[off+4 : off+4+ed25519.SignatureSize]
		off += 4 + ed25519.SignatureSize
		if signer < 0 || int(signer) >= e.ring.n || seen[signer] {
			return false
		}
		seen[signer] = true
		entries = append(entries, Share{Signer: signer, Data: sig})
	}
	// Certificate entries are exactly shares over msg, so the share memo is
	// shared between the two paths: a collector that verified the shares
	// gets the certificate check for free, and vice versa.
	if !ParallelAll(len(entries), func(i int) bool { return e.VerifyShare(msg, entries[i]) }) {
		return false
	}
	e.rememberCert(ck)
	return true
}

// HMACThreshold implements ThresholdScheme with per-replica HMAC keys known
// to all replicas. It is cheap (symmetric crypto only) but NOT byzantine
// unforgeable: any replica can forge any other replica's share. It exists to
// isolate protocol cost from public-key cost in experiments, mirroring the
// paper's observation that small deployments favour symmetric schemes.
type HMACThreshold struct {
	ring *KeyRing
	self types.ReplicaID
	t    int
	// keys holds each replica's keyed share MAC, built once here rather
	// than re-deriving the threshold key (itself a full HMAC) per share.
	keys []*keyedMAC
}

func newHMACThreshold(ring *KeyRing, self types.ReplicaID, threshold int) *HMACThreshold {
	h := &HMACThreshold{ring: ring, self: self, t: threshold, keys: make([]*keyedMAC, ring.n)}
	for i := range h.keys {
		h.keys[i] = newKeyedMAC(ring.thresholdKey(types.ReplicaID(i)))
	}
	return h
}

// Threshold implements ThresholdScheme.
func (h *HMACThreshold) Threshold() int { return h.t }

// Share implements ThresholdScheme.
func (h *HMACThreshold) Share(msg []byte) Share {
	return Share{Signer: h.self, Data: h.keys[h.self].sum(nil, nil, msg)}
}

// VerifyShare implements ThresholdScheme.
func (h *HMACThreshold) VerifyShare(msg []byte, s Share) bool {
	if s.Signer < 0 || int(s.Signer) >= h.ring.n {
		return false
	}
	return h.keys[s.Signer].check(nil, msg, s.Data, sha256.Size)
}

// Combine implements ThresholdScheme. The certificate layout matches
// EdThreshold but with 32-byte HMAC tags.
func (h *HMACThreshold) Combine(msg []byte, shares []Share) ([]byte, error) {
	seen := make(map[types.ReplicaID]bool, len(shares))
	var valid []Share
	for _, s := range shares {
		if seen[s.Signer] || !h.VerifyShare(msg, s) {
			continue
		}
		seen[s.Signer] = true
		valid = append(valid, s)
		if len(valid) == h.t {
			break
		}
	}
	if len(valid) < h.t {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrNotEnoughShares, len(valid), h.t)
	}
	cert := make([]byte, 2, 2+len(valid)*(4+sha256.Size))
	binary.BigEndian.PutUint16(cert, uint16(len(valid)))
	for _, s := range valid {
		var id [4]byte
		binary.BigEndian.PutUint32(id[:], uint32(s.Signer))
		cert = append(cert, id[:]...)
		cert = append(cert, s.Data...)
	}
	return cert, nil
}

// Verify implements ThresholdScheme.
func (h *HMACThreshold) Verify(msg []byte, cert []byte) bool {
	if len(cert) < 2 {
		return false
	}
	count := int(binary.BigEndian.Uint16(cert))
	if count < h.t || len(cert) != 2+count*(4+sha256.Size) {
		return false
	}
	seen := make(map[types.ReplicaID]bool, count)
	off := 2
	for i := 0; i < count; i++ {
		signer := types.ReplicaID(binary.BigEndian.Uint32(cert[off:]))
		tag := cert[off+4 : off+4+sha256.Size]
		off += 4 + sha256.Size
		if signer < 0 || int(signer) >= h.ring.n || seen[signer] {
			return false
		}
		seen[signer] = true
		if !h.keys[signer].check(nil, msg, tag, sha256.Size) {
			return false
		}
	}
	return true
}
