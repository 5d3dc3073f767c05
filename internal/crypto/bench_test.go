package crypto

import (
	"encoding/binary"
	"fmt"
	"testing"

	"github.com/poexec/poe/internal/types"
)

// Micro-benchmarks isolating the crypto substrate the consensus benchmarks
// sit on: threshold-share combination, certificate verification, and
// client-request signature checking, each sequential (one worker) vs. pooled
// (GOMAXPROCS workers). Every iteration uses a fresh message so the
// verified-share/certificate memo never hits — these measure raw
// verification throughput, not the memo. On a single-core machine "seq" and
// "pool" converge; the pooled variants show their gain on multi-core
// hardware.

var benchNs = []int{4, 16, 32}

func benchModes(b *testing.B, run func(b *testing.B)) {
	for _, mode := range []struct {
		name    string
		workers int
	}{{"seq", 1}, {"pool", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			SetVerifyWorkers(mode.workers)
			defer SetVerifyWorkers(0)
			run(b)
		})
	}
}

func benchMsg(i int) []byte {
	m := make([]byte, 32)
	binary.BigEndian.PutUint64(m, uint64(i))
	return m
}

func BenchmarkEdThresholdCombine(b *testing.B) {
	for _, n := range benchNs {
		thresh := n - (n-1)/3
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ring := NewKeyRing(n, []byte("bench"))
			signers := make([]ThresholdScheme, n)
			for i := range signers {
				signers[i] = NewThresholdScheme(ring, types.ReplicaID(i), thresh, true)
			}
			benchModes(b, func(b *testing.B) {
				combiner := NewThresholdScheme(ring, 0, thresh, true)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					msg := benchMsg(i)
					shares := make([]Share, thresh)
					for j := 0; j < thresh; j++ {
						shares[j] = signers[j].Share(msg)
					}
					b.StartTimer()
					if _, err := combiner.Combine(msg, shares); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

func BenchmarkEdThresholdVerify(b *testing.B) {
	for _, n := range benchNs {
		thresh := n - (n-1)/3
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ring := NewKeyRing(n, []byte("bench"))
			signers := make([]ThresholdScheme, n)
			for i := range signers {
				signers[i] = NewThresholdScheme(ring, types.ReplicaID(i), thresh, true)
			}
			combiner := NewThresholdScheme(ring, 0, thresh, true)
			benchModes(b, func(b *testing.B) {
				verifier := NewVerifier(ring, thresh, true)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					msg := benchMsg(i)
					shares := make([]Share, thresh)
					for j := 0; j < thresh; j++ {
						shares[j] = signers[j].Share(msg)
					}
					cert, err := combiner.Combine(msg, shares)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if !verifier.Verify(msg, cert) {
						b.Fatal("certificate rejected")
					}
				}
			})
		})
	}
}

// BenchmarkVerifyClientRequest measures checking the client signatures of a
// whole batch (n requests from distinct clients), the per-proposal work the
// authentication pipeline fans out.
func BenchmarkVerifyClientRequest(b *testing.B) {
	for _, n := range benchNs {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ring := NewKeyRing(4, []byte("bench"))
			benchModes(b, func(b *testing.B) {
				keys := ring.NodeKeys(types.ReplicaNode(0))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					reqs := make([]types.Request, n)
					for j := range reqs {
						client := types.ClientIDBase + types.ClientID(j)
						reqs[j] = types.Request{Txn: types.Transaction{
							Client: client, Seq: uint64(i + 1),
							Ops: []types.Op{{Kind: types.OpWrite, Key: "k", Value: benchMsg(i)}},
						}}
						d := reqs[j].Digest()
						reqs[j].Sig = ring.NodeKeys(types.ClientNode(client)).Sign(d[:])
					}
					b.StartTimer()
					ok := ParallelAll(len(reqs), func(j int) bool {
						d := reqs[j].Digest()
						return keys.VerifyFrom(types.ClientNode(reqs[j].Txn.Client), d[:], reqs[j].Sig)
					})
					if !ok {
						b.Fatal("signature rejected")
					}
				}
			})
		})
	}
}

// BenchmarkClientAuth measures the client→replica request authenticator at
// the paper's system sizes: what a client pays to fill it (n tags beside its
// one signature) and what a replica pays to check its own tag — the check
// that replaces an Ed25519 verification on every backup. B/req is the
// authenticator's size, carried once from the client and once in the
// proposal.
func BenchmarkClientAuth(b *testing.B) {
	for _, n := range benchNs {
		ring := NewKeyRing(n, []byte("bench"))
		client := types.NthClient(0)
		clientKeys := ring.NodeKeys(client)
		replicaKeys := ring.NodeKeys(types.ReplicaNode(types.ReplicaID(n - 1)))
		digest := types.DigestBytes(benchMsg(n))
		b.Run(fmt.Sprintf("fill/n=%d", n), func(b *testing.B) {
			var auth []byte
			for i := 0; i < b.N; i++ {
				auth = clientKeys.RequestAuth(n, digest[:])
			}
			b.ReportMetric(float64(len(auth)), "B/req")
		})
		b.Run(fmt.Sprintf("check/n=%d", n), func(b *testing.B) {
			auth := clientKeys.RequestAuth(n, digest[:])
			for i := 0; i < b.N; i++ {
				if !replicaKeys.CheckRequestAuth(client, digest[:], auth) {
					b.Fatal("tag rejected")
				}
			}
		})
	}
}

// tagSink keeps the benchmarked tags live so the calls are not optimized away.
var tagSink []byte

// BenchmarkMAC measures one pairwise tag: made (an INFORM's or a broadcast's
// authenticator) and checked (every inbound replica message in MAC mode).
func BenchmarkMAC(b *testing.B) {
	ring := NewKeyRing(4, []byte("bench"))
	k0 := ring.NodeKeys(types.ReplicaNode(0))
	k1 := ring.NodeKeys(types.ReplicaNode(1))
	msg := benchMsg(1)
	tag := k0.MAC(types.ReplicaNode(1), msg)
	b.Run("make", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tagSink = k0.MAC(types.ReplicaNode(1), msg)
		}
	})
	b.Run("check", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !k1.CheckMAC(types.ReplicaNode(0), msg, tag) {
				b.Fatal("tag rejected")
			}
		}
	})
}

// BenchmarkHMACShare measures the HMAC threshold scheme's share: made, and
// verified by another replica.
func BenchmarkHMACShare(b *testing.B) {
	ring := NewKeyRing(4, []byte("bench"))
	signer := NewThresholdScheme(ring, 1, 3, false)
	checker := NewThresholdScheme(ring, 0, 3, false)
	msg := benchMsg(1)
	share := signer.Share(msg)
	b.Run("share", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tagSink = signer.Share(msg).Data
		}
	})
	b.Run("verify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !checker.VerifyShare(msg, share) {
				b.Fatal("share rejected")
			}
		}
	})
}
