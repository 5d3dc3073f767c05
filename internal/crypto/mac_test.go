package crypto

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"sync"
	"testing"

	"github.com/poexec/poe/internal/types"
)

// plainHMAC is the reference a keyed state must match byte for byte: a
// fresh hmac.New over the concatenated parts.
func plainHMAC(key []byte, parts ...[]byte) []byte {
	m := hmac.New(sha256.New, key)
	for _, p := range parts {
		m.Write(p)
	}
	return m.Sum(nil)
}

// TestKeyedMACMatchesHMAC: pairwise tags, request tags and HMAC threshold
// shares made from reused keyed states are the tags a fresh hmac.New makes,
// however many tags the state made before.
func TestKeyedMACMatchesHMAC(t *testing.T) {
	const n = 4
	r := ring(n)
	k0 := r.NodeKeys(types.ReplicaNode(0))
	client := types.NthClient(7)
	ck := r.NodeKeys(client)
	ts := NewThresholdScheme(r, 2, 3, false)
	for i := 0; i < 5; i++ {
		msg := benchMsg(i)
		peer := types.ReplicaNode(1)
		if got, want := k0.MAC(peer, msg), plainHMAC(r.pairKey(0, peer), msg); !bytes.Equal(got, want) {
			t.Fatalf("MAC %d = %x, want %x", i, got, want)
		}
		auth := ck.RequestAuth(n, msg)
		for j := 0; j < n; j++ {
			want := plainHMAC(r.pairKey(client, types.ReplicaNode(types.ReplicaID(j))), requestTagLabel, msg)[:RequestTagSize]
			if got := auth[j*RequestTagSize : (j+1)*RequestTagSize]; !bytes.Equal(got, want) {
				t.Fatalf("request tag %d for replica %d = %x, want %x", i, j, got, want)
			}
		}
		if got, want := ts.Share(msg).Data, plainHMAC(r.thresholdKey(2), msg); !bytes.Equal(got, want) {
			t.Fatalf("share %d = %x, want %x", i, got, want)
		}
	}
}

// TestKeyedMACAllocs bounds what one tag costs the allocator: a keyed state
// is reused, so making a MAC allocates only its result and checking a MAC,
// a request tag or an HMAC share at most one buffer.
func TestKeyedMACAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops states under the race detector")
	}
	const n = 4
	r := ring(n)
	k0 := r.NodeKeys(types.ReplicaNode(0))
	k1 := r.NodeKeys(types.ReplicaNode(1))
	client := types.NthClient(3)
	msg := benchMsg(1)
	tag := k0.MAC(types.ReplicaNode(1), msg)
	auth := r.NodeKeys(client).RequestAuth(n, msg)
	ts := NewThresholdScheme(r, 0, 3, false)
	share := NewThresholdScheme(r, 1, 3, false).Share(msg)
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"MAC", func() { k0.MAC(types.ReplicaNode(1), msg) }},
		{"CheckMAC", func() {
			if !k1.CheckMAC(types.ReplicaNode(0), msg, tag) {
				t.Fatal("valid MAC rejected")
			}
		}},
		{"CheckRequestAuth", func() {
			if !k1.CheckRequestAuth(client, msg, auth) {
				t.Fatal("valid request tag rejected")
			}
		}},
		{"HMACThreshold.VerifyShare", func() {
			if !ts.VerifyShare(msg, share) {
				t.Fatal("valid share rejected")
			}
		}},
	} {
		c.f() // build the keyed state outside the count
		if got := testing.AllocsPerRun(200, c.f); got > 1 {
			t.Errorf("%s allocates %.1f times per call, want <= 1", c.name, got)
		}
	}
}

// TestKeyedMACConcurrent: goroutines tagging under one key at once each get
// the same tag — a pooled state is never shared mid-tag.
func TestKeyedMACConcurrent(t *testing.T) {
	r := ring(4)
	k0 := r.NodeKeys(types.ReplicaNode(0))
	k1 := r.NodeKeys(types.ReplicaNode(1))
	ts := NewThresholdScheme(r, 0, 3, false)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				msg := benchMsg(g*1000 + i)
				if !k1.CheckMAC(types.ReplicaNode(0), msg, k0.MAC(types.ReplicaNode(1), msg)) {
					t.Errorf("goroutine %d: MAC %d rejected", g, i)
					return
				}
				if !ts.VerifyShare(msg, ts.Share(msg)) {
					t.Errorf("goroutine %d: share %d rejected", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
