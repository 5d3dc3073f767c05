package crypto

import (
	"bytes"
	"testing"
	"testing/quick"

	"github.com/poexec/poe/internal/types"
)

func ring(n int) *KeyRing { return NewKeyRing(n, []byte("crypto-test")) }

func TestDeterministicKeyDerivation(t *testing.T) {
	a := NewKeyRing(4, []byte("seed"))
	b := NewKeyRing(4, []byte("seed"))
	for i := 0; i < 4; i++ {
		node := types.ReplicaNode(types.ReplicaID(i))
		if !bytes.Equal(a.PublicKey(node), b.PublicKey(node)) {
			t.Fatalf("replica %d keys differ across identically seeded rings", i)
		}
	}
	c := NewKeyRing(4, []byte("other"))
	if bytes.Equal(a.PublicKey(0), c.PublicKey(0)) {
		t.Fatal("different seeds produced identical keys")
	}
}

func TestSchemeNameRoundTrip(t *testing.T) {
	for _, s := range []Scheme{SchemeNone, SchemeMAC, SchemeTS, SchemeED} {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseScheme(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	if _, err := ParseScheme("cmac"); err == nil {
		t.Fatal("ParseScheme accepted an unknown name")
	}
}

func TestSignVerify(t *testing.T) {
	r := ring(4)
	k0 := r.NodeKeys(types.ReplicaNode(0))
	k1 := r.NodeKeys(types.ReplicaNode(1))
	msg := []byte("payload")
	sig := k0.Sign(msg)
	if !k1.VerifyFrom(types.ReplicaNode(0), msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if k1.VerifyFrom(types.ReplicaNode(1), msg, sig) {
		t.Fatal("signature attributed to wrong signer accepted")
	}
	if k1.VerifyFrom(types.ReplicaNode(0), []byte("other"), sig) {
		t.Fatal("signature over wrong message accepted")
	}
	if k1.VerifyFrom(types.ReplicaNode(0), msg, sig[:10]) {
		t.Fatal("truncated signature accepted")
	}
}

func TestMACPairwise(t *testing.T) {
	r := ring(4)
	k0 := r.NodeKeys(types.ReplicaNode(0))
	k1 := r.NodeKeys(types.ReplicaNode(1))
	k2 := r.NodeKeys(types.ReplicaNode(2))
	msg := []byte("hello")
	tag := k0.MAC(types.ReplicaNode(1), msg)
	if !k1.CheckMAC(types.ReplicaNode(0), msg, tag) {
		t.Fatal("valid MAC rejected")
	}
	if k2.CheckMAC(types.ReplicaNode(0), msg, tag) {
		t.Fatal("MAC for a different pair accepted")
	}
	if k1.CheckMAC(types.ReplicaNode(0), []byte("tampered"), tag) {
		t.Fatal("MAC over wrong message accepted")
	}
}

func testThreshold(t *testing.T, unforgeable bool) {
	t.Helper()
	const n, nf = 4, 3
	r := ring(n)
	schemes := make([]ThresholdScheme, n)
	for i := 0; i < n; i++ {
		schemes[i] = NewThresholdScheme(r, types.ReplicaID(i), nf, unforgeable)
	}
	msg := []byte("proposal-digest")
	var shares []Share
	for i := 0; i < n; i++ {
		sh := schemes[i].Share(msg)
		if !schemes[(i+1)%n].VerifyShare(msg, sh) {
			t.Fatalf("share %d rejected", i)
		}
		shares = append(shares, sh)
	}
	// Too few shares.
	if _, err := schemes[0].Combine(msg, shares[:nf-1]); err == nil {
		t.Fatal("combine with nf-1 shares should fail")
	}
	// Duplicate signers don't count twice.
	if _, err := schemes[0].Combine(msg, []Share{shares[0], shares[0], shares[0]}); err == nil {
		t.Fatal("combine with duplicate signers should fail")
	}
	cert, err := schemes[0].Combine(msg, shares[:nf])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if !schemes[i].Verify(msg, cert) {
			t.Fatalf("certificate rejected by replica %d", i)
		}
	}
	if schemes[0].Verify([]byte("other"), cert) {
		t.Fatal("certificate accepted for wrong message")
	}
	if schemes[0].Verify(msg, cert[:len(cert)-1]) {
		t.Fatal("truncated certificate accepted")
	}
	// A flipped byte in a share invalidates the certificate.
	bad := append([]byte(nil), cert...)
	bad[len(bad)-1] ^= 1
	if schemes[0].Verify(msg, bad) {
		t.Fatal("tampered certificate accepted")
	}
}

func TestEdThreshold(t *testing.T)   { testThreshold(t, true) }
func TestHMACThreshold(t *testing.T) { testThreshold(t, false) }

func TestEdThresholdForgeryByCoalition(t *testing.T) {
	// f byzantine replicas (here 1 of 4, nf = 3) cannot mint a certificate:
	// they hold only their own shares.
	const n, nf = 4, 3
	r := ring(n)
	byz := NewThresholdScheme(r, 0, nf, true)
	msg := []byte("forged-proposal")
	own := byz.Share(msg)
	if _, err := byz.Combine(msg, []Share{own}); err == nil {
		t.Fatal("single byzantine replica combined a certificate")
	}
	// Fabricated shares for other signers must be rejected.
	fake := Share{Signer: 1, Data: own.Data}
	if byz.VerifyShare(msg, fake) {
		t.Fatal("share forged in another replica's name accepted")
	}
}

func TestVerifierIsVerifyOnly(t *testing.T) {
	const n, nf = 4, 3
	r := ring(n)
	schemes := make([]ThresholdScheme, nf)
	var shares []Share
	msg := []byte("m")
	for i := 0; i < nf; i++ {
		schemes[i] = NewThresholdScheme(r, types.ReplicaID(i), nf, true)
		shares = append(shares, schemes[i].Share(msg))
	}
	cert, err := schemes[0].Combine(msg, shares)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(r, nf, true)
	if !v.Verify(msg, cert) {
		t.Fatal("verifier rejected a valid certificate")
	}
}

// TestQuickThresholdRoundTrip: any nf-subset of valid shares combines into a
// certificate that verifies, for both schemes.
func TestQuickThresholdRoundTrip(t *testing.T) {
	r := ring(7) // n=7, f=2, nf=5
	const nf = 5
	ed := make([]ThresholdScheme, 7)
	hm := make([]ThresholdScheme, 7)
	for i := 0; i < 7; i++ {
		ed[i] = NewThresholdScheme(r, types.ReplicaID(i), nf, true)
		hm[i] = NewThresholdScheme(r, types.ReplicaID(i), nf, false)
	}
	f := func(msg []byte, perm uint8) bool {
		if len(msg) == 0 {
			msg = []byte{0}
		}
		start := int(perm) % 3
		for _, schemes := range [][]ThresholdScheme{ed, hm} {
			var shares []Share
			for i := start; i < start+nf; i++ {
				shares = append(shares, schemes[i].Share(msg))
			}
			cert, err := schemes[0].Combine(msg, shares)
			if err != nil {
				return false
			}
			if !schemes[6].Verify(msg, cert) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRequestAuth(t *testing.T) {
	const n = 4
	r := ring(n)
	client := types.NthClient(3)
	digest := types.DigestBytes([]byte("request"))
	auth := r.NodeKeys(client).RequestAuth(n, digest[:])
	if len(auth) != n*RequestTagSize {
		t.Fatalf("authenticator is %d bytes, want %d", len(auth), n*RequestTagSize)
	}
	other := types.DigestBytes([]byte("another request"))
	for i := 0; i < n; i++ {
		k := r.NodeKeys(types.ReplicaNode(types.ReplicaID(i)))
		if !k.CheckRequestAuth(client, digest[:], auth) {
			t.Fatalf("replica %d rejected its own tag", i)
		}
		if k.CheckRequestAuth(types.NthClient(4), digest[:], auth) {
			t.Fatalf("replica %d accepted the tag for another client", i)
		}
		if k.CheckRequestAuth(client, other[:], auth) {
			t.Fatalf("replica %d accepted the tag over another digest", i)
		}
		// Every other replica's tag in this replica's slot is just a wrong tag.
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			moved := make([]byte, len(auth))
			copy(moved[i*RequestTagSize:], auth[j*RequestTagSize:(j+1)*RequestTagSize])
			if k.CheckRequestAuth(client, digest[:], moved) {
				t.Fatalf("replica %d accepted replica %d's tag", i, j)
			}
		}
		// Anything too short to hold this replica's slot is not valid.
		for cut := 0; cut < (i+1)*RequestTagSize; cut++ {
			if k.CheckRequestAuth(client, digest[:], auth[:cut]) {
				t.Fatalf("replica %d accepted an authenticator cut to %d bytes", i, cut)
			}
		}
	}
	// A reply tag over the same digest under the same pairwise key is not a
	// request tag.
	k1 := r.NodeKeys(types.ReplicaNode(1))
	reply := make([]byte, n*RequestTagSize)
	copy(reply[RequestTagSize:], k1.MAC(client, digest[:])[:RequestTagSize])
	if k1.CheckRequestAuth(client, digest[:], reply) {
		t.Fatal("a reply MAC passed as a request tag")
	}
	if r.NodeKeys(client).CheckRequestAuth(client, digest[:], auth) {
		t.Fatal("a client checked a request authenticator")
	}
}
