package crypto

import (
	"testing"

	"github.com/poexec/poe/internal/types"
)

// TestQuorumStashFixAndResend walks one certificate through the quorum's
// policy with the Ed25519 scheme, counting raw verifications at every step:
// shares stashed before Fix cost nothing until Fix verifies them, a mismatch
// is dropped and its sender's correct resend is taken, duplicates and
// shares signed by someone other than their sender are refused for free,
// the own share goes in unchecked, and every share is Ed25519-verified
// exactly once for the whole certificate.
func TestQuorumStashFixAndResend(t *testing.T) {
	_, schemes := thresholdSetup(t, 4, 3)
	msg := []byte("slot-digest")
	q := NewQuorum(schemes[0], 0)

	step := func(name string, want int64, f func()) {
		t.Helper()
		base := EdVerifyCount()
		f()
		if d := EdVerifyCount() - base; d != want {
			t.Fatalf("%s: %d raw verifications, want %d", name, d, want)
		}
	}

	// Before Fix: stashed unverified, whatever they sign.
	step("stash", 0, func() {
		if !q.Add(1, schemes[1].Share(msg)) || !q.Add(2, schemes[2].Share([]byte("wrong"))) {
			t.Fatal("stash refused a share before Fix")
		}
	})
	if q.Len() != 2 {
		t.Fatalf("before Fix: len %d, want 2", q.Len())
	}

	// Fix verifies the stash once and drops the mismatch.
	step("fix", 2, func() { q.Fix(msg) })
	if q.Len() != 1 || !q.Has(1) || q.Has(2) {
		t.Fatalf("after Fix: len=%d has1=%v has2=%v, want only replica 1", q.Len(), q.Has(1), q.Has(2))
	}

	// Refused without a verification: a duplicate, and a share whose signer
	// is not its sender.
	step("refusals", 0, func() {
		if q.Add(1, schemes[1].Share(msg)) {
			t.Fatal("duplicate share taken")
		}
		if q.Add(3, schemes[2].Share(msg)) {
			t.Fatal("share signed by replica 2 taken as replica 3's")
		}
	})

	// An invalid share after Fix is refused and does not take the sender's
	// place: the correct resend is taken.
	step("invalid after fix", 1, func() {
		if q.Add(3, schemes[3].Share([]byte("wrong"))) {
			t.Fatal("invalid share taken after Fix")
		}
	})
	step("resends", 2, func() {
		if !q.Add(2, schemes[2].Share(msg)) || !q.Add(3, schemes[3].Share(msg)) {
			t.Fatal("correct resend refused")
		}
	})

	// The own share goes in unchecked.
	step("own share", 0, func() {
		if !q.Add(0, schemes[0].Share(msg)) {
			t.Fatal("own share refused")
		}
	})
	if q.Len() != 4 {
		t.Fatalf("len %d, want 4", q.Len())
	}

	// Combine re-checks through the share memo: only the own share, never
	// verified before, pays.
	var cert []byte
	step("combine", 1, func() {
		var err error
		if cert, err = q.Combine(); err != nil {
			t.Fatalf("combine: %v", err)
		}
	})
	if !schemes[1].Verify(msg, cert) {
		t.Fatal("certificate does not verify")
	}
}

// TestQuorumOwnShareUnchecked: a quorum takes its own replica's share on
// trust, but one with no own replica (-1) checks every share, its
// replica's included.
func TestQuorumOwnShareUnchecked(t *testing.T) {
	_, schemes := thresholdSetup(t, 4, 3)
	msg := []byte("slot-digest")
	bogus := Share{Signer: 0, Data: make([]byte, 64)}

	own := NewQuorum(schemes[0], 0)
	own.Fix(msg)
	if !own.Add(0, bogus) {
		t.Fatal("own share was checked")
	}
	relayed := NewQuorum(schemes[0], -1)
	relayed.Fix(msg)
	if relayed.Add(0, bogus) {
		t.Fatal("quorum without an own replica took a forged share unchecked")
	}
	if !relayed.Add(0, schemes[0].Share(msg)) {
		t.Fatal("valid share refused")
	}
}

// TestQuorumHMAC runs the policy over the HMAC scheme, which has no memo: an
// invalid share after Fix is refused, and nf valid ones combine.
func TestQuorumHMAC(t *testing.T) {
	ring := NewKeyRing(4, []byte("quorum-hmac"))
	ts := func(i int) ThresholdScheme { return NewThresholdScheme(ring, types.ReplicaID(i), 3, false) }
	msg := []byte("slot-digest")
	q := NewQuorum(ts(0), 0)
	q.Fix(msg)
	if q.Add(1, ts(1).Share([]byte("wrong"))) {
		t.Fatal("invalid share taken")
	}
	for i := 0; i < 3; i++ {
		if !q.Add(types.ReplicaID(i), ts(i).Share(msg)) {
			t.Fatalf("share %d refused", i)
		}
	}
	cert, err := q.Combine()
	if err != nil || !ts(3).Verify(msg, cert) {
		t.Fatalf("combine: %v", err)
	}
}
