package harness

import (
	"testing"
	"time"

	"github.com/poexec/poe/internal/crypto"
)

// TestClientAuthVerifyBudget is the cost the client→replica authenticator
// exists to remove, as a count that does not depend on the machine: in a
// fault-free PoE run only the proposer checks a client's signature, so the
// replicas spend about one Ed25519 check per ordered transaction between
// them (the tenth allowed on top covers requests verified at the primary and
// still in flight at the end); under the ed scheme replicas do not
// authenticate by MAC and each of the n checks every transaction, as before.
func TestClientAuthVerifyBudget(t *testing.T) {
	run := func(t *testing.T, scheme crypto.Scheme) Result {
		t.Helper()
		opts := quickOpts(PoE)
		opts.Scheme = scheme
		opts.Measure = time.Second
		// No retransmission: a request broadcast to the backups may enter
		// their batchers too and is signature-checked there, which is the
		// rule working, not the cost being measured.
		opts.ClientTimeout = time.Minute
		res, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.ExecutedTxns < 200 || res.ViewChanges != 0 {
			t.Fatalf("not a fault-free run worth counting: %d txns, %d view changes", res.ExecutedTxns, res.ViewChanges)
		}
		t.Logf("%v: %d client signature checks for %d ordered txns (%.2f per txn)", scheme,
			res.ClientSigVerifies, res.ExecutedTxns, float64(res.ClientSigVerifies)/float64(res.ExecutedTxns))
		return res
	}
	for _, scheme := range []crypto.Scheme{crypto.SchemeMAC, crypto.SchemeTS} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			res := run(t, scheme)
			if float64(res.ClientSigVerifies) > 1.1*float64(res.ExecutedTxns) {
				t.Fatalf("%d client signature checks for %d ordered txns: more than 1.1 each", res.ClientSigVerifies, res.ExecutedTxns)
			}
		})
	}
	t.Run("ed", func(t *testing.T) {
		res := run(t, crypto.SchemeED)
		if res.ClientSigVerifies < int64(res.N)*res.ExecutedTxns {
			t.Fatalf("%d client signature checks for %d ordered txns under ed: fewer than n = %d each", res.ClientSigVerifies, res.ExecutedTxns, res.N)
		}
	})
}

// TestClientAuthChaosForgedRequest: a Byzantine primary colluding with a
// client pushes a request with an invalid signature whose only genuine MAC
// tag is the one for the next view's primary. That backup supports the
// proposals, the other two drop them, no quorum forms and the view changes —
// after which the forged request must be gone for good: the new primary took
// it on its tag, which left nothing behind that would let it propose the
// request, and no honest replica ever executes it.
func TestClientAuthChaosForgedRequest(t *testing.T) {
	rep, err := RunChaos(ChaosOptions{
		Options: chaosOpts(PoE),
		Attack:  AttackForge,
	})
	checkChaos(t, rep, err)
	if rep.ViewChangesDone == 0 {
		t.Fatal("the forging primary was never replaced")
	}
	if rep.ForgedExecuted != 0 {
		t.Fatalf("%d honest replicas executed the forged request", rep.ForgedExecuted)
	}
}
