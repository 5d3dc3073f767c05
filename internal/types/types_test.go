package types

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func TestPrimaryRotation(t *testing.T) {
	for v := View(0); v < 10; v++ {
		if got := v.Primary(4); got != ReplicaID(v%4) {
			t.Fatalf("view %d: primary %d", v, got)
		}
	}
}

func TestNodeAddressing(t *testing.T) {
	r := ReplicaNode(3)
	if !r.IsReplica() || r.IsClient() || r.Replica() != 3 {
		t.Fatal("replica node misclassified")
	}
	c := NthClient(7)
	if !c.IsClient() || c.IsReplica() {
		t.Fatal("client node misclassified")
	}
	if c.Client() != ClientIDBase+7 {
		t.Fatalf("client id %d", c.Client())
	}
	if r.String() != "r3" || c.String() != "c7" {
		t.Fatalf("string forms %q %q", r, c)
	}
}

func TestDigestConcatFraming(t *testing.T) {
	// Length framing prevents concatenation ambiguity.
	a := DigestConcat([]byte("ab"), []byte("c"))
	b := DigestConcat([]byte("a"), []byte("bc"))
	if a == b {
		t.Fatal("DigestConcat is ambiguous under re-splitting")
	}
}

func TestTransactionDigestSensitivity(t *testing.T) {
	base := Transaction{Client: ClientIDBase, Seq: 1, Ops: []Op{{Kind: OpWrite, Key: "k", Value: []byte("v")}}}
	d := base.Digest()
	variants := []Transaction{
		{Client: ClientIDBase + 1, Seq: 1, Ops: base.Ops},
		{Client: ClientIDBase, Seq: 2, Ops: base.Ops},
		{Client: ClientIDBase, Seq: 1, Ops: []Op{{Kind: OpRead, Key: "k", Value: []byte("v")}}},
		{Client: ClientIDBase, Seq: 1, Ops: []Op{{Kind: OpWrite, Key: "k2", Value: []byte("v")}}},
		{Client: ClientIDBase, Seq: 1, Ops: []Op{{Kind: OpWrite, Key: "k", Value: []byte("v2")}}},
	}
	for i, v := range variants {
		if v.Digest() == d {
			t.Fatalf("variant %d collides with base digest", i)
		}
	}
	// TimeNanos is deliberately part of the digest (it salts retransmitted
	// distinct transactions), so identical content hashes identically.
	same := Transaction{Client: ClientIDBase, Seq: 1, Ops: base.Ops}
	if same.Digest() != d {
		t.Fatal("identical transaction hashed differently")
	}
}

func TestBatchDigestAndSize(t *testing.T) {
	b1 := Batch{Requests: []Request{{Txn: Transaction{Client: ClientIDBase, Seq: 1}}}}
	b2 := Batch{Requests: []Request{{Txn: Transaction{Client: ClientIDBase, Seq: 2}}}}
	if b1.Digest() == b2.Digest() {
		t.Fatal("different batches share a digest")
	}
	if b1.Size() != 1 {
		t.Fatalf("size %d", b1.Size())
	}
	z := Batch{ZeroPayload: true, ZeroCount: 100}
	if z.Size() != 100 {
		t.Fatalf("zero-payload size %d", z.Size())
	}
	empty := Batch{}
	if z.Digest() == empty.Digest() {
		t.Fatal("zero-payload batch digest equals empty batch digest")
	}
}

// TestQuickProposalDigestInjective: distinct (k, v) pairs give distinct
// proposal digests — the binding Proposition 2 relies on.
func TestQuickProposalDigestInjective(t *testing.T) {
	f := func(k1, v1, k2, v2 uint32, payload []byte) bool {
		d := DigestBytes(payload)
		h1 := ProposalDigest(SeqNum(k1), View(v1), d)
		h2 := ProposalDigest(SeqNum(k2), View(v2), d)
		if k1 == k2 && v1 == v2 {
			return h1 == h2
		}
		return h1 != h2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestExecRecordEncodingIgnoresAuth pins the execution-record encoding — the
// WAL, snapshot, FetchReply and VC-REQUEST entry format — to the bytes it had
// before requests carried a client→replica authenticator, with and without
// one set: a WAL written before that change replays, and the storage format
// version did not have to move.
func TestExecRecordEncodingIgnoresAuth(t *testing.T) {
	const golden = "000000000000000700000000000000024bb24efc9641afc5ded1ca77eabb6e2fcf062d2112ccd61bd8bd6acd89180bae" +
		"00000004636572740000000000000000000000000200100001000000000000000900000000000004d2000000000101000000016b" +
		"00000001760000000301020300100002000000000000000100000000000000000100000001000000000172000000000000000104"
	rec := ExecRecord{
		Seq: 7, View: 2, Digest: DigestBytes([]byte("batch")), Proof: []byte("cert"),
		Batch: Batch{Requests: []Request{
			{Txn: Transaction{Client: ClientIDBase + 1, Seq: 9, TimeNanos: 1234, Ops: []Op{{Kind: OpWrite, Key: "k", Value: []byte("v")}}}, Sig: []byte{1, 2, 3}},
			{Txn: Transaction{Client: ClientIDBase + 2, Seq: 1, Consistency: ConsistencyStrong, Ops: []Op{{Kind: OpRead, Key: "r"}}}, Sig: []byte{4}},
		}},
	}
	if got := hex.EncodeToString(rec.AppendWire(nil)); got != golden {
		t.Fatalf("record encoding changed:\n got %s\nwant %s", got, golden)
	}
	rec.Batch.Requests[0].Auth = bytes.Repeat([]byte{0xaa}, 64)
	rec.Batch.Requests[1].Auth = []byte{1, 2, 3}
	if got := hex.EncodeToString(rec.AppendWire(nil)); got != golden {
		t.Fatalf("Auth leaked into the record encoding:\n got %s\nwant %s", got, golden)
	}
	// The proposal form of the same batch does carry it, and a request
	// digest does not cover it.
	plain := rec.Batch.Clone()
	for i := range plain.Requests {
		plain.Requests[i].Auth = nil
	}
	if bytes.Equal(rec.Batch.AppendProposal(nil), plain.AppendProposal(nil)) {
		t.Fatal("proposal encoding dropped Auth")
	}
	if rec.Batch.Digest() != plain.Digest() {
		t.Fatal("Auth changed the batch digest")
	}
	var back ExecRecord
	if err := back.Unmarshal(rec.AppendWire(nil)); err != nil {
		t.Fatal(err)
	}
	if back.Batch.Requests[0].Auth != nil || back.Batch.Digest() != rec.Batch.Digest() {
		t.Fatal("decoded record differs from the one encoded")
	}
}
