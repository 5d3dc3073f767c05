package wire_test

// Cross-package codec conformance: every registered message type must
// survive encode → decode → encode byte-identically (the canonical-form
// contract the digest-from-encoding optimization relies on), including
// zero values and oversized edge cases, and the decoder must never panic on
// arbitrary bytes (FuzzWireDecode).

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/poexec/poe/internal/consensus/hotstuff"
	"github.com/poexec/poe/internal/consensus/pbft"
	"github.com/poexec/poe/internal/consensus/poe"
	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/consensus/sbft"
	"github.com/poexec/poe/internal/consensus/zyzzyva"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/wire"
)

func sampleRequest(i int) types.Request {
	return types.Request{
		Txn: types.Transaction{
			Client:    types.ClientIDBase + types.ClientID(i),
			Seq:       uint64(i),
			TimeNanos: int64(1000 * i),
			Ops: []types.Op{
				{Kind: types.OpWrite, Key: fmt.Sprintf("key-%d", i), Value: []byte("value")},
				{Kind: types.OpRead, Key: "other"},
				{Kind: types.OpNoop},
			},
		},
		Sig: []byte{byte(i), 2, 3},
	}
}

func sampleRead(i int) types.Request {
	return types.Request{
		Txn: types.Transaction{
			Client:      types.ClientIDBase + types.ClientID(i),
			Seq:         uint64(i),
			TimeNanos:   int64(1000 * i),
			Consistency: types.ConsistencySpeculative,
			Ops: []types.Op{
				{Kind: types.OpRead, Key: fmt.Sprintf("key-%d", i)},
				{Kind: types.OpRead, Key: "other"},
			},
		},
		Sig: []byte{byte(i), 8, 9},
	}
}

// sampleAuthed is sampleRequest with a client→replica authenticator: a full
// four-replica vector, or for every fourth request one torn mid-tag.
func sampleAuthed(i int) types.Request {
	req := sampleRequest(i)
	req.Auth = bytes.Repeat([]byte{byte(0xa0 + i)}, 4*crypto.RequestTagSize)
	if i%4 == 3 {
		req.Auth = req.Auth[:crypto.RequestTagSize+5]
	}
	return req
}

// sampleBatch alternates requests without and with an authenticator.
func sampleBatch(n int) types.Batch {
	b := types.Batch{}
	for i := 0; i < n; i++ {
		if i%2 == 1 {
			b.Requests = append(b.Requests, sampleAuthed(i))
		} else {
			b.Requests = append(b.Requests, sampleRequest(i))
		}
	}
	return b
}

func sampleRecord(seq int) types.ExecRecord {
	return types.ExecRecord{
		Seq:    types.SeqNum(seq),
		View:   2,
		Digest: types.DigestBytes([]byte("batch")),
		Proof:  []byte("certificate"),
		Batch:  sampleBatch(2),
	}
}

func share(i int) crypto.Share {
	return crypto.Share{Signer: types.ReplicaID(i), Data: []byte{9, 9, byte(i)}}
}

// samples returns, per message type, a zero value and a populated value.
// maxSize adds a deliberately large case for the batch-carrying types.
func samples() []wire.Message {
	big := sampleBatch(256)
	big.Requests[0].Txn.Ops[0].Value = bytes.Repeat([]byte("x"), 1<<16)
	auth := [][]byte{[]byte("sig-a"), nil, []byte("sig-b")}
	return []wire.Message{
		// shared
		&protocol.ClientRequest{}, &protocol.ClientRequest{Req: sampleRequest(1)}, &protocol.ClientRequest{Req: sampleAuthed(1)},
		&protocol.ForwardRequest{}, &protocol.ForwardRequest{Req: sampleRequest(2)}, &protocol.ForwardRequest{Req: sampleAuthed(3)},
		&protocol.Inform{}, &protocol.Inform{
			From: 3, Digest: types.DigestBytes([]byte("d")), View: 1, Seq: 9,
			ClientSeq: 4, Values: [][]byte{[]byte("v"), nil}, Tag: []byte("mac"),
			Speculative: true, OrderProof: types.DigestBytes([]byte("h")),
			Share: share(3), Cert: []byte("cert"),
		},
		&protocol.Fetch{}, &protocol.Fetch{From: 1, After: 7, Max: 64},
		&protocol.FetchReply{}, &protocol.FetchReply{From: 2, Head: 11, Records: []types.ExecRecord{sampleRecord(1), sampleRecord(2)}},
		&protocol.Checkpoint{}, &protocol.Checkpoint{From: 1, Seq: 100, State: types.DigestBytes([]byte("s")), Ledger: types.DigestBytes([]byte("l")), Sig: []byte("sig")},
		&protocol.SnapshotRequest{}, &protocol.SnapshotRequest{From: 3, Have: 128},
		&protocol.SnapshotOffer{}, &protocol.SnapshotOffer{
			From: 2, Seq: 96, Size: 4096, Chunks: 2,
			Cert: []protocol.Checkpoint{
				{From: 0, Seq: 96, State: types.DigestBytes([]byte("s")), Ledger: types.DigestBytes([]byte("l")), Sig: []byte("sig0")},
				{From: 2, Seq: 96, State: types.DigestBytes([]byte("s")), Ledger: types.DigestBytes([]byte("l")), Sig: []byte("sig2")},
			},
		},
		&protocol.SnapshotChunk{}, &protocol.SnapshotChunk{From: 2, Seq: 96, Index: 1, Data: bytes.Repeat([]byte("z"), 1024)},
		&protocol.ReadRequest{}, &protocol.ReadRequest{Req: sampleRead(3)},
		func() wire.Message {
			r := sampleRead(4)
			r.Auth = sampleAuthed(4).Auth
			return &protocol.ReadRequest{Req: r}
		}(),
		&protocol.ReadReply{}, &protocol.ReadReply{
			From: 1, Digest: types.DigestBytes([]byte("r")), ClientSeq: 6,
			Values: [][]byte{[]byte("v"), nil}, ExecSeq: 42,
			StateDigest: types.DigestBytes([]byte("s")), View: 2,
			Tier: types.ConsistencySpeculative, Repaired: true, Tag: []byte("mac"),
		},
		&protocol.LeaseGrant{}, &protocol.LeaseGrant{From: 2, View: 3, Seq: 128, DurationNanos: 5e7, Tag: []byte("tag")},
		&protocol.VCRequest{}, &protocol.VCRequest{From: 1, View: 2, StableSeq: 3, Entries: []types.ExecRecord{sampleRecord(4)}, Sig: []byte("s")},
		// PBFT-shaped: gapped entries, one a no-op filler without a certificate.
		&protocol.VCRequest{From: 2, View: 2, StableSeq: 3, Entries: []types.ExecRecord{sampleRecord(5), {Seq: 7, View: 2, Digest: new(types.Batch).Digest()}}, Sig: []byte("s")},
		&protocol.NVPropose{}, &protocol.NVPropose{NewView: 3, Requests: []protocol.VCRequest{{From: 1, View: 2, Entries: []types.ExecRecord{sampleRecord(4)}}, {From: 0, View: 2}}},
		&types.ExecRecord{}, func() wire.Message { r := sampleRecord(5); return &r }(),
		// poe
		&poe.Propose{}, &poe.Propose{View: 1, Seq: 2, Batch: sampleBatch(3), Auth: auth},
		&poe.Propose{View: 1, Seq: 2, Batch: big, Auth: auth},
		&poe.Support{}, &poe.Support{View: 1, Seq: 2, Share: share(1)},
		&poe.Certify{}, &poe.Certify{View: 1, Seq: 2, Digest: types.DigestBytes([]byte("h")), Cert: []byte("c")},
		// pbft
		&pbft.PrePrepare{}, &pbft.PrePrepare{View: 1, Seq: 2, Batch: sampleBatch(3), Auth: auth},
		&pbft.Prepare{}, &pbft.Prepare{View: 1, Seq: 2, Share: share(2)},
		&pbft.Commit{}, &pbft.Commit{View: 1, Seq: 2, Share: share(3)},
		// sbft
		&sbft.PrePrepare{}, &sbft.PrePrepare{View: 1, Seq: 2, Batch: sampleBatch(3), Auth: auth},
		&sbft.SignShare{}, &sbft.SignShare{View: 1, Seq: 2, Share: share(1)},
		&sbft.Prepare2{}, &sbft.Prepare2{View: 1, Seq: 2, Digest: types.DigestBytes([]byte("h")), Cert: []byte("c")},
		&sbft.Share2{}, &sbft.Share2{View: 1, Seq: 2, Share: share(2)},
		&sbft.FullCommitProof{}, &sbft.FullCommitProof{View: 1, Seq: 2, Digest: types.DigestBytes([]byte("h")), Cert: []byte("c")},
		&sbft.SignState{}, &sbft.SignState{View: 1, Seq: 2, Share: share(3)},
		&sbft.ExecuteAck{}, &sbft.ExecuteAck{View: 1, Seq: 2, Head: types.DigestBytes([]byte("h")), Cert: []byte("c")},
		// zyzzyva
		&zyzzyva.OrderReq{}, &zyzzyva.OrderReq{View: 1, Seq: 2, History: types.DigestBytes([]byte("h")), Batch: sampleBatch(3), Auth: auth},
		&zyzzyva.CommitReq{}, &zyzzyva.CommitReq{Client: types.ClientIDBase, ClientSeq: 7, Seq: 9, History: types.DigestBytes([]byte("h")), Shares: []crypto.Share{share(0), share(1), share(2)}},
		&zyzzyva.LocalCommit{}, &zyzzyva.LocalCommit{From: 1, ClientSeq: 7, Seq: 9, Tag: []byte("t")},
		// hotstuff
		&hotstuff.Proposal{}, &hotstuff.Proposal{Node: hotstuff.Node{Round: 4, ParentHash: types.DigestBytes([]byte("p")), Batch: sampleBatch(2), Justify: hotstuff.QC{Round: 3, Node: types.DigestBytes([]byte("n")), Cert: []byte("c")}}, Auth: auth},
		&hotstuff.Vote{}, &hotstuff.Vote{Round: 4, Node: types.DigestBytes([]byte("n")), Share: share(1)},
		&hotstuff.NewView{}, &hotstuff.NewView{From: 2, Round: 5, High: hotstuff.QC{Round: 4, Node: types.DigestBytes([]byte("n")), Cert: []byte("c")}},
		&hotstuff.FetchNodes{}, &hotstuff.FetchNodes{From: 1, Hash: types.DigestBytes([]byte("n")), Max: 32},
		&hotstuff.NodeBundle{}, &hotstuff.NodeBundle{Nodes: []hotstuff.Node{{Round: 1, Batch: sampleBatch(1)}, {Round: 2}}},
	}
}

// TestCanonicalRoundTrip: encode → decode (via the registry) → encode must
// be byte-identical for every message type, zero and populated.
func TestCanonicalRoundTrip(t *testing.T) {
	seen := map[uint16]bool{}
	for i, msg := range samples() {
		enc1 := msg.MarshalTo(nil)
		seen[msg.WireID()] = true
		decoded, err := wire.Unmarshal(msg.WireID(), enc1)
		if err != nil {
			t.Fatalf("sample %d (%T): decode: %v", i, msg, err)
		}
		enc2 := decoded.MarshalTo(nil)
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("sample %d (%T): re-encode differs (%d vs %d bytes)", i, msg, len(enc1), len(enc2))
		}
	}
	// Every registered protocol id must have been exercised (test-local ids
	// ≥ 65000 excluded).
	for _, id := range wire.RegisteredIDs() {
		if id >= 65000 {
			continue
		}
		if !seen[id] {
			t.Errorf("registered id %d has no round-trip sample", id)
		}
	}
}

// TestFrameRoundTripAllTypes runs each sample through the full transport
// frame path.
func TestFrameRoundTripAllTypes(t *testing.T) {
	for i, msg := range samples() {
		frame := wire.AppendFrame(nil, 42, msg)
		from, decoded, err := wire.DecodeFrame(frame[4:])
		if err != nil {
			t.Fatalf("sample %d (%T): %v", i, msg, err)
		}
		if from != 42 {
			t.Fatalf("sample %d: from %d", i, from)
		}
		if decoded.WireID() != msg.WireID() {
			t.Fatalf("sample %d: id %d != %d", i, decoded.WireID(), msg.WireID())
		}
	}
}

// TestHelloFrame: the body-less announcement decodes to a sender and no
// message; the same id with a body is not a hello and names no type.
func TestHelloFrame(t *testing.T) {
	frame := wire.AppendHello(nil, 42)
	from, m, err := wire.DecodeFrame(frame[4:])
	if err != nil || from != 42 || m != nil {
		t.Fatalf("hello decoded to from=%d msg=%v err=%v", from, m, err)
	}
	if _, _, err := wire.DecodeFrame(append(frame[4:], 0)); err == nil {
		t.Fatal("a hello id with a body decoded")
	}
}

// TestDigestMatchesEncoding pins the digest-from-canonical-bytes contract:
// a request's digest equals the SHA-256 of its transaction's wire encoding,
// whether the request was built locally or decoded from the wire.
func TestDigestMatchesEncoding(t *testing.T) {
	req := sampleRequest(7)
	enc := req.Txn.AppendWire(nil)
	want := types.DigestBytes(enc)
	if got := req.Digest(); got != want {
		t.Fatalf("local digest %v != hash of encoding %v", got, want)
	}
	cr := &protocol.ClientRequest{Req: sampleRequest(7)}
	body := wire.Marshal(cr)
	decoded, err := wire.Unmarshal(cr.WireID(), body)
	if err != nil {
		t.Fatal(err)
	}
	if got := decoded.(*protocol.ClientRequest).Req.Digest(); got != want {
		t.Fatalf("decoded digest %v != %v", got, want)
	}
}

// TestAuthTravelsOnlyWhereNeeded: a request's authenticator crosses the wire
// from the client, between replicas forwarding it, and inside all five
// proposal bodies — whole or torn, exactly as sent — and nowhere else: the
// execution-record encoding (WAL, state transfer, view-change entries) does
// not carry it.
func TestAuthTravelsOnlyWhereNeeded(t *testing.T) {
	roundTrip := func(m wire.Message) wire.Message {
		t.Helper()
		out, err := wire.Unmarshal(m.WireID(), wire.Marshal(m))
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		return out
	}
	for _, i := range []int{1, 3} {
		want := sampleAuthed(i).Auth
		for _, got := range [][]byte{
			roundTrip(&protocol.ClientRequest{Req: sampleAuthed(i)}).(*protocol.ClientRequest).Req.Auth,
			roundTrip(&protocol.ForwardRequest{Req: sampleAuthed(i)}).(*protocol.ForwardRequest).Req.Auth,
			roundTrip(&protocol.ReadRequest{Req: sampleAuthed(i)}).(*protocol.ReadRequest).Req.Auth,
			roundTrip(&poe.Propose{Batch: sampleBatch(4)}).(*poe.Propose).Batch.Requests[i].Auth,
			roundTrip(&pbft.PrePrepare{Batch: sampleBatch(4)}).(*pbft.PrePrepare).Batch.Requests[i].Auth,
			roundTrip(&sbft.PrePrepare{Batch: sampleBatch(4)}).(*sbft.PrePrepare).Batch.Requests[i].Auth,
			roundTrip(&zyzzyva.OrderReq{Batch: sampleBatch(4)}).(*zyzzyva.OrderReq).Batch.Requests[i].Auth,
			roundTrip(&hotstuff.Proposal{Node: hotstuff.Node{Batch: sampleBatch(4)}}).(*hotstuff.Proposal).Node.Batch.Requests[i].Auth,
		} {
			if !bytes.Equal(got, want) {
				t.Fatalf("request %d: auth %x arrived as %x", i, want, got)
			}
		}
	}
	rec := sampleRecord(1)
	if rec.Batch.Requests[1].Auth == nil {
		t.Fatal("sample record lost its authenticated request")
	}
	for _, r := range roundTrip(&rec).(*types.ExecRecord).Batch.Requests {
		if r.Auth != nil {
			t.Fatalf("execution record carried an authenticator: %x", r.Auth)
		}
	}
	// A request without one is encoded as it was before authenticators
	// existed, so a client that sends none is still understood.
	plain, authed := sampleRequest(1), sampleAuthed(1)
	if enc := wire.Marshal(&protocol.ClientRequest{Req: plain}); !bytes.Equal(enc, plain.AppendWire(nil)) {
		t.Fatal("ClientRequest without Auth is not the bare request encoding")
	}
	if enc := wire.Marshal(&protocol.ClientRequest{Req: authed}); !bytes.Equal(enc, append(plain.AppendWire(nil), authed.Auth...)) {
		t.Fatal("ClientRequest with Auth is not the request encoding followed by Auth")
	}
}

// FuzzWireDecode: arbitrary bytes must never panic any decoder — not the
// frame decoder, and not any registered message type's Unmarshal.
func FuzzWireDecode(f *testing.F) {
	for _, msg := range samples() {
		f.Add(wire.AppendFrame(nil, 1, msg)[4:])
	}
	f.Add([]byte{})
	f.Add(wire.AppendHello(nil, 1)[4:])
	f.Add([]byte{0, 0, 0, 0, 0, 1})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	ids := wire.RegisteredIDs()
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _ = wire.DecodeFrame(data)
		for _, id := range ids {
			m, _ := wire.New(id)
			if m == nil {
				continue
			}
			if err := m.Unmarshal(data); err != nil {
				continue
			}
			// Whatever parsed must re-encode canonically: encode → decode →
			// encode is byte-identical even for adversarial input that
			// happens to decode.
			enc := m.MarshalTo(nil)
			m2, _ := wire.New(id)
			if err := m2.Unmarshal(enc); err != nil {
				t.Fatalf("id %d: re-decode of canonical encoding failed: %v", id, err)
			}
			if !bytes.Equal(enc, m2.MarshalTo(nil)) {
				t.Fatalf("id %d: non-canonical re-encode", id)
			}
		}
	})
}
