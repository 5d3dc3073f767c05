package wire_test

// Codec micro-benchmarks per hot message type: encode and decode of a
// 50-request PROPOSE and its ExecRecord, an INFORM, and the marshal-once
// broadcast fan-out. Run:
//
//	go test -bench 'BenchmarkWire|BenchmarkBroadcast' -benchmem ./internal/wire

import (
	"bytes"
	"testing"

	"github.com/poexec/poe/internal/consensus/poe"
	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/wire"
)

// benchCases are the payloads that dominate real traffic: a standard
// 50-request batch (PROPOSE body / WAL record), a small share message, and
// a client reply.
func benchBatch() types.Batch { return sampleBatch(50) }
func benchRecord() types.ExecRecord {
	return types.ExecRecord{Seq: 9, View: 1, Digest: types.DigestBytes([]byte("b")), Proof: []byte("certcertcert"), Batch: benchBatch()}
}

func BenchmarkWireEncodeBatchPropose(b *testing.B) {
	m := &poe.Propose{View: 1, Seq: 2, Batch: benchBatch(), Auth: [][]byte{bytes.Repeat([]byte{1}, 64)}}
	m.Batch.MemoizeDigests()
	buf := m.MarshalTo(nil)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = m.MarshalTo(buf[:0])
	}
}

func BenchmarkWireDecodeBatchPropose(b *testing.B) {
	m := &poe.Propose{View: 1, Seq: 2, Batch: benchBatch(), Auth: [][]byte{bytes.Repeat([]byte{1}, 64)}}
	buf := m.MarshalTo(nil)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out poe.Propose
		if err := out.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireEncodeExecRecord(b *testing.B) {
	rec := benchRecord()
	rec.Batch.MemoizeDigests()
	buf := rec.MarshalTo(nil)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = rec.MarshalTo(buf[:0])
	}
}

func BenchmarkWireDecodeExecRecord(b *testing.B) {
	rec := benchRecord()
	buf := rec.MarshalTo(nil)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out types.ExecRecord
		if err := out.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireEncodeInform(b *testing.B) {
	m := &protocol.Inform{From: 1, Digest: types.DigestBytes([]byte("d")), Seq: 9, ClientSeq: 2, Values: [][]byte{[]byte("v")}, Tag: bytes.Repeat([]byte{7}, 32)}
	buf := m.MarshalTo(nil)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = m.MarshalTo(buf[:0])
	}
}

// BenchmarkBroadcastFanout measures TCPNet.Broadcast's fan-out shape for one
// PROPOSE to n−1 peers: encode a frame once, copy it per peer.
func BenchmarkBroadcastFanout(b *testing.B) {
	m := &poe.Propose{View: 1, Seq: 2, Batch: benchBatch(), Auth: [][]byte{bytes.Repeat([]byte{1}, 64)}}
	m.Batch.MemoizeDigests()
	const peers = 15 // n=16
	sink := make([]byte, 0, 1<<16)

	b.Run("marshal-once", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			frame := wire.AppendFrame(wire.GetBuf(), 0, m)
			for p := 0; p < peers; p++ {
				sink = append(sink[:0], frame...) // the per-peer write(2) copy
			}
			wire.PutBuf(frame)
		}
	})
}
