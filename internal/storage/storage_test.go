package storage

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"github.com/poexec/poe/internal/ledger"
	"github.com/poexec/poe/internal/types"
)

func testRecord(seq types.SeqNum) types.ExecRecord {
	req := types.Request{
		Txn: types.Transaction{
			Client: types.ClientIDBase,
			Seq:    uint64(seq),
			Ops: []types.Op{
				{Kind: types.OpWrite, Key: "k", Value: []byte{byte(seq), byte(seq >> 8)}},
			},
		},
		Sig: []byte{0xAA, byte(seq)},
	}
	batch := types.Batch{Requests: []types.Request{req}}
	return types.ExecRecord{
		Seq:    seq,
		View:   types.View(seq / 10),
		Digest: batch.Digest(),
		Proof:  []byte{0xCE, byte(seq)},
		Batch:  batch,
	}
}

func appendN(t *testing.T, s *Store, from, to types.SeqNum) {
	t.Helper()
	for seq := from; seq <= to; seq++ {
		rec := testRecord(seq)
		if err := s.Append(&rec); err != nil {
			t.Fatalf("append seq %d: %v", seq, err)
		}
	}
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 1, 20)
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.Recovered()
	if rec.Snapshot != nil {
		t.Fatal("unexpected snapshot")
	}
	if rec.LastSeq != 20 || len(rec.Records) != 20 {
		t.Fatalf("recovered LastSeq=%d records=%d, want 20/20", rec.LastSeq, len(rec.Records))
	}
	for i, r := range rec.Records {
		want := testRecord(types.SeqNum(i + 1))
		if r.Seq != want.Seq || r.Digest != want.Batch.Digest() || string(r.Proof) != string(want.Proof) {
			t.Fatalf("record %d mismatch: %+v", i, r)
		}
		if len(r.Batch.Requests) != 1 || r.Batch.Requests[0].Txn.Seq != uint64(i+1) {
			t.Fatalf("record %d batch mismatch", i)
		}
	}
	// Appends continue where the log left off.
	if err := s2.Append(&types.ExecRecord{Seq: 5}); err == nil {
		t.Fatal("out-of-order append accepted")
	}
	appendN(t, s2, 21, 21)
}

// TestWireRecordRoundTripOnDisk pins the on-disk format: records written by
// the codec recover with identical digests and certificates.
func TestWireRecordRoundTripOnDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 1, 5)
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := s2.Recovered().Records
	if len(got) != 5 {
		t.Fatalf("recovered %d records", len(got))
	}
	for i := range got {
		want := testRecord(types.SeqNum(i + 1))
		if got[i].Seq != want.Seq || got[i].Batch.Digest() != want.Batch.Digest() ||
			string(got[i].Proof) != string(want.Proof) {
			t.Fatalf("record %d differs", i)
		}
	}
}

// gobRecord is a record payload as the pre-codec WAL wrote it: a gob stream
// (type definition, then value) of an ExecRecord with Seq 1 and a proof,
// and no format byte.
var gobRecord, _ = hex.DecodeString("327f0301010a457865635265636f726401ff800001030103536571010600010456696577010600010550726f6f66010a0000000cff800101020570726f6f6600")

// TestOpenRefusesGobEraWAL: a WAL written before the wire codec is refused
// like any other old format, never decoded.
func TestOpenRefusesGobEraWAL(t *testing.T) {
	dir := t.TempDir()
	frame := make([]byte, walHeaderSize, walHeaderSize+len(gobRecord))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(gobRecord)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(gobRecord, crcTable))
	if err := os.WriteFile(filepath.Join(dir, walName(0)), append(frame, gobRecord...), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		if s != nil {
			s.Close()
		}
		t.Fatalf("open of a gob-era WAL: err = %v, want ErrCorrupt", err)
	}
}

func TestAppendOutOfOrderRejected(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendN(t, s, 1, 3)
	rec := testRecord(5)
	if err := s.Append(&rec); err == nil {
		t.Fatal("gap accepted")
	}
}

func TestSnapshotRotationAndRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 1, 12)
	snap := &Snapshot{
		Seq:     8,
		Head:    ledger.Block{Seq: 8, Digest: types.DigestBytes([]byte("h8"))},
		Data:    map[string][]byte{"k": {8}},
		LastCli: map[types.ClientID]uint64{types.ClientIDBase: 8},
	}
	var tail []types.ExecRecord
	for seq := types.SeqNum(9); seq <= 12; seq++ {
		tail = append(tail, testRecord(seq))
	}
	if err := s.WriteSnapshot(snap, tail); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 13, 15)
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := s2.Recovered()
	if got.Snapshot == nil || got.Snapshot.Seq != 8 {
		t.Fatalf("snapshot not recovered: %+v", got.Snapshot)
	}
	if string(got.Snapshot.Data["k"]) != string([]byte{8}) {
		t.Fatal("snapshot data lost")
	}
	if got.Snapshot.LastCli[types.ClientIDBase] != 8 {
		t.Fatal("snapshot dedup history lost")
	}
	if got.Snapshot.Head.Digest != types.DigestBytes([]byte("h8")) {
		t.Fatal("snapshot ledger head lost")
	}
	if got.LastSeq != 15 || len(got.Records) != 7 {
		t.Fatalf("recovered LastSeq=%d records=%d, want 15/7 (tail 9..12 + appends 13..15)", got.LastSeq, len(got.Records))
	}
	if got.Records[0].Seq != 9 || got.Records[6].Seq != 15 {
		t.Fatalf("record range %d..%d, want 9..15", got.Records[0].Seq, got.Records[6].Seq)
	}
}

func TestSecondRotationDropsStaleGenerations(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 1, 30)
	if err := s.WriteSnapshot(&Snapshot{Seq: 10}, nil); err != nil {
		t.Fatal(err)
	}
	// The fallback generation (base 0) must survive the first rotation...
	if _, err := os.Stat(filepath.Join(dir, walName(0))); err != nil {
		t.Fatalf("previous WAL generation dropped too early: %v", err)
	}
	if err := s.WriteSnapshot(&Snapshot{Seq: 20}, nil); err != nil {
		t.Fatal(err)
	}
	// ...and be dropped by the second.
	if _, err := os.Stat(filepath.Join(dir, walName(0))); !os.IsNotExist(err) {
		t.Fatal("generation 0 WAL not cleaned up")
	}
	if _, err := os.Stat(filepath.Join(dir, snapName(10))); err != nil {
		t.Fatal("previous snapshot must be retained as fallback")
	}
	s.Close()
}

func TestTruncateMirrorsRollback(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 1, 10)
	if err := s.Truncate(6); err != nil {
		t.Fatal(err)
	}
	if s.LastSeq() != 6 {
		t.Fatalf("LastSeq=%d after truncate, want 6", s.LastSeq())
	}
	// Re-execution after rollback writes different records at 7+.
	rec := testRecord(7)
	rec.Proof = []byte("new-proof")
	if err := s.Append(&rec); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := s2.Recovered()
	if got.LastSeq != 7 || len(got.Records) != 7 {
		t.Fatalf("LastSeq=%d records=%d, want 7/7", got.LastSeq, len(got.Records))
	}
	if string(got.Records[6].Proof) != "new-proof" {
		t.Fatal("rolled-back record resurrected instead of replacement")
	}
}

func TestTruncateBelowBaseRejected(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendN(t, s, 1, 10)
	if err := s.WriteSnapshot(&Snapshot{Seq: 8}, []types.ExecRecord{testRecord(9), testRecord(10)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Truncate(5); err == nil {
		t.Fatal("truncate below stable snapshot accepted")
	}
}

// TestTornTailTolerated is the byte-truncation fuzz of the acceptance
// criteria: whatever byte the crash cuts the WAL at, Open must succeed and
// recover exactly the records whose frames survived in full.
func TestTornTailTolerated(t *testing.T) {
	master := t.TempDir()
	s, err := Open(master, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	appendN(t, s, 1, n)
	s.Close()
	walPath := filepath.Join(master, walName(0))
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Frame boundaries, to know how many records each cut preserves.
	recs, _, err := readWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("master log has %d records, want %d", len(recs), n)
	}
	wantAt := func(cut int64) int {
		count := 0
		for i, r := range recs {
			end := int64(len(full))
			if i+1 < len(recs) {
				end = recs[i+1].off
			}
			if end <= cut {
				count = i + 1
			}
			_ = r
		}
		return count
	}
	for cut := 0; cut <= len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName(0)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut at byte %d: open: %v", cut, err)
		}
		got := s2.Recovered()
		if want := wantAt(int64(cut)); len(got.Records) != want {
			t.Fatalf("cut at byte %d: recovered %d records, want %d", cut, len(got.Records), want)
		}
		// The torn tail must have been truncated so appends go through.
		next := testRecord(got.LastSeq + 1)
		if err := s2.Append(&next); err != nil {
			t.Fatalf("cut at byte %d: append after recovery: %v", cut, err)
		}
		s2.Close()
	}
}

// TestMidLogCorruptionDetected flips one byte inside every non-final record
// and requires Open to refuse the log each time.
func TestMidLogCorruptionDetected(t *testing.T) {
	master := t.TempDir()
	s, err := Open(master, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 1, 5)
	s.Close()
	walPath := filepath.Join(master, walName(0))
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := readWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	lastOff := recs[len(recs)-1].off
	for _, tamper := range []int64{
		recs[0].off + walHeaderSize,     // first record payload
		recs[1].off + walHeaderSize + 3, // middle record payload
		lastOff - 1,                     // last byte before the final record
	} {
		dir := t.TempDir()
		mut := append([]byte(nil), full...)
		mut[tamper] ^= 0xFF
		if err := os.WriteFile(filepath.Join(dir, walName(0)), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("tamper at byte %d: open err = %v, want ErrCorrupt", tamper, err)
		}
	}
}

func TestCorruptNewestSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 1, 20)
	tailFor := func(from, to types.SeqNum) []types.ExecRecord {
		var tail []types.ExecRecord
		for seq := from; seq <= to; seq++ {
			tail = append(tail, testRecord(seq))
		}
		return tail
	}
	if err := s.WriteSnapshot(&Snapshot{Seq: 10, Data: map[string][]byte{"g": {10}}}, tailFor(11, 20)); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 21, 25)
	if err := s.WriteSnapshot(&Snapshot{Seq: 20, Data: map[string][]byte{"g": {20}}}, tailFor(21, 25)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Corrupt the newest snapshot; recovery must fall back to seq 10 and
	// replay the generation-10 WAL. That WAL was rotated away, so the
	// recovered prefix ends at 10 — shorter, never wrong.
	path := filepath.Join(dir, snapName(20))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := s2.Recovered()
	if got.Snapshot == nil || got.Snapshot.Seq != 10 {
		t.Fatalf("fallback snapshot seq = %+v, want 10", got.Snapshot)
	}
	if string(got.Snapshot.Data["g"]) != string([]byte{10}) {
		t.Fatal("fallback snapshot data wrong")
	}
	// The fallback generation's WAL still holds 11..25, so nothing beyond
	// the corrupted snapshot itself is lost.
	if got.LastSeq != 25 || len(got.Records) != 15 {
		t.Fatalf("fallback recovered LastSeq=%d records=%d, want 25/15", got.LastSeq, len(got.Records))
	}
}

func TestCrashBetweenSnapshotAndRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 1, 12)
	s.Close()
	// Simulate a crash after the snapshot file landed but before the WAL
	// was rotated: write the snapshot by hand, leave wal-0 as-is.
	if err := writeSnapshotFile(filepath.Join(dir, snapName(8)), &Snapshot{Seq: 8}); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := s2.Recovered()
	if got.Snapshot == nil || got.Snapshot.Seq != 8 {
		t.Fatal("snapshot not used")
	}
	// Records ≤ 8 are covered by the snapshot; 9..12 replay from the old
	// generation's WAL.
	if len(got.Records) != 4 || got.Records[0].Seq != 9 || got.LastSeq != 12 {
		t.Fatalf("recovered %d records LastSeq=%d, want 4 records ending at 12", len(got.Records), got.LastSeq)
	}
}

func TestFreshDirIsEmpty(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := s.Recovered()
	if got.Snapshot != nil || len(got.Records) != 0 || got.LastSeq != 0 {
		t.Fatalf("fresh dir recovered %+v", got)
	}
}
