package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"

	"github.com/poexec/poe/internal/ledger"
	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/wire"
)

// Snapshot is the durable image of a replica's executed state at a stable
// checkpoint: everything a restarted replica needs, besides WAL replay and
// state transfer, to rejoin the cluster with the exact state it had when the
// checkpoint stabilized (§II-D of the paper).
type Snapshot struct {
	// Seq is the stable checkpoint sequence number the snapshot captures.
	Seq types.SeqNum
	// Head is the ledger block at Seq; the restored chain is rooted at it,
	// so hash-link verification keeps covering post-restart appends.
	Head ledger.Block
	// Data is the key-value table exactly as of Seq — writes from batches
	// executed speculatively above the checkpoint are rewound before the
	// snapshot is taken, so recovery never resurrects uncommitted state.
	Data map[string][]byte
	// LastCli is the client-deduplication history as of Seq: the highest
	// client-local sequence number executed per client. Without it a
	// restarted replica could re-execute a transaction the cluster already
	// answered, diverging from replicas that dedup it.
	LastCli map[types.ClientID]uint64
}

// AppendWire appends the snapshot's wire encoding. Both maps are emitted in
// sorted key order so the encoding is canonical (encode → decode → encode is
// byte-identical); snapshots are written once per checkpoint, so the sort is
// far off the hot path.
func (s *Snapshot) AppendWire(buf []byte) []byte {
	buf = wire.AppendU64(buf, uint64(s.Seq))
	buf = s.Head.AppendWire(buf)

	keys := make([]string, 0, len(s.Data))
	for k := range s.Data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf = wire.AppendU32(buf, uint32(len(keys)))
	for _, k := range keys {
		buf = wire.AppendString(buf, k)
		buf = wire.AppendBytes(buf, s.Data[k])
	}

	clients := make([]types.ClientID, 0, len(s.LastCli))
	for c := range s.LastCli {
		clients = append(clients, c)
	}
	sort.Slice(clients, func(i, j int) bool { return clients[i] < clients[j] })
	buf = wire.AppendU32(buf, uint32(len(clients)))
	for _, c := range clients {
		buf = wire.AppendI32(buf, int32(c))
		buf = wire.AppendU64(buf, s.LastCli[c])
	}
	return buf
}

// ReadWire decodes one snapshot.
func (s *Snapshot) ReadWire(r *wire.Reader) {
	s.Seq = types.SeqNum(r.U64())
	s.Head.ReadWire(r)
	n := r.Count(8) // two u32 length prefixes per entry
	s.Data = make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		k := r.String()
		v := r.Bytes()
		if r.Err() != nil {
			return
		}
		s.Data[k] = v
	}
	m := r.Count(12) // i32 client + u64 seq
	s.LastCli = make(map[types.ClientID]uint64, m)
	for i := 0; i < m; i++ {
		c := types.ClientID(r.I32())
		v := r.U64()
		if r.Err() != nil {
			return
		}
		s.LastCli[c] = v
	}
}

// writeSnapshotFile writes the snapshot to path atomically, framed with the
// same length+CRC header as WAL records so corruption is detectable at load.
// The payload is the format byte plus the wire encoding; the encode buffer
// is pooled.
func writeSnapshotFile(path string, snap *Snapshot) error {
	wire.CountMarshal()
	buf := wire.GetBuf()
	defer func() { wire.PutBuf(buf) }()
	buf = append(buf, formatWire)
	buf = snap.AppendWire(buf)
	payload := buf
	return writeFileAtomic(path, func(w io.Writer) error {
		var hdr [walHeaderSize]byte
		binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		_, err := w.Write(payload)
		return err
	})
}

// readSnapshotFile loads and validates a snapshot file. Only wire-format
// snapshots (format byte formatWire) decode; anything else is refused like
// an old WAL record.
func readSnapshotFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < walHeaderSize {
		return nil, fmt.Errorf("%w: %s: short snapshot header", ErrCorrupt, path)
	}
	length := binary.BigEndian.Uint32(data[0:4])
	crc := binary.BigEndian.Uint32(data[4:8])
	if int(length) != len(data)-walHeaderSize {
		return nil, fmt.Errorf("%w: %s: snapshot length mismatch", ErrCorrupt, path)
	}
	payload := data[walHeaderSize:]
	if crc32.Checksum(payload, crcTable) != crc {
		return nil, fmt.Errorf("%w: %s: snapshot CRC mismatch", ErrCorrupt, path)
	}
	if len(payload) == 0 || payload[0] != formatWire {
		return nil, fmt.Errorf("%w: %s: snapshot written by an older storage format; wipe the data directory and rejoin via state transfer", ErrCorrupt, path)
	}
	var snap Snapshot
	r := wire.NewReader(payload[1:])
	snap.ReadWire(r)
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("%w: %s: snapshot decode: %v", ErrCorrupt, path, err)
	}
	return &snap, nil
}
