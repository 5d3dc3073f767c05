package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/wire"
)

// WAL record framing: every record is
//
//	[4-byte big-endian payload length][4-byte CRC-32C of payload][payload]
//
// where the payload is one format byte followed by the record body:
// formatWire2 (0x02) marks the current hand-written wire codec of
// types.ExecRecord (types/wire.go) — the only format the append path writes
// and the only one recovery reads. Any other first byte — formatWire (0x01),
// the same codec before transactions carried a consistency-tier byte, or the
// opening of a gob record from before the codec existed — is refused as
// ErrCorrupt rather than mis-decoded: the replica must wipe its data
// directory and rejoin via state transfer. The framing gives the log two
// properties crash recovery depends on:
//
//   - A torn final record — the tail the process was writing when it died,
//     cut at an arbitrary byte — is recognized (the remaining bytes are
//     shorter than the header, or shorter than the declared length) and
//     tolerated: replay stops at the last complete record and the tail is
//     truncated away before the log is reopened for appends.
//   - Corruption anywhere else — a bit flip inside a complete record — fails
//     the CRC and is reported as ErrCorrupt; the replica must not silently
//     replay damaged history.
const walHeaderSize = 8

// formatWire is the payload format byte of wire-codec snapshots; formatWire2
// is the WAL record format (the transaction layout gained a byte after
// formatWire, so records of that format must be refused, not decoded under
// the new layout — snapshots encode raw table state only and were
// unaffected).
const (
	formatWire  = 0x01
	formatWire2 = 0x02
)

// maxRecordSize bounds a single WAL record. A declared length beyond it is
// treated as corruption rather than as an enormous torn tail.
const maxRecordSize = 64 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a CRC or structural failure in the middle of a WAL or
// snapshot file — damage that truncation cannot explain — or a payload in a
// format this version no longer reads.
var ErrCorrupt = errors.New("storage: corrupt data")

// appendFramedRecord appends one complete frame — header, format byte, wire
// body — to buf in place: the header is reserved up front and patched once
// the payload length and CRC are known, so framing a record performs no
// intermediate allocation. This is the only encoder on the append path
// (group commit pools buf, so steady-state appends allocate nothing).
func appendFramedRecord(buf []byte, rec *types.ExecRecord) []byte {
	wire.CountMarshal()
	hdrAt := len(buf)
	buf = append(buf, make([]byte, walHeaderSize)...)
	buf = append(buf, formatWire2)
	buf = rec.AppendWire(buf)
	payload := buf[hdrAt+walHeaderSize:]
	binary.BigEndian.PutUint32(buf[hdrAt:], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[hdrAt+4:], crc32.Checksum(payload, crcTable))
	return buf
}

// decodeRecord decodes one framed payload. Refusing every format but the
// current one is deliberate: silently mis-decoding durable history would be
// far worse than requiring the replica to rejoin via snapshot state transfer.
func decodeRecord(payload []byte) (types.ExecRecord, error) {
	if len(payload) == 0 || payload[0] != formatWire2 {
		return types.ExecRecord{}, fmt.Errorf("%w: record written by an older storage format; wipe the data directory and rejoin via state transfer", ErrCorrupt)
	}
	var rec types.ExecRecord
	if err := rec.Unmarshal(payload[1:]); err != nil {
		return types.ExecRecord{}, fmt.Errorf("%w: record decode: %v", ErrCorrupt, err)
	}
	return rec, nil
}

// walEntry is the file offset one record's frame starts at, kept so
// rollbacks can physically truncate the log.
type walEntry struct {
	seq types.SeqNum
	off int64
}

// walRec is one decoded record plus the offset of its frame.
type walRec struct {
	rec types.ExecRecord
	off int64
}

// readWAL reads every complete record from a WAL file. It returns the
// decoded records with their frame offsets, the offset just past the last
// complete record (the torn tail, if any, starts there), and an error only
// for mid-log corruption.
func readWAL(path string) (recs []walRec, good int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	off := int64(0)
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return recs, off, nil
		}
		if len(rest) < walHeaderSize {
			// Torn header: tolerated, replay stops here.
			return recs, off, nil
		}
		length := binary.BigEndian.Uint32(rest[0:4])
		crc := binary.BigEndian.Uint32(rest[4:8])
		if length > maxRecordSize {
			return nil, off, fmt.Errorf("%w: %s: record at offset %d declares %d bytes", ErrCorrupt, path, off, length)
		}
		if len(rest)-walHeaderSize < int(length) {
			// Torn payload: the write was cut mid-record. Tolerated.
			return recs, off, nil
		}
		payload := rest[walHeaderSize : walHeaderSize+int(length)]
		if crc32.Checksum(payload, crcTable) != crc {
			return nil, off, fmt.Errorf("%w: %s: CRC mismatch at offset %d", ErrCorrupt, path, off)
		}
		rec, derr := decodeRecord(payload)
		if derr != nil {
			return nil, off, fmt.Errorf("%s: offset %d: %w", path, off, derr)
		}
		recs = append(recs, walRec{rec: rec, off: off})
		off += int64(walHeaderSize) + int64(length)
	}
}

// writeFileAtomic writes data to path via a temp file + rename so readers
// never observe a half-written file.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(dirOf(path), ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName)
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmpName, path)
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if os.IsPathSeparator(path[i]) {
			return path[:i]
		}
	}
	return "."
}

// syncDir fsyncs a directory so renames and creations inside it survive a
// machine crash, not just a process crash. Without it, writeFileAtomic's
// rename is atomic but not durable: the new name may vanish with the page
// cache, taking every subsequently acknowledged append with it.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
