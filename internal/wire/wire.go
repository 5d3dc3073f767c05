// Package wire is the hand-written, zero-reflection binary codec every
// cross-replica message travels in: the TCP transport's frames, the WAL's
// record payloads, and the checkpoint snapshots all encode through it.
//
// Why not gob: a reflection codec walks the type graph of every value it
// encodes, and a stream codec re-sends its type dictionary per connection.
// On the replica hot path that cost is paid per message *per peer* — a
// broadcast of one PROPOSE to n−1 replicas gob-encoded the same batch n−1
// times. This package makes encoding a plain append loop over pre-agreed
// field layouts, so a broadcast marshals once and fans the same byte slice
// out to every peer, and a WAL group commit appends records into one pooled
// buffer without allocating per record.
//
// Conventions (all integers big-endian, all layouts fixed by hand):
//
//   - fixed-width integers: u8, u16, u32, u64 (bool is one byte, 0 or 1)
//   - byte strings: u32 length prefix + raw bytes; length 0 decodes as nil
//   - slices: u32 element count + elements back to back
//   - 32-byte digests: raw, no length prefix
//
// The encoding is canonical: for every message type, encode → decode →
// encode is byte-identical (maps are sorted at encode time by their owners;
// nil and empty slices both encode as length 0 and decode as nil). Decoding
// is strict — trailing bytes, truncated fields, and lengths exceeding the
// input are errors, never panics — and zero-copy: decoded byte slices alias
// the input buffer, so a decoded message owns its input and the input must
// not be recycled while the message lives.
//
// Message types register a factory under a fixed 16-bit id (ids.go is the
// central assignment); the TCP transport frames messages as
//
//	[u32 body length][i32 sender node][u16 type id][body]
//
// where the destination is deliberately absent: TCP links are point-to-point,
// the receiver is the destination, and omitting it is what makes one encoded
// frame valid for every peer of a broadcast.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Message is implemented by every type that crosses the wire. MarshalTo
// appends the message body to buf and returns the extended slice; Unmarshal
// decodes a body produced by MarshalTo, rejecting trailing or truncated
// input. WireID returns the type's registered id (see ids.go).
type Message interface {
	WireID() uint16
	MarshalTo(buf []byte) []byte
	Unmarshal(data []byte) error
}

// ErrTruncated reports input that ended inside a declared field.
var ErrTruncated = errors.New("wire: truncated input")

// ErrTrailing reports leftover bytes after a complete message body.
var ErrTrailing = errors.New("wire: trailing bytes after message")

// ErrUnknownType reports a frame whose type id has no registered factory.
var ErrUnknownType = errors.New("wire: unknown message type")

// --- append primitives ---

// AppendU8 appends one byte.
func AppendU8(buf []byte, v uint8) []byte { return append(buf, v) }

// AppendBool appends a bool as one byte.
func AppendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// AppendU16 appends a big-endian uint16.
func AppendU16(buf []byte, v uint16) []byte {
	return append(buf, byte(v>>8), byte(v))
}

// AppendU32 appends a big-endian uint32.
func AppendU32(buf []byte, v uint32) []byte {
	return append(buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// AppendU64 appends a big-endian uint64.
func AppendU64(buf []byte, v uint64) []byte {
	return append(buf,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// AppendI32 appends a big-endian int32 (two's complement).
func AppendI32(buf []byte, v int32) []byte { return AppendU32(buf, uint32(v)) }

// AppendI64 appends a big-endian int64 (two's complement).
func AppendI64(buf []byte, v int64) []byte { return AppendU64(buf, uint64(v)) }

// AppendBytes appends a u32 length prefix and the bytes.
func AppendBytes(buf []byte, b []byte) []byte {
	buf = AppendU32(buf, uint32(len(b)))
	return append(buf, b...)
}

// AppendString appends a u32 length prefix and the string bytes.
func AppendString(buf []byte, s string) []byte {
	buf = AppendU32(buf, uint32(len(s)))
	return append(buf, s...)
}

// AppendBytesSlice appends a u32 count and each element as AppendBytes.
func AppendBytesSlice(buf []byte, bs [][]byte) []byte {
	buf = AppendU32(buf, uint32(len(bs)))
	for _, b := range bs {
		buf = AppendBytes(buf, b)
	}
	return buf
}

// --- reader ---

// Reader decodes the primitives appended above. It is bounds-checked and
// never panics: the first failed read latches Err, and every subsequent read
// returns zero values. Byte-slice reads alias the input buffer.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over data.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// Off returns the current read offset. Together with Since it lets a decoder
// capture the exact input range a nested value occupied — the zero-copy way
// to memoize a value's canonical encoding while decoding it.
func (r *Reader) Off() int { return r.off }

// Since returns the input bytes consumed since offset start (from Off),
// aliasing the input buffer; nil once an error is latched.
func (r *Reader) Since(start int) []byte {
	if r.err != nil || start < 0 || start > r.off {
		return nil
	}
	return r.buf[start:r.off:r.off]
}

// fail latches the first error.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// take returns the next n bytes, aliasing the input.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.buf)-r.off < n {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte as a bool; any byte other than 0 or 1 is an error,
// keeping the encoding canonical.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(fmt.Errorf("wire: non-canonical bool"))
		return false
	}
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// I32 reads a big-endian int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// I64 reads a big-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Bytes reads a u32-length-prefixed byte string, aliasing the input buffer.
// Length 0 returns nil (the canonical form).
func (r *Reader) Bytes() []byte {
	n := r.U32()
	if n == 0 {
		return nil
	}
	b := r.take(int(n))
	if len(b) == 0 {
		return nil
	}
	return b
}

// String reads a u32-length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// BytesSlice reads a u32-count-prefixed slice of byte strings.
func (r *Reader) BytesSlice() [][]byte {
	n := r.Count(4) // each element is at least a u32 length
	if n == 0 {
		return nil
	}
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.Bytes())
	}
	if r.err != nil {
		return nil
	}
	return out
}

// Raw reads exactly n bytes (no length prefix), aliasing the input.
func (r *Reader) Raw(n int) []byte { return r.take(n) }

// Count reads a u32 element count and sanity-checks it against the remaining
// input: a count that could not possibly fit (each element needs at least
// minElemSize bytes) is corruption, and rejecting it here keeps adversarial
// counts from driving huge allocations. minElemSize 0 is treated as 1.
func (r *Reader) Count(minElemSize int) int {
	n := r.U32()
	if r.err != nil {
		return 0
	}
	if minElemSize <= 0 {
		minElemSize = 1
	}
	if int64(n)*int64(minElemSize) > int64(r.Len()) {
		r.fail(ErrTruncated)
		return 0
	}
	return int(n)
}

// Close finishes a strict decode: it returns the latched error, or
// ErrTrailing if the input was not fully consumed.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.Len() != 0 {
		return ErrTrailing
	}
	return nil
}

// --- buffer pool ---

// bufPool recycles encode buffers. Buffers are held via pointer-to-slice so
// Put does not allocate, and oversized buffers are dropped rather than
// pinned forever.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// maxPooledBuf caps the capacity of buffers returned to the pool; a rare
// huge batch must not permanently inflate the pool's footprint.
const maxPooledBuf = 1 << 20

// GetBuf returns an empty encode buffer from the pool.
func GetBuf() []byte { return (*(bufPool.Get().(*[]byte)))[:0] }

// PutBuf returns a buffer obtained from GetBuf. The caller must not touch
// the buffer afterwards — decoded messages that alias it included.
func PutBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	b = b[:0]
	bufPool.Put(&b)
}

// --- registry ---

var (
	regMu     sync.RWMutex
	factories = make(map[uint16]func() Message)
)

// Register records the factory for a message type under its WireID. It is
// called from package init functions (like gob.Register used to be);
// duplicate ids panic — the id space in ids.go is a hand-kept contract.
func Register(factory func() Message) {
	id := factory().WireID()
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := factories[id]; dup {
		panic(fmt.Sprintf("wire: duplicate registration for id %d", id))
	}
	factories[id] = factory
}

// RegisteredIDs returns every registered wire id (order unspecified). The
// fuzz and round-trip tests use it to cover the whole message surface.
func RegisteredIDs() []uint16 {
	regMu.RLock()
	defer regMu.RUnlock()
	ids := make([]uint16, 0, len(factories))
	for id := range factories {
		ids = append(ids, id)
	}
	return ids
}

// New returns a fresh zero message for a registered id.
func New(id uint16) (Message, bool) {
	regMu.RLock()
	f, ok := factories[id]
	regMu.RUnlock()
	if !ok {
		return nil, false
	}
	return f(), true
}

// --- framing ---

// frameHeader is [i32 from][u16 type id]; the u32 body length travels ahead
// of it on the stream.
const frameHeader = 4 + 2

// marshals counts every message-body marshal performed through this package
// — the counter the marshal-once broadcast tests assert on.
var marshals atomic.Int64

// Marshals returns the cumulative number of message-body marshals.
func Marshals() int64 { return marshals.Load() }

// CountMarshal records one message-body marshal performed outside
// AppendFrame/Marshal (the WAL append path uses it so the same counter
// covers both encoders).
func CountMarshal() { marshals.Add(1) }

// Marshal encodes a message body into a fresh slice.
func Marshal(m Message) []byte {
	marshals.Add(1)
	return m.MarshalTo(nil)
}

// Unmarshal decodes a message body for a registered id.
func Unmarshal(id uint16, body []byte) (Message, error) {
	m, ok := New(id)
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrUnknownType, id)
	}
	if err := m.Unmarshal(body); err != nil {
		return nil, err
	}
	return m, nil
}

// AppendFrame appends one complete transport frame — length word, sender,
// type id, body — to buf. The destination is not part of the frame (see the
// package comment), which is what lets a broadcast encode once: the caller
// writes the identical returned bytes to every peer.
func AppendFrame(buf []byte, from int32, m Message) []byte {
	marshals.Add(1)
	lenAt := len(buf)
	buf = AppendU32(buf, 0) // patched below
	buf = AppendI32(buf, from)
	buf = AppendU16(buf, m.WireID())
	buf = m.MarshalTo(buf)
	binary.BigEndian.PutUint32(buf[lenAt:], uint32(len(buf)-lenAt-4))
	return buf
}

// AppendHello appends a body-less IDHello frame from the given sender.
func AppendHello(buf []byte, from int32) []byte {
	buf = AppendU32(buf, frameHeader)
	buf = AppendI32(buf, from)
	return AppendU16(buf, IDHello)
}

// DecodeFrame decodes a frame body (the bytes after the u32 length word):
// the sender and the registered message, nil for a hello frame. The message
// aliases body.
func DecodeFrame(body []byte) (from int32, m Message, err error) {
	if len(body) < frameHeader {
		return 0, nil, ErrTruncated
	}
	from = int32(binary.BigEndian.Uint32(body[0:4]))
	id := binary.BigEndian.Uint16(body[4:6])
	if id == IDHello && len(body) == frameHeader {
		return from, nil, nil
	}
	m, err = Unmarshal(id, body[frameHeader:])
	if err != nil {
		return 0, nil, err
	}
	return from, m, nil
}

// EncodedSize returns the wire-encoded body size of msg, or -1 when msg does
// not implement Message. It performs a real marshal into a pooled buffer —
// callers that use it as a cost model (ChanNet's send-cost recalibration,
// DESIGN.md §3) therefore charge the sender the true serialization CPU.
func EncodedSize(msg any) int {
	m, ok := msg.(Message)
	if !ok {
		return -1
	}
	buf := GetBuf()
	buf = m.MarshalTo(buf)
	n := len(buf)
	PutBuf(buf)
	return n
}
