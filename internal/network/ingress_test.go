package network

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"
	"time"

	"github.com/poexec/poe/internal/types"
)

// TestIngressCheck: on every transport, a message the receiver's installed
// check rejects never reaches Inbox, one it passes arrives marked Checked,
// and messages from one sender arrive in the order they were sent.
// Envelopes queued before the check was installed arrive unmarked.
func TestIngressCheck(t *testing.T) {
	n0, n1 := types.ReplicaNode(0), types.ReplicaNode(1)
	for _, tc := range []struct {
		name  string
		nodes func(t *testing.T) (from, to Transport)
	}{
		{"chan", func(t *testing.T) (Transport, Transport) {
			cn := NewChanNet()
			t.Cleanup(cn.Close)
			return cn.Join(n0), cn.Join(n1)
		}},
		{"tcp", func(t *testing.T) (Transport, Transport) {
			nets := tcpCluster(t, 2)
			return nets[0], nets[1]
		}},
		{"faultnet-chan", func(t *testing.T) (Transport, Transport) {
			fn := NewFaultNet(NewChanNet())
			t.Cleanup(fn.Close)
			return fn.Join(n0), fn.Join(n1)
		}},
		{"faultnet-tcp", func(t *testing.T) (Transport, Transport) {
			nets := tcpCluster(t, 2)
			fn := NewFaultNet(nil)
			t.Cleanup(fn.Close)
			return fn.Wrap(nets[0]), fn.Wrap(nets[1])
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			from, to := tc.nodes(t)
			recv := func() Envelope {
				t.Helper()
				select {
				case env := <-to.Inbox():
					return env
				case <-time.After(5 * time.Second):
					t.Fatal("message not delivered")
					return Envelope{}
				}
			}

			from.Send(n1, &ping{N: -1})
			if env := recv(); env.Msg.(*ping).N != -1 || env.Checked {
				t.Fatalf("before SetCheck: got %+v, want ping -1 unmarked", env)
			}

			to.SetCheck(func(env *Envelope) bool { return env.Msg.(*ping).N%2 == 0 })
			const n = 200
			for i := 0; i <= n; i++ {
				from.Send(n1, &ping{N: i})
			}
			// The last message sent passes, so once it arrives every odd one
			// had its chance to and order says none did.
			for want := 0; want <= n; want += 2 {
				env := recv()
				if got := env.Msg.(*ping).N; got != want {
					t.Fatalf("got ping %d, want %d: a rejected or reordered message reached the inbox", got, want)
				}
				if !env.Checked {
					t.Fatalf("ping %d passed the check but arrived unmarked", want)
				}
			}

			to.SetCheck(nil)
			from.Send(n1, &ping{N: 1})
			if env := recv(); env.Msg.(*ping).N != 1 || env.Checked {
				t.Fatalf("after SetCheck(nil): got %+v, want ping 1 unmarked", env)
			}
		})
	}
}

// frameHeader is a frame's length prefix.
func frameHeader(length uint32) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], length)
	return hdr[:]
}

// readSignal is a reader that closes second when its second Read begins —
// for readFrame, once the header is in and the body's buffer is allocated.
type readSignal struct {
	r      io.Reader
	reads  int
	second chan struct{}
}

func (s *readSignal) Read(p []byte) (int, error) {
	s.reads++
	if s.reads == 2 {
		close(s.second)
	}
	return s.r.Read(p)
}

// TestReadFrameStalledHeaderBoundedHeap: a peer that declares the largest
// frame and then sends nothing costs the reader under 1 MiB of heap, not the
// 64 MiB it declared.
func TestReadFrameStalledHeaderBoundedHeap(t *testing.T) {
	const stalled = 2
	pws := make([]*io.PipeWriter, stalled)
	brs := make([]*bufio.Reader, stalled)
	sigs := make([]*readSignal, stalled)
	for i := range pws {
		pr, pw := io.Pipe()
		pws[i] = pw
		sigs[i] = &readSignal{r: pr, second: make(chan struct{})}
		brs[i] = bufio.NewReaderSize(sigs[i], 64*1024)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	done := make(chan error, stalled)
	for i := range pws {
		go func(br *bufio.Reader) {
			_, err := readFrame(br)
			done <- err
		}(brs[i])
		if _, err := pws[i].Write(frameHeader(maxFrameSize)); err != nil {
			t.Fatal(err)
		}
		<-sigs[i].second
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	for _, pw := range pws {
		pw.Close()
	}
	for range pws {
		if err := <-done; err == nil {
			t.Fatal("a cut frame was returned whole")
		}
	}
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if per := grown / stalled; per > 1<<20 {
		t.Fatalf("each stalled 64 MiB header holds %d KiB of heap, want under 1 MiB", per>>10)
	}
}

// TestReadFrameGrowsToLength: frames longer than the first read buffer,
// arriving in dribs, come back whole and exact; an over-long declaration is
// refused.
func TestReadFrameGrowsToLength(t *testing.T) {
	for _, size := range []int{0, 1, frameStep - 1, frameStep, frameStep + 1, 5*frameStep + 123} {
		body := make([]byte, size)
		for i := range body {
			body[i] = byte(i * 7)
		}
		stream := append(frameHeader(uint32(size)), body...)
		// 1000-byte reads split the body across every buffer boundary.
		br := bufio.NewReaderSize(&chunkReader{data: stream, chunk: 1000}, 64*1024)
		got, err := readFrame(br)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("size %d: got %d bytes, err %v", size, len(got), err)
		}
	}
	br := bufio.NewReader(bytes.NewReader(frameHeader(maxFrameSize + 1)))
	if _, err := readFrame(br); err == nil {
		t.Fatal("a frame over maxFrameSize was accepted")
	}
}

// chunkReader returns at most chunk bytes per Read.
type chunkReader struct {
	data  []byte
	chunk int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), c.chunk, len(c.data))
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}
