package kecho

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dproc/internal/wire"
)

// chunkTransport hides the socket from the read reactor — its conns embed
// only the net.Conn interface, so they expose no SyscallConn — and returns
// reads in 1–7-byte chunks, forcing every frame through the fallback chunk
// reader's reassembly.
type chunkTransport struct{}

func (chunkTransport) Listen(network, address string) (net.Listener, error) {
	ln, err := net.Listen(network, address)
	if err != nil {
		return nil, err
	}
	return chunkListener{ln}, nil
}

func (chunkTransport) DialTimeout(network, address string, timeout time.Duration) (net.Conn, error) {
	nc, err := net.DialTimeout(network, address, timeout)
	if err != nil {
		return nil, err
	}
	return &chunkConn{Conn: nc}, nil
}

type chunkListener struct{ net.Listener }

func (l chunkListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &chunkConn{Conn: nc}, nil
}

type chunkConn struct {
	net.Conn
	reads int
}

func (c *chunkConn) Read(b []byte) (int, error) {
	c.reads++
	if n := 1 + c.reads%7; len(b) > n {
		b = b[:n]
	}
	return c.Conn.Read(b)
}

// record encodes one event record the way a publisher does.
func record(from string, seq uint64, body []byte) []byte {
	rec := wire.AppendString(nil, from)
	rec = binary.BigEndian.AppendUint64(rec, seq)
	return wire.AppendBytesField(rec, body)
}

// TestFallbackChunkReader drives the fd-less read path with hand-written
// frames arriving a few bytes at a time: single and batch frames — one
// holding a record larger than the reader's buffer — must each be
// delivered exactly once and in order, and a frame with a corrupt magic
// must tear the peer down.
func TestFallbackChunkReader(t *testing.T) {
	reg := newRegistry(t)
	sink := join(t, reg, "mon", "sink", &Options{Transport: chunkTransport{}, DisableReconnect: true})
	var mu sync.Mutex
	var seqs []uint64
	var bodies [][]byte
	var got atomic.Int64
	sink.Subscribe(func(ev Event) {
		mu.Lock()
		seqs = append(seqs, ev.Seq)
		bodies = append(bodies, ev.CopyPayload())
		mu.Unlock()
		got.Add(1)
	})

	conn, err := net.Dial("tcp", sink.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := wire.NewEncoder(32)
	hello.String("mon")
	hello.String("src")
	if err := wire.WriteFrame(conn, frameHello, hello.Bytes()); err != nil {
		t.Fatal(err)
	}
	if !sink.WaitForPeers(1, 2*time.Second) {
		t.Fatal("hello not accepted")
	}
	if n := sink.fallbackReaders.Load(); n != 1 {
		t.Fatalf("fallbackReaders = %d, want 1 for an fd-less conn", n)
	}

	big := bytes.Repeat([]byte("B"), readBufSize+4096)
	want := [][]byte{[]byte("one"), []byte("two"), big, []byte("four"), {}, []byte("six")}
	send := func(typ uint8, payload []byte) {
		t.Helper()
		if err := wire.WriteFrame(conn, typ, payload); err != nil {
			t.Fatal(err)
		}
	}
	send(frameEvent, record("src", 1, want[0]))
	send(frameBatch, wire.EncodeBatch([][]byte{record("src", 2, want[1]), record("src", 3, want[2])}))
	send(frameEvent, record("src", 4, want[3]))
	send(frameBatch, wire.EncodeBatch([][]byte{record("src", 5, want[4]), record("src", 6, want[5])}))
	waitForEvents(t, sink, &got, int64(len(want)))
	mu.Lock()
	for i := range want {
		if seqs[i] != uint64(i+1) || !bytes.Equal(bodies[i], want[i]) {
			t.Fatalf("event %d: seq %d, %d bytes; want seq %d, %d bytes", i, seqs[i], len(bodies[i]), i+1, len(want[i]))
		}
	}
	mu.Unlock()

	var bad bytes.Buffer
	if err := wire.WriteFrame(&bad, frameEvent, record("src", 7, []byte("corrupt"))); err != nil {
		t.Fatal(err)
	}
	bad.Bytes()[0] ^= 0xFF
	if _, err := conn.Write(bad.Bytes()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(sink.Peers()) > 0 || sink.fallbackReaders.Load() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("corrupt frame did not tear the peer down: peers %v, fallback readers %d",
				sink.Peers(), sink.fallbackReaders.Load())
		}
		time.Sleep(time.Millisecond)
	}
	// Every frame before the corrupt one was parsed before the teardown, so
	// a duplicate or a delivery past the corruption would be queued by now.
	sink.Poll()
	if n := got.Load(); n != int64(len(want)) {
		t.Fatalf("delivered %d events in all, want %d exactly once", n, len(want))
	}
}

// TestSilentDialerDoesNotWedgeAccept: a TCP connection that never sends its
// hello must not stop the channel accepting later members, and is cut off
// once the dial timeout expires.
func TestSilentDialerDoesNotWedgeAccept(t *testing.T) {
	reg := newRegistry(t)
	a := join(t, reg, "mon", "a", &Options{DisableReconnect: true, DialTimeout: 200 * time.Millisecond})
	idle, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	b := join(t, reg, "mon", "b", &Options{DisableReconnect: true})
	if !b.WaitForPeers(1, 2*time.Second) {
		t.Fatalf("b peers = %v, want [a]", b.Peers())
	}
	if !a.WaitForPeers(1, 2*time.Second) {
		t.Fatalf("a peers = %v with a silent dialer connected, want [b]: the accept loop is wedged", a.Peers())
	}
	_ = idle.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := idle.Read(make([]byte, 1)); err == nil || isTimeout(err) {
		t.Fatalf("silent dialer read %v, want the conn closed after the dial timeout", err)
	}
}

// TestCloseCutsPendingHandshake: Close must not wait out the dial timeout
// of a dialer whose hello is still outstanding.
func TestCloseCutsPendingHandshake(t *testing.T) {
	reg := newRegistry(t)
	a := join(t, reg, "mon", "a", &Options{DisableReconnect: true, DialTimeout: time.Minute})
	idle, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	time.Sleep(20 * time.Millisecond) // let the handshake block on the hello
	start := time.Now()
	a.Close()
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Close took %v with a handshake pending", d)
	}
}
