package wire

import (
	"bytes"
	"io"
	"net"
	"testing"
)

// frames builds a stream of frames in one buffer.
func frames(t *testing.T, payloads ...[]byte) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	for i, p := range payloads {
		if err := WriteFrame(&buf, uint8(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	return &buf
}

// TestParserReusesSplitFrameBuffer pins the Parser ownership contract for
// frames that arrive split across reads: the payload is accumulated in the
// parser's buffer, and the next split frame of no greater size reuses it. A
// consumer that held the first payload past the next Next call observes the
// second frame's bytes — the violation is caught.
func TestParserReusesSplitFrameBuffer(t *testing.T) {
	stream := frames(t, []byte("frame-one"), []byte("frame-two")).Bytes()
	var p Parser
	var views [][]byte // retained on purpose: a contract violation
	for i := range stream {
		_, _, payload, ok, err := p.Next(stream[i : i+1])
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			views = append(views, payload)
		}
	}
	if len(views) != 2 || string(views[1]) != "frame-two" {
		t.Fatalf("frames = %q, want two", views)
	}
	if &views[0][0] != &views[1][0] || string(views[0]) != "frame-two" {
		t.Fatalf("first payload reads %q; the split-frame buffer was not reused", views[0])
	}
}

// TestDecodeBatchIntoViewsAliasBuffer pins the zero-copy batch contract:
// decoded events are subslices of the batch buffer, not copies.
func TestDecodeBatchIntoViewsAliasBuffer(t *testing.T) {
	batch := EncodeBatch([][]byte{[]byte("aaaa"), []byte("bbbb")})
	events, err := DecodeBatchInto(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || string(events[0]) != "aaaa" || string(events[1]) != "bbbb" {
		t.Fatalf("events = %q", events)
	}
	// Mutate the underlying buffer; the views must change with it.
	for i := range batch {
		batch[i] = 'Z'
	}
	if string(events[0]) != "ZZZZ" || string(events[1]) != "ZZZZ" {
		t.Fatalf("views did not alias the buffer: %q", events)
	}
}

// TestDecodeBatchIntoReusesDst pins scratch reuse: a recycled dst slice is
// appended into, not reallocated, when capacity suffices.
func TestDecodeBatchIntoReusesDst(t *testing.T) {
	batch := EncodeBatch([][]byte{[]byte("one"), []byte("two"), []byte("three")})
	scratch := make([][]byte, 0, 8)
	events, err := DecodeBatchInto(scratch[:0], batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 || cap(events) != 8 {
		t.Fatalf("len=%d cap=%d, want len 3 in the caller's cap-8 scratch", len(events), cap(events))
	}
}

// TestWriteFrameVectoredMatchesFallback pins that the writev fast path on a
// real TCP connection produces byte-identical frames to the generic path.
func TestWriteFrameVectoredMatchesFallback(t *testing.T) {
	payload := bytes.Repeat([]byte("payload"), 100)

	var generic bytes.Buffer
	if err := WriteFrame(&generic, 7, payload); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- nil
			return
		}
		defer conn.Close()
		all, _ := io.ReadAll(conn)
		done <- all
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, 7, payload); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	got := <-done
	if !bytes.Equal(got, generic.Bytes()) {
		t.Fatalf("vectored TCP write produced %d bytes, generic %d; frames differ", len(got), generic.Len())
	}
}

// TestSteadyStateReceivePathIsAllocationFree pins the tentpole acceptance
// criterion at the wire layer: parsing a frame out of a received chunk,
// unpacking its batch and decoding every record allocates nothing once the
// buffers are warm.
func TestSteadyStateReceivePathIsAllocationFree(t *testing.T) {
	// One batch frame holding three event-shaped records.
	var records [][]byte
	for _, s := range []string{"rec-a", "rec-bb", "rec-ccc"} {
		e := NewEncoder(32)
		e.String("node-1")
		e.Uint64(42)
		e.BytesField([]byte(s))
		records = append(records, e.Bytes())
	}
	var stream bytes.Buffer
	if err := WriteFrame(&stream, 3, EncodeBatch(records)); err != nil {
		t.Fatal(err)
	}

	chunk := stream.Bytes()
	var p Parser
	var batch [][]byte
	sink := 0
	receive := func() {
		_, _, payload, ok, err := p.Next(chunk)
		if err != nil || !ok {
			t.Fatalf("Next = ok %v, %v", ok, err)
		}
		var derr error
		batch, derr = DecodeBatchInto(batch[:0], payload)
		if derr != nil {
			t.Fatal(derr)
		}
		for _, rec := range batch {
			d := NewDecoder(rec)
			from := d.StringBytes()
			seq := d.Uint64()
			body := d.BytesFieldView()
			if d.Finish() != nil || len(from) == 0 || seq != 42 {
				t.Fatal("decode failed")
			}
			sink += len(body)
		}
	}
	receive() // warm the batch scratch
	if avg := testing.AllocsPerRun(200, receive); avg != 0 {
		t.Fatalf("steady-state receive path allocates %.1f times per frame, want 0", avg)
	}
	_ = sink
}
