package wire

import (
	"bytes"
	"testing"
)

// encodeTraced builds an event-shaped record with the trace trailer.
func encodeTraced(tid uint64, sendNs int64) []byte {
	buf := AppendString(nil, "node-1")
	buf = AppendBytesField(buf, []byte("payload"))
	return AppendTraceExt(buf, tid, sendNs)
}

func TestTraceExtRoundTrip(t *testing.T) {
	rec := encodeTraced(0xABCD000000000042, 1234567890123)
	d := NewDecoder(rec)
	_ = d.StringBytes()
	_ = d.BytesFieldView()
	tid, sendNs, ok := d.TraceExt()
	if !ok || tid != 0xABCD000000000042 || sendNs != 1234567890123 {
		t.Fatalf("TraceExt = %x, %d, %v", tid, sendNs, ok)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish after trailer: %v", err)
	}
}

func TestTraceExtAbsent(t *testing.T) {
	buf := AppendString(nil, "node-1")
	buf = AppendBytesField(buf, []byte("payload"))
	d := NewDecoder(buf)
	_ = d.StringBytes()
	_ = d.BytesFieldView()
	if _, _, ok := d.TraceExt(); ok {
		t.Fatal("TraceExt claimed a trailer on an untraced record")
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish on untraced record: %v", err)
	}
}

// TestTraceExtDoesNotConsumeForeignTrailing pins the self-identification
// contract: bytes that are not exactly a trace trailer are left in place for
// Finish to reject, whether the length or the marker is wrong.
func TestTraceExtDoesNotConsumeForeignTrailing(t *testing.T) {
	base := AppendString(nil, "n")

	// Right length, wrong marker.
	wrongMarker := append(bytes.Clone(base), make([]byte, TraceExtSize)...)
	d := NewDecoder(wrongMarker)
	_ = d.StringBytes()
	if _, _, ok := d.TraceExt(); ok {
		t.Fatal("TraceExt accepted a trailer without the marker")
	}
	if d.Finish() == nil {
		t.Fatal("Finish accepted unconsumed trailing bytes")
	}

	// Right marker, wrong length (extra byte after the trailer).
	longer := AppendTraceExt(bytes.Clone(base), 7, 7)
	longer = append(longer, 0)
	d = NewDecoder(longer)
	_ = d.StringBytes()
	if _, _, ok := d.TraceExt(); ok {
		t.Fatal("TraceExt accepted a trailer that was not the exact remainder")
	}
	if d.Finish() == nil {
		t.Fatal("Finish accepted the malformed tail")
	}
}

func TestTraceExtAfterDecodeErrorIsInert(t *testing.T) {
	d := NewDecoder([]byte{0xFF}) // too short for any field
	_ = d.Uint64()                // sets the sticky error
	if _, _, ok := d.TraceExt(); ok {
		t.Fatal("TraceExt succeeded on an errored decoder")
	}
}

// TestTracedReceivePathIsAllocationFree extends the steady-state allocation
// pin to traced frames: decoding a batch whose records carry trace trailers
// allocates nothing once buffers are warm — tracing must not undo PR 4.
func TestTracedReceivePathIsAllocationFree(t *testing.T) {
	var records [][]byte
	for i, s := range []string{"rec-a", "rec-bb", "rec-ccc"} {
		e := NewEncoder(32)
		e.String("node-1")
		e.Uint64(42)
		e.BytesField([]byte(s))
		rec := AppendTraceExt(e.Bytes(), uint64(0x1000+i), int64(1e9+i))
		records = append(records, rec)
	}
	var stream bytes.Buffer
	if err := WriteFrame(&stream, 3, EncodeBatch(records)); err != nil {
		t.Fatal(err)
	}

	chunk := stream.Bytes()
	var p Parser
	var batch [][]byte
	var traced int
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
			_ = d.StringBytes()
			_ = d.Uint64()
			_ = d.BytesFieldView()
			if tid, _, ok := d.TraceExt(); ok && tid != 0 {
				traced++
			}
			if d.Finish() != nil {
				t.Fatal("decode failed")
			}
		}
	}
	receive()
	if traced != 3 {
		t.Fatalf("warm-up decoded %d traced records, want 3", traced)
	}
	if avg := testing.AllocsPerRun(200, receive); avg != 0 {
		t.Fatalf("traced receive path allocates %.1f times per frame, want 0", avg)
	}
}
