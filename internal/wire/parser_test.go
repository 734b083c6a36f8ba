package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
)

// feedParser pushes data through p in chunks of at most chunk bytes and
// returns every completed frame (type, copied payload).
func feedParser(t *testing.T, p *Parser, data []byte, chunk int) (types []uint8, payloads [][]byte) {
	t.Helper()
	for off := 0; off < len(data); {
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		buf := data[off:end]
		for len(buf) > 0 {
			n, typ, payload, ok, err := p.Next(buf)
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
			buf = buf[n:]
			off += n
			if ok {
				types = append(types, typ)
				payloads = append(payloads, append([]byte(nil), payload...))
			}
		}
	}
	return types, payloads
}

// TestParserMatchesReadFrame feeds a stream of frames through the
// incremental parser at every pathological chunking — byte-by-byte, prime
// sizes, whole-stream — and requires the exact frame sequence a blocking
// ReadFrame loop would produce.
func TestParserMatchesReadFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var stream bytes.Buffer
	var wantTypes []uint8
	var wantPayloads [][]byte
	for i := 0; i < 20; i++ {
		typ := uint8(1 + rng.Intn(3))
		payload := make([]byte, rng.Intn(300)) // includes 0-length payloads
		rng.Read(payload)
		if err := WriteFrame(&stream, typ, payload); err != nil {
			t.Fatal(err)
		}
		wantTypes = append(wantTypes, typ)
		wantPayloads = append(wantPayloads, payload)
	}
	for _, chunk := range []int{1, 2, 3, 7, 13, 64, stream.Len()} {
		var p Parser
		types, payloads := feedParser(t, &p, stream.Bytes(), chunk)
		if len(types) != len(wantTypes) {
			t.Fatalf("chunk %d: got %d frames, want %d", chunk, len(types), len(wantTypes))
		}
		for i := range types {
			if types[i] != wantTypes[i] || !bytes.Equal(payloads[i], wantPayloads[i]) {
				t.Fatalf("chunk %d: frame %d mismatch", chunk, i)
			}
		}
	}
}

// TestParserZeroCopyFastPath pins the no-copy contract: a frame that lands
// whole inside one chunk is returned as a view into the caller's buffer.
func TestParserZeroCopyFastPath(t *testing.T) {
	var stream bytes.Buffer
	payload := []byte("view me")
	if err := WriteFrame(&stream, 2, payload); err != nil {
		t.Fatal(err)
	}
	var p Parser
	data := stream.Bytes()
	n, _, got, ok, err := p.Next(data)
	if err != nil || !ok || n != len(data) {
		t.Fatalf("Next = (%d, ok=%v, err=%v)", n, ok, err)
	}
	if &got[0] != &data[HeaderSize] {
		t.Fatal("complete-in-one-chunk payload was copied, want a view into the input")
	}
}

func TestParserRejectsBadFrames(t *testing.T) {
	good := func() []byte {
		var b bytes.Buffer
		if err := WriteFrame(&b, 2, []byte("x")); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	cases := []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }},
		{"version", func(b []byte) []byte { b[2] = Version + 1; return b }},
		{"oversize", func(b []byte) []byte {
			b[4], b[5], b[6], b[7] = 0xFF, 0xFF, 0xFF, 0xFF
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var p Parser
			_, _, _, _, err := p.Next(tc.mangle(good()))
			if err == nil {
				t.Fatal("mangled header accepted")
			}
		})
	}
}

// frameErrClass names the failure a frame stream ended with, so ReadFrame's
// and Parser's verdicts on the same bytes can be compared: "" for a clean
// end at a frame boundary, "truncated" for a stream that stops mid-frame,
// and one class per header check.
func frameErrClass(err error) string {
	switch {
	case err == nil || err == io.EOF:
		return ""
	case errors.Is(err, ErrBadMagic):
		return "magic"
	case errors.Is(err, ErrBadVersion):
		return "version"
	case errors.Is(err, ErrFrameSize):
		return "size"
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return "truncated"
	}
	return "other: " + err.Error()
}

// FuzzParserMatchesReadFrame is the single-decoder property: for any byte
// stream cut into any chunking (chunks[i] gives the i-th chunk size, 1–256
// bytes, cycling; no chunks means one whole-stream chunk), the incremental
// Parser yields exactly the frames a blocking ReadFrame loop yields and
// stops with the same class of error.
func FuzzParserMatchesReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream, chunks []byte) {
		var wantTypes []uint8
		var wantPayloads [][]byte
		r := bytes.NewReader(stream)
		var wantClass string
		for {
			typ, payload, err := ReadFrame(r)
			if err != nil {
				wantClass = frameErrClass(err)
				break
			}
			wantTypes = append(wantTypes, typ)
			wantPayloads = append(wantPayloads, payload)
		}

		var p Parser
		var types []uint8
		var payloads [][]byte
		gotClass := ""
	feed:
		for off, i := 0, 0; off < len(stream); i++ {
			size := len(stream)
			if len(chunks) > 0 {
				size = 1 + int(chunks[i%len(chunks)])
			}
			data := stream[off:min(off+size, len(stream))]
			off += len(data)
			for len(data) > 0 {
				n, typ, payload, ok, err := p.Next(data)
				if err != nil {
					gotClass = frameErrClass(err)
					break feed
				}
				data = data[n:]
				if ok {
					types = append(types, typ)
					payloads = append(payloads, append([]byte(nil), payload...))
				}
			}
		}
		if gotClass == "" && p.nHdr > 0 {
			gotClass = "truncated"
		}

		if gotClass != wantClass {
			t.Fatalf("Parser ended with %q, ReadFrame with %q", gotClass, wantClass)
		}
		if len(types) != len(wantTypes) {
			t.Fatalf("Parser yielded %d frames, ReadFrame %d", len(types), len(wantTypes))
		}
		for i := range types {
			if types[i] != wantTypes[i] || !bytes.Equal(payloads[i], wantPayloads[i]) {
				t.Fatalf("frame %d differs: type %d/%d, %d/%d bytes",
					i, types[i], wantTypes[i], len(payloads[i]), len(wantPayloads[i]))
			}
		}
	})
}
