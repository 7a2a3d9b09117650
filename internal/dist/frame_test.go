package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []*Frame{
		{T: TypeHello, V: ProtocolVersion, Worker: "w1", Slots: 4, Nonce: 0xDEADBEEF},
		{T: TypeLease, Lease: &Lease{Addr: "abc", Kind: "model", Spec: json.RawMessage(`{"b":40}`), Lo: 3, Hi: 9, TTLMs: 1500}},
		{T: TypeHeartbeat, Addr: "abc"},
		{T: TypeResult, Addr: "abc", Payload: []byte(`[1,2,3]`), EvalMs: 12},
		{T: TypeResult, Addr: "bin", Payload: []byte{0, '\n', 0xff, '{', '"'}},
		{T: TypeNack, Addr: "abc", Err: "boom"},
		{T: TypeGoodbye, Worker: "w1"},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatalf("write %q: %v", f.T, err)
		}
	}
	for _, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read %q: %v", want.T, err)
		}
		// Payload travels outside the JSON header, so compare it
		// separately; N and CRC are the wire-side fields WriteFrame
		// filled in.
		if !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("round trip %q payload:\n got %q\nwant %q", want.T, got.Payload, want.Payload)
		}
		if got.N != len(want.Payload) {
			t.Fatalf("round trip %q: N = %d, want %d", want.T, got.N, len(want.Payload))
		}
		got.N, got.CRC = 0, 0
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if !bytes.Equal(gj, wj) {
			t.Fatalf("round trip %q:\n got %s\nwant %s", want.T, gj, wj)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("drained stream: err = %v, want io.EOF", err)
	}
}

func TestFrameJSONL(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Frame{T: TypeHeartbeat, Addr: "x"}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if b[len(b)-1] != '\n' {
		t.Fatal("frame body does not end in newline (breaks greppability)")
	}
	n := binary.BigEndian.Uint32(b[:4])
	if int(n) != len(b)-4 {
		t.Fatalf("length prefix %d, body %d", n, len(b)-4)
	}
}

func TestReadFrameMalformed(t *testing.T) {
	mk := func(b []byte) io.Reader { return bytes.NewReader(b) }
	prefix := func(n uint32, body []byte) []byte {
		out := make([]byte, 4, 4+len(body))
		binary.BigEndian.PutUint32(out, n)
		return append(out, body...)
	}
	framed := func(body string) []byte { return prefix(uint32(len(body)), []byte(body)) }
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, io.EOF},
		{"short header", []byte{0, 0}, ErrBadFrame},
		{"zero length", prefix(0, nil), ErrBadFrame},
		{"oversized prefix", prefix(MaxFrameBytes+1, nil), ErrFrameTooLarge},
		{"lying prefix truncated body", prefix(1<<20, []byte(`{"t":"x"}`)), ErrBadFrame},
		{"junk body", prefix(4, []byte("junk")), ErrBadFrame},
		{"valid json missing type", prefix(3, []byte("{}\n")), ErrBadFrame},
		{"header without newline", framed(`{"t":"x"}`), ErrBadFrame},
		{"n larger than tail", framed(`{"t":"x","n":3}` + "\nab"), ErrBadFrame},
		{"n smaller than tail", framed(`{"t":"x","n":3}` + "\nabcd"), ErrBadFrame},
		{"negative n", framed(`{"t":"x","n":-1}` + "\n"), ErrBadFrame},
		{"tail without n", framed(`{"t":"x"}` + "\nab"), ErrBadFrame},
		{"n without tail", framed(`{"t":"x","n":2}` + "\n"), ErrBadFrame},
		{"tail without crc", framed(`{"t":"x","n":2}` + "\nab"), ErrBadFrame},
		{"crc without tail", framed(`{"t":"x","crc":1}` + "\n"), ErrBadFrame},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadFrame(mk(tc.in))
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestReadFrameRejectsCorruptTail: a flipped bit anywhere in a binary
// payload fails the frame (the header's crc), where JSON syntax used to
// catch only some corruptions of an embedded payload.
func TestReadFrameRejectsCorruptTail(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{1, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0xf0, 0x3f, '\n', 0}
	if err := WriteFrame(&buf, &Frame{T: TypeResult, Addr: "a", Payload: payload}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	start := len(good) - len(payload)
	for i := start; i < len(good); i++ {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x80
		if _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("flipped payload byte %d: err = %v, want ErrBadFrame", i-start, err)
		}
	}
}

func TestWriteFrameTooLarge(t *testing.T) {
	// The cap covers header and tail together: a payload that fits on
	// its own is still refused once the header pushes the body over.
	f := &Frame{T: TypeResult, Payload: []byte(strings.Repeat("x", MaxFrameBytes-4))}
	if err := WriteFrame(io.Discard, f); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// FuzzReadFrame asserts the decoder never panics and never trusts a
// length prefix: any input either yields a well-formed frame or a clean
// error, without allocating beyond the bytes actually present.
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteFrame(&seed, &Frame{T: TypeHello, V: ProtocolVersion, Worker: "w", Slots: 2})
	f.Add(seed.Bytes())
	seed.Reset()
	_ = WriteFrame(&seed, &Frame{T: TypeResult, Addr: "a", Payload: []byte(`[1]`)})
	f.Add(seed.Bytes())
	seed.Reset()
	_ = WriteFrame(&seed, &Frame{T: TypeResult, Addr: "b", Payload: []byte{1, 0, 0, 0, '\n', 0xff, 0}})
	f.Add(seed.Bytes())
	seed.Reset()
	_ = WriteFrame(&seed, &Frame{T: TypeGoodbye, Worker: "w"})
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 4, 'j', 'u', 'n', 'k'})
	f.Add([]byte{0, 0, 16, 0, '{', '}'}) // lying prefix, short body
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			if fr != nil {
				t.Fatal("non-nil frame alongside error")
			}
			return
		}
		if fr.T == "" {
			t.Fatal("decoded frame with empty type")
		}
		// A decoded frame must re-encode (flush out unmarshal-only
		// states), and the re-encoding is a fixed point that carries the
		// payload bytes through unchanged.
		var once, twice bytes.Buffer
		if err := WriteFrame(&once, fr); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := ReadFrame(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if !bytes.Equal(back.Payload, fr.Payload) {
			t.Fatalf("payload changed across re-encode: %q -> %q", fr.Payload, back.Payload)
		}
		if err := WriteFrame(&twice, back); err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("re-encoding not a fixed point:\n %q\n %q", once.Bytes(), twice.Bytes())
		}
	})
}
