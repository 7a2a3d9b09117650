// Package dist is the repository's deterministic multi-node execution
// layer: a stdlib-only coordinator/worker subsystem that shards large
// fixed-seed computations — Monte-Carlo ensembles, figure regenerations,
// served queries — across any number of worker processes while keeping
// the repository's signature bit-identical determinism.
//
// The design rests on the same two rules as the single-node engine
// (internal/par):
//
//   - Work is indexed, never divided by wall clock or arrival order. A
//     task is (canonical spec bytes, N indexed units); the coordinator
//     cuts [0, N) into contiguous shards, and unit i always means the
//     same computation (model run i draws stats.RNG.At(i)) no matter
//     which worker evaluates it or how often.
//   - Results are position-addressed. Shard payloads are returned in
//     shard (index) order and merged by an ordered fold, so any
//     partitioning across any number of workers reproduces the serial
//     trajectory byte for byte.
//
// Because shards are pure functions of (spec, index range), execution is
// idempotent: a shard may be leased twice (after a worker dies, or
// speculatively for stragglers) and the first result wins — duplicates
// are counted and dropped, never merged twice. That turns fault recovery
// into re-execution with zero correctness cost.
//
// Transport is a versioned, length-prefixed protocol over TCP: each
// frame is a 4-byte big-endian body length, then a body made of one
// JSON header line (human-greppable in captures) and an optional raw
// payload tail whose length and CRC-32C the header carries as "n" and
// "crc". Payloads are opaque bytes — binary run partials, JSON response
// bodies — and are never parsed by the transport. Frames are hello
// (handshake, version + slots), lease (coordinator grants a shard),
// heartbeat (worker liveness per shard), result (payload), nack
// (worker-side failure), and goodbye (worker drain announcement: no new
// leases, in-flight shards will finish).
package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"slices"

	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// ProtocolVersion is the wire-protocol version exchanged in hello
// frames; both sides must speak the same version. Version 2 moved
// payloads out of the JSON header into the raw body tail, so a version 1
// peer is refused at hello rather than misreading frames.
const ProtocolVersion = 2

// MaxFrameBytes bounds a single frame body, header and payload tail
// together. The largest legitimate frames are shard result payloads
// (serialized run partials), which stay well under a few MiB; anything
// larger is a corrupt or hostile length prefix and is rejected before
// allocation grows past the cap.
const MaxFrameBytes = 16 << 20

// castagnoli is the CRC-32C table for payload checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrFrameTooLarge reports a length prefix beyond MaxFrameBytes.
var ErrFrameTooLarge = errors.New("dist: frame exceeds size limit")

// ErrBadFrame tags every malformed-frame failure (zero length, junk
// bytes, truncation) so transports can treat the class uniformly.
var ErrBadFrame = errors.New("dist: malformed frame")

// Frame types.
const (
	// TypeHello opens a connection in both directions: the worker sends
	// its version, name, and slot count; the coordinator acknowledges
	// with its version.
	TypeHello = "hello"
	// TypeLease grants a shard to a worker (coordinator → worker).
	TypeLease = "lease"
	// TypeHeartbeat renews a shard lease (worker → coordinator).
	TypeHeartbeat = "heartbeat"
	// TypeResult delivers a shard's payload (worker → coordinator).
	TypeResult = "result"
	// TypeNack reports a shard evaluation failure (worker → coordinator)
	// or a fatal protocol rejection (coordinator → worker).
	TypeNack = "nack"
	// TypeGoodbye announces a graceful worker drain (worker →
	// coordinator): grant no further leases; in-flight shards will still
	// deliver results, and the eventual disconnect costs no strike. The
	// frame is version-compatible — a peer that predates it logs and
	// ignores the unknown type.
	TypeGoodbye = "goodbye"
)

// ReasonDraining is the nack reason a draining worker attaches when a
// lease races its goodbye: the coordinator requeues the shard without
// charging the worker a health strike.
const ReasonDraining = "worker draining"

// Frame is the single wire envelope; T selects which fields are
// meaningful. A union type keeps the codec — and its fuzz surface — in
// one place.
type Frame struct {
	T string `json:"t"`
	// Hello fields. Nonce is a deterministic per-worker value (derived
	// from the worker's name and target address) that seeds schedule
	// jitter — heartbeat cadence desynchronization across a fleet — while
	// keeping replays reproducible. Goodbye frames reuse Worker.
	V      int    `json:"v,omitempty"`
	Worker string `json:"worker,omitempty"`
	Slots  int    `json:"slots,omitempty"`
	Nonce  uint64 `json:"nonce,omitempty"`
	// Lease grant (coordinator → worker).
	Lease *Lease `json:"lease,omitempty"`
	// Shard address for heartbeat/result/nack.
	Addr string `json:"addr,omitempty"`
	// Result payload (opaque to the protocol). It travels as the raw
	// body tail after the JSON header, never inside it.
	Payload []byte `json:"-"`
	// N and CRC are the payload tail's length in bytes and its CRC-32C.
	// WriteFrame sets both from Payload; ReadFrame rejects a frame whose
	// tail disagrees with either, so a corrupted binary payload fails
	// the frame instead of merging silently.
	N   int    `json:"n,omitempty"`
	CRC uint32 `json:"crc,omitempty"`
	// EvalMs is the worker-reported evaluation time for a result frame,
	// in milliseconds. obs.F64 keeps the frame valid JSON even if a
	// worker clock produces a non-finite value.
	EvalMs obs.F64 `json:"evalMs,omitempty"`
	// Nack reason.
	Err string `json:"err,omitempty"`
	// Spans carries worker-side trace spans back with a result frame so
	// the coordinator can stitch them into the request's trace. Absent
	// unless the lease carried a trace ID; old peers ignore it (unknown
	// JSON fields are dropped on decode).
	Spans []trace.SpanData `json:"spans,omitempty"`
}

// Lease describes one granted shard: the evaluator kind, the spec bytes
// it parameterizes, the index range [Lo, Hi), the shard's content
// address, and the lease TTL the worker must heartbeat within.
type Lease struct {
	Addr  string          `json:"addr"`
	Kind  string          `json:"kind"`
	Spec  json.RawMessage `json:"spec"`
	Lo    int             `json:"lo"`
	Hi    int             `json:"hi"`
	TTLMs int64           `json:"ttlMs"`
	// TraceID/ParentSpanID propagate the request's trace context to the
	// worker: the worker binds its eval span under ParentSpanID (the
	// coordinator's per-grant shard span) and ships completed spans back
	// in the result frame. Empty when tracing is off; old workers ignore
	// them.
	TraceID      string `json:"traceId,omitempty"`
	ParentSpanID string `json:"parentSpan,omitempty"`
}

// WriteFrame encodes f as one length-prefixed frame on w: the JSON
// header line, then Payload as the raw tail.
func WriteFrame(w io.Writer, f *Frame) error {
	hdr := *f
	hdr.Payload, hdr.N, hdr.CRC = nil, len(f.Payload), crc32.Checksum(f.Payload, castagnoli)
	head, err := json.Marshal(&hdr)
	if err != nil {
		return fmt.Errorf("dist: encode frame: %w", err)
	}
	size := len(head) + 1 + len(f.Payload)
	if size > MaxFrameBytes {
		return fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, size)
	}
	buf := make([]byte, 4, 4+len(head)+1)
	binary.BigEndian.PutUint32(buf, uint32(size))
	buf = append(append(buf, head...), '\n')
	// One writev on a TCP conn; the payload is never copied.
	bufs := net.Buffers{buf, f.Payload}
	_, err = bufs.WriteTo(w)
	return err
}

// ReadFrame decodes one frame from r. Truncated streams, zero or
// oversized length prefixes, non-JSON headers and tails whose length or
// checksum disagrees with the header's "n" or "crc" all error cleanly;
// the body buffer grows only as bytes actually arrive, so a hostile
// length prefix cannot force a large allocation.
func ReadFrame(r io.Reader) (*Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: short header: %v", ErrBadFrame, err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, fmt.Errorf("%w: zero-length frame", ErrBadFrame)
	}
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	b, err := readBody(r, int(n))
	if err != nil {
		return nil, fmt.Errorf("%w: truncated body (%d of %d bytes): %v", ErrBadFrame, len(b), n, err)
	}
	// json.Marshal never emits a raw newline, so the first one ends the
	// header.
	end := bytes.IndexByte(b, '\n')
	if end < 0 {
		return nil, fmt.Errorf("%w: header line not terminated", ErrBadFrame)
	}
	f := &Frame{}
	if err := json.Unmarshal(b[:end], f); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if f.T == "" {
		return nil, fmt.Errorf("%w: missing frame type", ErrBadFrame)
	}
	tail := b[end+1:]
	if f.N != len(tail) {
		return nil, fmt.Errorf("%w: header says %d payload bytes, tail has %d", ErrBadFrame, f.N, len(tail))
	}
	if sum := crc32.Checksum(tail, castagnoli); f.CRC != sum {
		return nil, fmt.Errorf("%w: payload crc %08x, header says %08x", ErrBadFrame, sum, f.CRC)
	}
	if len(tail) > 0 {
		f.Payload = tail
	}
	return f, nil
}

// readBody reads exactly n bytes from r. It allocates as bytes arrive —
// 64 KiB first, then doubling up to n — instead of trusting n upfront,
// so a lying length prefix on a short stream costs only about twice the
// bytes that actually arrived.
func readBody(r io.Reader, n int) ([]byte, error) {
	b := make([]byte, 0, min(n, 64<<10))
	for len(b) < n {
		if len(b) == cap(b) {
			b = slices.Grow(b, min(n-len(b), cap(b)))
		}
		m, err := io.ReadFull(r, b[len(b):min(cap(b), n)])
		b = b[:len(b)+m]
		if err != nil {
			return b, err
		}
	}
	return b, nil
}
