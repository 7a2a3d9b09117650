package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrBadPartials tags every DecodePartials failure: truncation, trailing
// bytes, counts larger than the input can hold, and invalid flag bytes.
var ErrBadPartials = errors.New("core: malformed partials encoding")

// minPartialBytes is the smallest encoded RunPartial: three empty curve
// lengths, Steps, Done, and the three phase counters.
const minPartialBytes = 3*4 + 8 + 1 + 3*8

// AppendPartials appends the fixed little-endian binary layout of ps to
// dst and returns the extended slice. It is the wire form distributed
// workers ship partials in:
//
//	partials := u32 count, count × partial
//	partial  := u32 n, n × f64 PotSum   (math.Float64bits)
//	            u32 n, n × i32 PotCnt
//	            u32 n, n × i32 First
//	            i64 Steps, u8 Done (0 or 1)
//	            i64 Phases.Bootstrap, i64 Phases.Efficient, i64 Phases.Last
//
// Floats travel as their IEEE-754 bits, so a partial decodes bit-exact
// (-0, subnormals, NaN payloads included) and merges identically to one
// that never left the process.
func AppendPartials(dst []byte, ps []RunPartial) []byte {
	size := 4
	for i := range ps {
		size += minPartialBytes + 8*len(ps[i].PotSum) + 4*len(ps[i].PotCnt) + 4*len(ps[i].First)
	}
	dst = slices.Grow(dst, size)
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(len(ps)))
	for i := range ps {
		rp := &ps[i]
		dst = le.AppendUint32(dst, uint32(len(rp.PotSum)))
		for _, v := range rp.PotSum {
			dst = le.AppendUint64(dst, math.Float64bits(v))
		}
		dst = le.AppendUint32(dst, uint32(len(rp.PotCnt)))
		for _, v := range rp.PotCnt {
			dst = le.AppendUint32(dst, uint32(v))
		}
		dst = le.AppendUint32(dst, uint32(len(rp.First)))
		for _, v := range rp.First {
			dst = le.AppendUint32(dst, uint32(v))
		}
		dst = le.AppendUint64(dst, uint64(rp.Steps))
		done := byte(0)
		if rp.Done {
			done = 1
		}
		dst = append(dst, done)
		dst = le.AppendUint64(dst, uint64(rp.Phases.Bootstrap))
		dst = le.AppendUint64(dst, uint64(rp.Phases.Efficient))
		dst = le.AppendUint64(dst, uint64(rp.Phases.Last))
	}
	return dst
}

// DecodePartials decodes one AppendPartials encoding from b and appends
// the partials to dst. The whole of b must be consumed. Every count is
// checked against the bytes that remain before anything is allocated, so
// a hostile count costs nothing; empty curves decode as nil.
func DecodePartials(dst []RunPartial, b []byte) ([]RunPartial, error) {
	d := partialDecoder{b: b}
	count := d.count(minPartialBytes)
	if d.err == nil {
		dst = slices.Grow(dst, count)
	}
	for i := 0; i < count && d.err == nil; i++ {
		var rp RunPartial
		if n := d.count(8); n > 0 {
			rp.PotSum = make([]float64, n)
			for j := range rp.PotSum {
				rp.PotSum[j] = math.Float64frombits(d.u64())
			}
		}
		rp.PotCnt = d.int32s()
		rp.First = d.int32s()
		rp.Steps = int(d.u64())
		switch d.u8() {
		case 0:
		case 1:
			rp.Done = true
		default:
			d.fail("partial %d: done byte not 0 or 1", i)
		}
		rp.Phases.Bootstrap = int(d.u64())
		rp.Phases.Efficient = int(d.u64())
		rp.Phases.Last = int(d.u64())
		dst = append(dst, rp)
	}
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return nil, d.err
	}
	return dst, nil
}

// partialDecoder reads little-endian fields from b, consuming it; the
// first failure sticks in err and every later read returns zero.
type partialDecoder struct {
	b   []byte
	err error
}

func (d *partialDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrBadPartials, fmt.Sprintf(format, args...))
	}
	d.b = nil
}

func (d *partialDecoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b) < n {
		d.fail("truncated: need %d bytes, have %d", n, len(d.b))
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *partialDecoder) u8() byte {
	if p := d.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (d *partialDecoder) u64() uint64 {
	if p := d.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// count reads a u32 element count and rejects it unless the remaining
// input could hold that many elements of at least elemBytes each.
func (d *partialDecoder) count(elemBytes int) int {
	p := d.take(4)
	if p == nil {
		return 0
	}
	n := uint64(binary.LittleEndian.Uint32(p))
	if n*uint64(elemBytes) > uint64(len(d.b)) {
		d.fail("count %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

func (d *partialDecoder) int32s() []int32 {
	n := d.count(4)
	if n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(d.take(4)))
	}
	return out
}
