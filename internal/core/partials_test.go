package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/stats"
)

// TestMergePartialsMatchesEnsemble asserts the exported partial/merge
// pipeline — the one the distributed coordinator drives — reproduces
// EnsembleCtx bit for bit, even when every shard's partials take a round
// trip through the binary wire codec. Floats travel as their IEEE-754
// bits, so this must be equality, not tolerance.
func TestMergePartialsMatchesEnsemble(t *testing.T) {
	p := DefaultParams(10)
	p.B = 40
	p.Phi = UniformPhi(40)
	m, err := NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 24
	r := stats.NewRNG(77, 78)
	want, err := m.EnsembleCtx(context.Background(), r, runs)
	if err != nil {
		t.Fatal(err)
	}

	// Recompute each run's partial from its indexed substream — in an
	// arbitrary sharded order — then round-trip each shard through the
	// wire codec and merge in index order, exactly as remote workers and
	// the coordinator do.
	partials := make([]RunPartial, runs)
	for _, shard := range [][2]int{{16, 24}, {0, 9}, {9, 16}} {
		var chunk []RunPartial
		for i := shard[0]; i < shard[1]; i++ {
			rp, err := m.SamplePartial(context.Background(), r.At(i))
			if err != nil {
				t.Fatal(err)
			}
			chunk = append(chunk, rp)
		}
		back, err := DecodePartials(nil, AppendPartials(nil, chunk))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(chunk, back) {
			t.Fatalf("shard %v partials not wire-exact:\n  pre: %+v\n post: %+v", shard, chunk, back)
		}
		copy(partials[shard[0]:shard[1]], back)
	}
	got, err := m.MergePartials(partials)
	if err != nil {
		t.Fatal(err)
	}
	// DeepEqual treats NaN != NaN, but the sparse-bucket NaNs are part of
	// the contract; compare curves bit for bit instead.
	sameBits := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	if !sameBits(got.PotentialByPieces, want.PotentialByPieces) ||
		!sameBits(got.FirstPassage, want.FirstPassage) ||
		!sameBits(got.CompletionTimes, want.CompletionTimes) {
		t.Fatalf("merged curves diverge from EnsembleCtx:\n got: %+v\nwant: %+v", got, want)
	}
	got.PotentialByPieces, want.PotentialByPieces = nil, nil
	got.FirstPassage, want.FirstPassage = nil, nil
	got.CompletionTimes, want.CompletionTimes = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged summary diverges from EnsembleCtx:\n got: %+v\nwant: %+v", got, want)
	}
}

// TestMergePartialsSizeValidation: a partial sized for the wrong B is
// rejected rather than silently mis-merged.
func TestMergePartialsSizeValidation(t *testing.T) {
	m, err := NewModel(DefaultParams(10))
	if err != nil {
		t.Fatal(err)
	}
	rp, err := m.SamplePartial(context.Background(), stats.NewRNG(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	bad := rp
	bad.PotSum = bad.PotSum[:len(bad.PotSum)-1]
	if _, err := m.MergePartials([]RunPartial{rp, bad}); err == nil {
		t.Fatal("undersized partial must be rejected")
	}
}

// TestPartialsCodecRoundTrip: the binary codec is bit-exact for values
// a text encoding could blur (-0, subnormals, NaN payloads, sums past
// 2^53, negative counts) and for ragged shards — partials with different
// curve lengths, empty curves, and an empty shard.
func TestPartialsCodecRoundTrip(t *testing.T) {
	shards := [][]RunPartial{
		nil,
		{{}},
		{{
			PotSum: []float64{math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0x1p-1060, math.MaxFloat64, 1 << 60, math.Float64frombits(0x7ff8_0000_dead_beef), math.Inf(-1)},
			PotCnt: []int32{math.MaxInt32, 0, -1, 7, 1, 2, 3},
			First:  []int32{0, -1, math.MinInt32, 4, 5, 6, 7},
			Steps:  math.MaxInt64,
			Done:   true,
			Phases: PhaseBreakdown{Bootstrap: -3, Efficient: 1 << 40, Last: 9},
		}},
		{
			{PotSum: []float64{1.5}, PotCnt: []int32{1}, First: []int32{0}, Steps: 1},
			{PotSum: []float64{0.1, 0.2, 0.30000000000000004}, PotCnt: []int32{1, 2, 3}, First: []int32{0, 1, -1}, Steps: 12, Done: true},
			{PotSum: []float64{2}, First: []int32{3, 4}},
		},
	}
	for i, shard := range shards {
		prefix := []byte("hdr")
		enc := AppendPartials(append([]byte(nil), prefix...), shard)
		if !bytes.HasPrefix(enc, prefix) {
			t.Fatalf("shard %d: AppendPartials clobbered dst", i)
		}
		dst := []RunPartial{{Steps: 99}}
		got, err := DecodePartials(dst, enc[len(prefix):])
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if len(got) != 1+len(shard) || got[0].Steps != 99 {
			t.Fatalf("shard %d: decode did not append to dst: %+v", i, got)
		}
		for j, want := range shard {
			g := got[1+j]
			if len(g.PotSum) != len(want.PotSum) {
				t.Fatalf("shard %d partial %d: PotSum len %d, want %d", i, j, len(g.PotSum), len(want.PotSum))
			}
			for k := range want.PotSum {
				if math.Float64bits(g.PotSum[k]) != math.Float64bits(want.PotSum[k]) {
					t.Fatalf("shard %d partial %d: PotSum[%d] bits %#x, want %#x", i, j, k,
						math.Float64bits(g.PotSum[k]), math.Float64bits(want.PotSum[k]))
				}
			}
			g.PotSum, want.PotSum = nil, nil
			if !reflect.DeepEqual(g, want) {
				t.Fatalf("shard %d partial %d:\n got %+v\nwant %+v", i, j, g, want)
			}
		}
		// The encoding is a fixed layout: re-encoding the decoded
		// partials reproduces the bytes.
		if again := AppendPartials(nil, got[1:]); !bytes.Equal(again, enc[len(prefix):]) {
			t.Fatalf("shard %d: re-encoding differs", i)
		}
	}
}

// TestDecodePartialsMalformed: truncation at every byte, trailing bytes,
// counts larger than the input, and a Done byte other than 0/1 all fail
// with ErrBadPartials, and a huge count is refused before allocating.
func TestDecodePartialsMalformed(t *testing.T) {
	good := AppendPartials(nil, []RunPartial{
		{PotSum: []float64{1, 2}, PotCnt: []int32{3, 4}, First: []int32{0, 1}, Steps: 2, Done: true},
		{PotSum: []float64{5}, PotCnt: []int32{6}, First: []int32{-1}, Steps: 1},
	})
	if _, err := DecodePartials(nil, good); err != nil {
		t.Fatalf("good encoding: %v", err)
	}
	for n := 0; n < len(good); n++ {
		if _, err := DecodePartials(nil, good[:n]); !errors.Is(err, ErrBadPartials) {
			t.Fatalf("truncated to %d of %d bytes: err = %v", n, len(good), err)
		}
	}
	doneAt := 4 + (4 + 2*8) + (4 + 2*4) + (4 + 2*4) + 8
	badDone := append([]byte(nil), good...)
	badDone[doneAt] = 2
	cases := map[string][]byte{
		"trailing byte":      append(append([]byte(nil), good...), 0),
		"done byte 2":        badDone,
		"partial count 2^32": {0xff, 0xff, 0xff, 0xff},
		"curve count 2^32":   append([]byte{1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}, make([]byte, 64)...),
		"count one too many": append([]byte{2, 0, 0, 0}, good[4:len(good)-minPartialBytes]...),
	}
	for name, in := range cases {
		got, err := DecodePartials(nil, in)
		if !errors.Is(err, ErrBadPartials) || got != nil {
			t.Fatalf("%s: got %v, err = %v, want ErrBadPartials", name, got, err)
		}
	}
	// Only the error values allocate; a trusted count would have asked
	// for tens of gigabytes.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _ = DecodePartials(nil, cases["partial count 2^32"])
	_, _ = DecodePartials(nil, cases["curve count 2^32"])
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Fatalf("hostile counts allocated %d bytes", n)
	}
}
