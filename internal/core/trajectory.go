package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/par"
	"repro/internal/stats"
)

// Trajectory is one sampled realization of the download process. Entry t
// holds the state after t transition steps; entry 0 is the joining state.
type Trajectory []State

// maxTrajectorySteps caps a single sampled download so pathological
// parameter choices (e.g. α = γ = 0) terminate.
const maxTrajectorySteps = 1_000_000

// ctxCheckSteps is how many transition steps pass between context polls
// inside a single trajectory. Typical downloads complete in a few hundred
// steps, so cancellation latency stays well under a millisecond while the
// poll cost is amortized away on the hot path.
const ctxCheckSteps = 1024

// SampleTrajectory draws one download realization from joining until the
// peer holds all B pieces (or the step cap is reached).
func (m *Model) SampleTrajectory(r *stats.RNG) Trajectory {
	traj, _ := m.SampleTrajectoryCtx(nil, r)
	return traj
}

// SampleTrajectoryCtx is SampleTrajectory with cooperative cancellation:
// every ctxCheckSteps steps the context is polled, and a cancelled or
// expired context aborts the walk, returning the partial trajectory along
// with the context's error. A nil ctx skips every check — the fast path
// is identical to SampleTrajectory and allocates nothing extra.
func (m *Model) SampleTrajectoryCtx(ctx context.Context, r *stats.RNG) (Trajectory, error) {
	s := State{}
	traj := make(Trajectory, 1, m.p.B+16)
	traj[0] = s
	for step := 0; step < maxTrajectorySteps; step++ {
		if s.B == m.p.B {
			break
		}
		if ctx != nil && step%ctxCheckSteps == 0 {
			if err := ctx.Err(); err != nil {
				return traj, err
			}
		}
		s = m.Step(r, s)
		traj = append(traj, s)
	}
	return traj, nil
}

// DownloadSteps returns the number of steps until the trajectory first
// holds at least b pieces, or -1 if it never did.
func (t Trajectory) DownloadSteps(b int) int {
	for step, s := range t {
		if s.B >= b {
			return step
		}
	}
	return -1
}

// EnsembleStats aggregates Monte-Carlo trajectories into the curves the
// paper plots.
type EnsembleStats struct {
	// PotentialByPieces[b] is the mean potential-set size observed while
	// holding exactly b pieces (NaN if b was never observed).
	PotentialByPieces []float64
	// FirstPassage[b] is the mean number of steps until the peer first
	// holds at least b pieces (NaN if never reached).
	FirstPassage []float64
	// CompletionSteps summarizes total download times over the ensemble.
	CompletionSteps stats.Summary
	// CompletionTimes holds the raw per-run completion step counts, for
	// distribution-level comparisons (e.g. Kolmogorov–Smirnov against a
	// simulator's download durations).
	CompletionTimes []float64
	// Truncated counts the runs that hit the trajectory step cap without
	// completing. Those runs contribute to the per-piece curves but not to
	// CompletionSteps/CompletionTimes; a nonzero count means the completion
	// summaries describe only the uncensored portion of the ensemble.
	Truncated int
	// Phases summarizes time spent per phase over the ensemble.
	Phases PhaseSummary
}

// RunPartial is one trajectory's contribution to the ensemble curves:
// the additive state folded — in run-index order — into EnsembleStats.
// It is exported so distributed workers can compute partials remotely
// and ship them back for the identical merge. AppendPartials and
// DecodePartials carry floats as their IEEE-754 bits, so a partial that
// crosses a wire merges bit-identically to one that never left the
// process.
type RunPartial struct {
	// PotSum[b] sums potential-set sizes over steps spent at b pieces.
	PotSum []float64
	// PotCnt[b] counts steps spent holding exactly b pieces.
	PotCnt []int32
	// First[b] is the first step holding >= b pieces, -1 if never.
	First []int32
	// Steps is the trajectory length in transition steps.
	Steps int
	// Done reports completion (B pieces before the step cap).
	Done bool
	// Phases is the trajectory's phase breakdown.
	Phases PhaseBreakdown
}

// Ensemble samples runs independent trajectories and aggregates them.
//
// Trajectories are fanned across a bounded worker pool (internal/par; the
// worker count follows the process default, e.g. btexp -jobs). Run i
// draws from the indexed substream r.At(i), which equals the stream the
// former serial Split loop gave it, and the per-run partials are merged
// in run order — so the result is bit-identical for any worker count.
func (m *Model) Ensemble(r *stats.RNG, runs int) (EnsembleStats, error) {
	return m.EnsembleCtx(context.Background(), r, runs)
}

// EnsembleCtx is Ensemble with cooperative cancellation: the context is
// checked before every run (by the worker pool) and periodically inside
// each trajectory, so a server deadline or client disconnect aborts the
// whole ensemble promptly. The result is bit-identical to Ensemble when
// the context never fires.
func (m *Model) EnsembleCtx(ctx context.Context, r *stats.RNG, runs int) (EnsembleStats, error) {
	if runs < 1 {
		return EnsembleStats{}, errors.New("core: ensemble needs runs >= 1")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	partials, err := par.MapSeeded(ctx, runs, 0, r,
		func(_ int, rr *stats.RNG) (RunPartial, error) {
			return m.SamplePartial(ctx, rr)
		})
	if err != nil {
		return EnsembleStats{}, err
	}
	return m.MergePartials(partials)
}

// MergePartials folds per-run partials — in slice order — into the
// ensemble aggregate. It is the single merge both the local pool
// (EnsembleCtx) and the distributed coordinator path use: feeding it
// the same partials in the same run order yields bit-identical
// EnsembleStats regardless of where or how the partials were computed.
// Every partial must carry exactly B+1 entries per curve.
func (m *Model) MergePartials(partials []RunPartial) (EnsembleStats, error) {
	b := m.p.B
	potSum := make([]float64, b+1)
	potCnt := make([]int, b+1)
	fpSum := make([]float64, b+1)
	fpCnt := make([]int, b+1)
	times := make([]float64, 0, len(partials))
	truncated := 0
	var phases phaseAccumulator
	for i, rp := range partials {
		if len(rp.PotSum) != b+1 || len(rp.PotCnt) != b+1 || len(rp.First) != b+1 {
			return EnsembleStats{}, fmt.Errorf(
				"core: partial %d sized for %d pieces, model has %d",
				i, max(len(rp.PotSum), max(len(rp.PotCnt), len(rp.First)))-1, b)
		}
		for bb := 0; bb <= b; bb++ {
			potSum[bb] += rp.PotSum[bb]
			potCnt[bb] += int(rp.PotCnt[bb])
			if rp.First[bb] >= 0 {
				fpSum[bb] += float64(rp.First[bb])
				fpCnt[bb]++
			}
		}
		if rp.Done {
			times = append(times, float64(rp.Steps))
		} else {
			truncated++
		}
		phases.add(rp.Phases)
	}

	out := EnsembleStats{
		PotentialByPieces: make([]float64, b+1),
		FirstPassage:      make([]float64, b+1),
		CompletionSteps:   stats.Summarize(times),
		CompletionTimes:   times,
		Truncated:         truncated,
		Phases:            phases.summary(),
	}
	for bb := 0; bb <= b; bb++ {
		out.PotentialByPieces[bb] = ratioOrNaN(potSum[bb], potCnt[bb])
		out.FirstPassage[bb] = ratioOrNaN(fpSum[bb], fpCnt[bb])
	}
	return out, nil
}

// SamplePartial draws one trajectory from r and reduces it to its
// additive ensemble contribution. Run i of an ensemble draws from the
// indexed substream rng.At(i); the partial is a pure function of that
// stream, which is what lets a remote worker reproduce it exactly. The
// piece count is monotone along a trajectory (F never decreases b), so
// first-passage steps are found with a single rising cursor instead of
// a per-run seen bitmap.
func (m *Model) SamplePartial(ctx context.Context, r *stats.RNG) (RunPartial, error) {
	b := m.p.B
	traj, err := m.SampleTrajectoryCtx(ctx, r)
	if err != nil {
		return RunPartial{}, err
	}
	rp := RunPartial{
		PotSum: make([]float64, b+1),
		PotCnt: make([]int32, b+1),
		First:  make([]int32, b+1),
		Steps:  len(traj) - 1,
	}
	nextB := 0
	for step, s := range traj {
		rp.PotSum[s.B] += float64(s.I)
		rp.PotCnt[s.B]++
		for nextB <= s.B {
			rp.First[nextB] = int32(step)
			nextB++
		}
	}
	for bb := nextB; bb <= b; bb++ {
		rp.First[bb] = -1
	}
	rp.Done = traj[len(traj)-1].B == b
	rp.Phases = ClassifyPhases(m.p, traj)
	return rp, nil
}

func ratioOrNaN(sum float64, n int) float64 {
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// PotentialRatioCurve returns E[i | b] / s for b = 0..B: the Figure 1(a)
// series (potential-set size normalized by the neighbor-set size, as a
// function of pieces downloaded).
func (e EnsembleStats) PotentialRatioCurve(s int) []float64 {
	out := make([]float64, len(e.PotentialByPieces))
	for b, v := range e.PotentialByPieces {
		out[b] = v / float64(s)
	}
	return out
}
