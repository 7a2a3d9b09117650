package main

import (
	"sort"
	"time"
)

// window is the stretch over which a run's samples are first
// summarized. Each reported figure is the interquartile mean over the
// run's windows, so outside load that lands in a few of them (CPU steal
// on a shared host comes in bursts of a second or two) does not move it.
const window = time.Second

// tally collects one goroutine's samples by the window they completed in.
type tally struct {
	start time.Time
	lat   [][]float64 // latency samples in ms
	work  []float64   // completed units
}

func newTally(start time.Time) *tally { return &tally{start: start} }

func (t *tally) slot(at time.Time) int {
	w := int(at.Sub(t.start) / window)
	for len(t.work) <= w {
		t.work = append(t.work, 0)
		t.lat = append(t.lat, nil)
	}
	return w
}

// done records units of work completed at at.
func (t *tally) done(at time.Time, units float64) { t.work[t.slot(at)] += units }

// latency records one timed operation that completed at at.
func (t *tally) latency(at time.Time, d time.Duration) {
	w := t.slot(at)
	t.lat[w] = append(t.lat[w], ms(d))
}

// merge folds other tallies with the same start into t.
func (t *tally) merge(others ...*tally) {
	for _, o := range others {
		for w := range o.work {
			t.slot(t.start.Add(time.Duration(w) * window))
			t.work[w] += o.work[w]
			t.lat[w] = append(t.lat[w], o.lat[w]...)
		}
	}
}

// full is the number of whole windows in a run of length d.
func full(d time.Duration) int { return max(int(d/window), 1) }

// rate is the interquartile mean over whole windows of units completed
// per second.
func (t *tally) rate(d time.Duration) float64 {
	n := full(d)
	per := make([]float64, n)
	for w := 0; w < n && w < len(t.work); w++ {
		per[w] = t.work[w] / window.Seconds()
	}
	return midMean(per)
}

// latencyQ is the interquartile mean over whole windows of each
// window's q-quantile.
func (t *tally) latencyQ(d time.Duration, q float64) float64 {
	var per []float64
	for w := 0; w < full(d) && w < len(t.lat); w++ {
		if len(t.lat[w]) > 0 {
			per = append(per, quantile(t.lat[w], q))
		}
	}
	return midMean(per)
}

// midMean is the mean of the middle half of xs (sorted in place): the
// median's robustness, with the resolution of a mean.
func midMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	cut := len(xs) / 4
	mid := xs[cut : len(xs)-cut]
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// all returns every latency sample.
func (t *tally) all() []float64 {
	var out []float64
	for _, l := range t.lat {
		out = append(out, l...)
	}
	return out
}
