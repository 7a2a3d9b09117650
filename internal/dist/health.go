package dist

// healthAlpha is the EWMA smoothing factor for per-worker shard latency:
// each completed shard contributes 20% of the new average, so the score
// reacts within ~5 shards but a single outlier cannot capsize it.
const healthAlpha = 0.2

// workerLatency is the EWMA of per-grant shard latency (ms), keyed by
// worker name so a reconnecting worker keeps its record. It only orders
// workers that both have free slots; it never blocks scheduling.
type workerLatency map[string]float64

// note folds one completed grant's latency into the worker's EWMA; the
// first sample sets it directly.
func (l workerLatency) note(name string, ms float64) {
	if ms < 0 {
		ms = 0
	}
	if old, ok := l[name]; ok {
		ms = healthAlpha*ms + (1-healthAlpha)*old
	}
	l[name] = ms
}
