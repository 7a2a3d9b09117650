package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// layer is the wrapper a span was recorded at, outermost first.
type layer uint8

const (
	lCaller    layer = iota // the benchmark's caller: one HTTP exchange
	lGateway                // gateway.Gateway.ServeHTTP
	lHandler                // a replica's http.Handler
	lEvaluator              // serve.Config.Evaluator
	lPool                   // serve.Pool.Run (the dist coordinator)
	lShard                  // serve.EvalShard on the worker
	lRound                  // one sim.Swarm.Advance round
)

var layerNames = [...]string{"caller", "gateway", "serve.handler", "serve.evaluator", "dist.run", "worker.eval", "sim.round"}

// span is one timed call at a layer boundary. Spans of one request share
// req; start and end are offsets from the recorder's epoch.
type span struct {
	layer      layer
	req        uint64
	start, end time.Duration
	kind       string // request kind; "query" or "batch" at the caller; URL path at the handler
	note       string // X-Cache at the caller and handler, X-Route at the gateway
	n          int    // batch items at the caller, shards needed at dist.run
}

func (s span) dur() time.Duration { return s.end - s.start }

// recorder keeps spans in memory until the run ends. It also carries
// the request identity across the boundaries where a context does not
// reach: the cache key into the evaluator, the shard spec onto the
// worker.
type recorder struct {
	epoch time.Time
	on    atomic.Bool // traced segment in progress
	next  atomic.Uint64

	mu    sync.Mutex
	spans []span

	keys  sync.Map // cache key → request ID
	specs sync.Map // shard spec → reqRef

	computations, tasks, shardsNeeded, shardEvals atomic.Int64
}

type reqRef struct {
	id   uint64
	kind string
}

type reqKey struct{}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) resetCounts() {
	r.computations.Store(0)
	r.tasks.Store(0)
	r.shardsNeeded.Store(0)
	r.shardEvals.Store(0)
}

func (r *recorder) since(t time.Time) time.Duration { return t.Sub(r.epoch) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// alternate flips the recorder between untraced and traced segments
// until the returned stop is called.
func (r *recorder) alternate() (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(segment)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				r.on.Store(!r.on.Load())
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		r.on.Store(false)
	}
}

// interval set arithmetic for self times.
type ivl struct{ a, b time.Duration }

func union(xs []ivl) []ivl {
	sort.Slice(xs, func(i, j int) bool { return xs[i].a < xs[j].a })
	var out []ivl
	for _, x := range xs {
		if n := len(out); n > 0 && x.a <= out[n-1].b {
			out[n-1].b = max(out[n-1].b, x.b)
			continue
		}
		out = append(out, x)
	}
	return out
}

func length(u []ivl) time.Duration {
	var d time.Duration
	for _, x := range u {
		d += x.b - x.a
	}
	return d
}

// overlap is the length of the intersection of two unions.
func overlap(u, v []ivl) time.Duration {
	var d time.Duration
	for i, j := 0, 0; i < len(u) && j < len(v); {
		lo, hi := max(u[i].a, v[j].a), min(u[i].b, v[j].b)
		if hi > lo {
			d += hi - lo
		}
		if u[i].b < v[j].b {
			i++
		} else {
			j++
		}
	}
	return d
}

// attributionTolerance is how far the layers' summed self times may
// drift from the caller-measured latency, as a share of it.
const attributionTolerance = 0.02

// serveLayers is the per-layer breakdown of the traced serve requests.
type serveLayers struct {
	client, gateway, serve, dist, eval []float64 // per-request self ms
	handler                            []float64 // single-query handler ms
	runs, runSelf                      []float64 // per dist task ms
	shardByKind                        map[string][]float64
	batchHandler                       time.Duration
	batchItems                         int
	layerSum                           [5]time.Duration // transport, gateway, serve, dist, eval
	attributed, measured               time.Duration
	linked, unlinked                   int
}

// analyze splits each traced single query's caller latency into layer
// self times. A layer's self time is the wall time its spans cover minus
// the part the next layer down covers, so for well-nested spans the five
// layers add up to the caller latency exactly; spans that escape their
// parent or a request whose layers were not linked show up as a gap.
func (r *recorder) analyze() *serveLayers {
	byReq := map[uint64][]span{}
	for _, s := range r.spans {
		if s.req != 0 {
			byReq[s.req] = append(byReq[s.req], s)
		}
	}
	sl := &serveLayers{shardByKind: map[string][]float64{}}
	for _, group := range byReq {
		var by [lRound][]ivl
		var caller *span
		for i := range group {
			s := &group[i]
			if s.layer == lCaller {
				caller = s
			}
			if s.layer < lRound {
				by[s.layer] = append(by[s.layer], ivl{s.start, s.end})
			}
			switch s.layer {
			case lShard:
				sl.shardByKind[s.kind] = append(sl.shardByKind[s.kind], ms(s.dur()))
			case lPool:
				sl.runs = append(sl.runs, ms(s.dur()))
			}
		}
		var u [lRound][]ivl
		for l := range by {
			u[l] = union(by[l])
		}
		if len(u[lPool]) > 0 {
			sl.runSelf = append(sl.runSelf, ms(length(u[lPool])-overlap(u[lPool], u[lShard])))
		}
		if caller == nil {
			continue
		}
		if caller.kind == "batch" {
			for _, s := range group {
				if s.layer == lHandler {
					sl.batchHandler += s.dur()
				}
			}
			sl.batchItems += caller.n
			continue
		}
		sl.measured += caller.dur()
		if len(u[lGateway]) == 0 || len(u[lHandler]) == 0 {
			sl.unlinked++
			continue
		}
		// serve's self time runs to dist.run, so it includes the
		// PoolEvaluator's own encode and merge, which is serve code.
		self := func(outer, inner layer) time.Duration {
			return length(u[outer]) - overlap(u[outer], u[inner])
		}
		client, gw := self(lCaller, lGateway), self(lGateway, lHandler)
		srv, dst, ev := self(lHandler, lPool), self(lPool, lShard), length(u[lShard])
		for i, d := range [...]time.Duration{client, gw, srv, dst, ev} {
			sl.layerSum[i] += d
			sl.attributed += d
		}
		sl.linked++
		sl.client = append(sl.client, ms(client))
		sl.gateway = append(sl.gateway, ms(gw))
		sl.serve = append(sl.serve, ms(srv))
		sl.handler = append(sl.handler, ms(length(u[lHandler])))
		if len(u[lPool]) > 0 {
			sl.dist = append(sl.dist, ms(dst))
			sl.eval = append(sl.eval, ms(ev))
		}
	}
	return sl
}

// summary states the attribution: the mean self time of each layer
// over the linked traced queries, their sum and the caller's mean.
func (sl *serveLayers) summary() string {
	mean := func(d time.Duration) float64 { return ms(d) / float64(max(sl.linked, 1)) }
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d traced single queries, %d not linked through gateway and replica; mean ms", sl.linked+sl.unlinked, sl.unlinked)
	for i, name := range [...]string{"transport", "gateway", "serve", "dist", "eval"} {
		fmt.Fprintf(&b, " %s %.4f", name, mean(sl.layerSum[i]))
	}
	fmt.Fprintf(&b, ", sum %.4f, caller %.4f, gap %.4f%% (tolerance %.0f%%)",
		mean(sl.attributed), ms(sl.measured)/float64(max(sl.linked+sl.unlinked, 1)), 100*sl.gap(), 100*attributionTolerance)
	return b.String()
}

// gap is the signed share by which the attributed layer times miss the
// caller-measured latency.
func (sl *serveLayers) gap() float64 {
	if sl.measured == 0 {
		return 0
	}
	return float64(sl.attributed-sl.measured) / float64(sl.measured)
}

// export writes the spans as JSON lines, after a first line recording
// the machine. parent is the index of the enclosing span one layer up in
// the same request, or -1.
func (r *recorder) export(path, machine string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	_, _ = w.WriteString(`{"machine":` + machine + "}\n")
	parents := r.parents()
	enc := json.NewEncoder(w)
	for i, s := range r.spans {
		_ = enc.Encode(struct {
			ID      int    `json:"id"`
			Name    string `json:"name"`
			Req     uint64 `json:"req"`
			Parent  int    `json:"parent"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
			Kind    string `json:"kind,omitempty"`
			Note    string `json:"note,omitempty"`
		}{i, layerNames[s.layer], s.req, parents[i], int64(s.start), int64(s.end), s.kind, s.note})
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (r *recorder) parents() []int {
	out := make([]int, len(r.spans))
	byReq := map[uint64][]int{}
	for i, s := range r.spans {
		out[i] = -1
		if s.req != 0 {
			byReq[s.req] = append(byReq[s.req], i)
		}
	}
	for _, idx := range byReq {
		for _, i := range idx {
			s := r.spans[i]
			best := -1
			for _, j := range idx {
				p := r.spans[j]
				if p.layer < s.layer && p.start <= s.start && (best < 0 || p.layer > r.spans[best].layer) {
					best = j
				}
			}
			out[i] = best
		}
	}
	return out
}
