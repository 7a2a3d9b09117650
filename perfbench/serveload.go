package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// serveSize fixes one serve workload scale.
type serveSize struct {
	keysPerKind int // serve-hot corpus keys per request kind
	batchItems  int
	// batchEvery makes every batchEvery-th exchange of a caller a batch:
	// a 64-item batch of cache hits takes about as long as the 47 single
	// queries between two batches, so each path carries about half the
	// time. A fixed schedule keeps the mix the same in every window.
	batchEvery int
	warmCold   int // serve-cold warm-up requests per caller
}

var (
	serveFull = serveSize{keysPerKind: 160, batchItems: 64, batchEvery: 48, warmCold: 640}
	serveTiny = serveSize{keysPerKind: 4, batchItems: 8, batchEvery: 4, warmCold: 8}
)

var kinds = []string{serve.KindModel, serve.KindEfficiency, serve.KindSim, serve.KindFluid}

// coldCycle is the fixed rotation of serve-cold's request kinds. Every
// window gets the same mix, and with model twice the latency median
// falls inside the model mode (about 3 ms) rather than on the gap
// between two kinds' modes, where it would jump between them.
var coldCycle = []string{serve.KindEfficiency, serve.KindModel, serve.KindFluid, serve.KindSim, serve.KindModel}

func coldKind(caller int, n uint64) string {
	return coldCycle[(uint64(caller)+n)%uint64(len(coldCycle))]
}

// genRequest draws one request of the given kind from (run seed,
// stream, index). The request's own 52-bit seed comes from the same
// draw, so serve-cold's keys do not repeat; the other parameters vary so
// the sweep covers a parameter range.
func genRequest(kind string, seed, stream, index uint64) *serve.Request {
	rng := rand.New(rand.NewPCG(seed, stream<<32|index))
	req := &serve.Request{Kind: kind, Seed: rng.Uint64() >> 12}
	switch kind {
	case serve.KindModel:
		req.Model = &serve.ModelQuery{B: 12 + rng.IntN(13), K: 2 + rng.IntN(3), S: 4 + rng.IntN(5), Runs: 64}
	case serve.KindEfficiency:
		pr := 0.3 + 0.65*rng.Float64()
		req.Efficiency = &serve.EfficiencyQuery{K: 2 + rng.IntN(11), PR: &pr}
	case serve.KindSim:
		req.Sim = &serve.SimQuery{Pieces: 12 + rng.IntN(9), Horizon: float64(25 + rng.IntN(11)), MaxPeers: 64}
	case serve.KindFluid:
		lambda := 1 + 3*rng.Float64()
		req.Fluid = &serve.FluidQuery{Lambda: &lambda, Horizon: float64(20 + rng.IntN(21))}
	}
	return req
}

// item is one request body with its cache key.
type item struct {
	body []byte
	key  string
	ref  []byte // reference reply, serve-hot only
}

func newItem(req *serve.Request) item {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // the request types always marshal
	}
	c := *req
	if err := c.Canonicalize(); err != nil {
		panic(fmt.Sprintf("generated an invalid request %s: %v", body, err))
	}
	return item{body: body, key: c.Key()}
}

// reference answers a request on a pool-less replica, off the clock.
func reference(ref http.Handler, body []byte) (int, []byte) {
	w := httptest.NewRecorder()
	ref.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
	return w.Code, w.Body.Bytes()
}

// warmStream puts serve-cold's warm-up requests on streams of their
// own, so no warm-up key recurs in the measurement.
const warmStream = 1 << 20

// caller is one closed-loop client goroutine's state and tallies.
type caller struct {
	id     int
	client *http.Client
	url    string
	rec    *recorder
	rng    *rand.Rand
	buf    bytes.Buffer
	req    bytes.Buffer

	tally             *tally    // untraced single-query latencies, items done
	tracedSingles     []float64 // ms
	exchanges, failed int64
	items, hits, shed int64
	spills, fills     int64
	mismatches        []string
	cold              []coldReply
}

type coldReply struct {
	index uint64
	sum   [32]byte
}

func (c *caller) mismatch(format string, args ...any) {
	if len(c.mismatches) < 5 {
		c.mismatches = append(c.mismatches, fmt.Sprintf(format, args...))
	}
}

// post sends one exchange and reads the whole reply into c.buf.
func (c *caller) post(path string, body []byte, id uint64) (*http.Response, time.Time, time.Time, error) {
	req, err := http.NewRequest(http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, time.Time{}, time.Time{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != 0 {
		req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	}
	c.buf.Reset()
	t0 := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, t0, time.Now(), err
	}
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp, t0, time.Now(), err
}

// query runs one single-query exchange and checks its bytes with check.
func (c *caller) query(it item, check func([]byte)) {
	var id uint64
	if c.rec != nil && c.rec.on.Load() {
		id = c.rec.next.Add(1)
		c.rec.keys.Store(it.key, id)
		defer c.rec.keys.Delete(it.key)
	}
	resp, t0, t1, err := c.post("/v1/query", it.body, id)
	c.exchanges++
	c.items++
	c.tally.done(t1, 1)
	if id != 0 {
		c.tracedSingles = append(c.tracedSingles, ms(t1.Sub(t0)))
	} else {
		c.tally.latency(t1, t1.Sub(t0))
	}
	if err != nil {
		c.failed++
		c.mismatch("query: %v", err)
		return
	}
	if id != 0 {
		c.rec.add(span{layer: lCaller, req: id, start: c.rec.since(t0), end: c.rec.since(t1), kind: "query", n: 1, note: resp.Header.Get("X-Cache")})
	}
	switch cache := resp.Header.Get("X-Cache"); cache {
	case "hit", "fill":
		c.hits++
	}
	switch resp.Header.Get("X-Route") {
	case "spill":
		c.spills++
	case "fill":
		c.spills++
		c.fills++
	}
	if resp.StatusCode != http.StatusOK {
		c.failed++
		if resp.StatusCode == http.StatusTooManyRequests {
			c.shed++
		}
		c.mismatch("query status %d: %s", resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
		return
	}
	check(c.buf.Bytes())
}

// batch runs one /v1/batch exchange over picks and checks every item
// line against its reference reply.
func (c *caller) batch(corpus []item, picks []int) {
	c.req.Reset()
	c.req.WriteByte('[')
	for i, p := range picks {
		if i > 0 {
			c.req.WriteByte(',')
		}
		c.req.Write(corpus[p].body)
	}
	c.req.WriteByte(']')
	var id uint64
	if c.rec != nil && c.rec.on.Load() {
		id = c.rec.next.Add(1)
	}
	resp, t0, t1, err := c.post("/v1/batch", c.req.Bytes(), id)
	c.exchanges++
	c.items += int64(len(picks))
	c.tally.done(t1, float64(len(picks)))
	if err != nil {
		c.failed++
		c.mismatch("batch: %v", err)
		return
	}
	if id != 0 {
		c.rec.add(span{layer: lCaller, req: id, start: c.rec.since(t0), end: c.rec.since(t1), kind: "batch", n: len(picks)})
	}
	if resp.StatusCode != http.StatusOK {
		c.failed++
		c.mismatch("batch status %d", resp.StatusCode)
		return
	}
	if !c.checkBatch(corpus, picks, c.buf.Bytes()) {
		c.failed++
	}
}

var (
	markIndex    = []byte(`"index":`)
	markStatus   = []byte(`"status":`)
	markCache    = []byte(`"cache":"`)
	markResponse = []byte(`"response":`)
	markSummary  = []byte(`{"type":"summary"`)
)

// checkBatch scans the JSONL reply without decoding it: each item line
// must carry its position, status 200 and exactly the reference reply.
// It reports whether every item succeeded.
func (c *caller) checkBatch(corpus []item, picks []int, reply []byte) bool {
	ok := true
	for n := 0; ; n++ {
		line, rest, found := bytes.Cut(reply, []byte{'\n'})
		reply = rest
		if n == len(picks) {
			if !bytes.HasPrefix(line, markSummary) || len(bytes.TrimSpace(rest)) != 0 {
				c.mismatch("batch: bad summary line %q", line)
				return false
			}
			return ok
		}
		if !found {
			c.mismatch("batch: reply ends after %d of %d items", n, len(picks))
			return false
		}
		if field(line, markIndex) != strconv.Itoa(n) {
			c.mismatch("batch item %d: index %q", n, field(line, markIndex))
			return false
		}
		if st := field(line, markStatus); st != "200" {
			ok = false
			if st == "429" {
				c.shed++
			}
			continue
		}
		if cache := field(line, markCache); cache == "hit" || cache == "fill" {
			c.hits++
		}
		i := bytes.Index(line, markResponse)
		want := bytes.TrimSuffix(corpus[picks[n]].ref, []byte{'\n'})
		if i < 0 || !bytes.Equal(bytes.TrimSuffix(line[i+len(markResponse):], []byte{'}'}), want) {
			c.mismatch("batch item %d (%s): reply differs from the reference replica", n, corpus[picks[n]].key)
			ok = false
		}
	}
}

// field returns the scalar after mark in a JSON line: digits, or a
// string body when mark ends in a quote.
func field(line, mark []byte) string {
	i := bytes.Index(line, mark)
	if i < 0 {
		return ""
	}
	v := line[i+len(mark):]
	if j := bytes.IndexAny(v, `",}`); j >= 0 {
		v = v[:j]
	}
	return string(v)
}

func runServe(o options, out *outcome, hot bool) error {
	z := serveFull
	if o.tiny {
		z = serveTiny
	}
	callers := runtime.NumCPU()
	ref := serve.New(serve.Config{CacheSize: cacheSize, Logger: obs.Nop()})
	defer ref.Close()

	// serve-hot's corpus and its reference replies, off the clock.
	var corpus []item
	if hot {
		for ki, k := range kinds {
			for i := 0; i < z.keysPerKind; i++ {
				it := newItem(genRequest(k, o.seed, uint64(ki), uint64(i)))
				code, body := reference(ref, it.body)
				if code != http.StatusOK {
					return fmt.Errorf("reference replica answered %d for %s", code, it.body)
				}
				it.ref = bytes.Clone(body)
				corpus = append(corpus, it)
			}
		}
	}

	var rec *recorder
	if o.trace {
		rec = newRecorder()
		out.spans = rec
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost, tr.MaxConnsPerHost = callers, callers
	tr.DisableCompression = true
	client := &http.Client{Transport: tr}
	defer client.CloseIdleConnections()

	// Set-up: start the stack and fill its caches (serve-hot) or warm its
	// connections and worker (serve-cold), setupReps times.
	var st *stack
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	for rep := 0; rep < setupReps; rep++ {
		if st != nil {
			st.close()
			client.CloseIdleConnections()
		}
		t0, c0 := time.Now(), cpuTime()
		var err error
		if st, err = startStack(rec, callers, o.tamper); err != nil {
			return err
		}
		cs := newCallers(callers, client, st.url, nil, o.seed, t0)
		parallel(cs, func(c *caller) {
			if hot {
				for i := c.id; i < len(corpus); i += callers {
					it := corpus[i]
					c.query(it, func(got []byte) {
						if !bytes.Equal(got, it.ref) {
							c.mismatch("priming %s: reply differs from the reference replica", it.key)
						}
					})
				}
				return
			}
			// One request of each kind per caller, then enough cheap
			// fresh keys to fill both replicas' caches, so every insert
			// during the measurement evicts, as in a long sweep.
			for i := 0; i < z.warmCold; i++ {
				kind := serve.KindEfficiency
				if i < len(kinds) {
					kind = kinds[i]
				}
				c.query(newItem(genRequest(kind, o.seed, warmStream+uint64(c.id), uint64(i))), func([]byte) {})
			}
		})
		out.setupDone(t0, c0)
		runtime.GC() // drop the previous stack before the next is built
		for _, c := range cs {
			for _, m := range c.mismatches {
				out.gate("set-up: %s", m)
			}
		}
		if len(out.gates) > 0 {
			return nil
		}
	}

	// Measurement: a closed loop per caller until the deadline.
	if rec != nil {
		rec.resetCounts() // set-up computed the serve-hot corpus
	}
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	cs := newCallers(callers, client, st.url, rec, o.seed, start)
	var stop func()
	if rec != nil {
		stop = rec.alternate()
	}
	parallel(cs, func(c *caller) {
		picks := make([]int, z.batchItems)
		for n := uint64(0); time.Now().Before(deadline); n++ {
			if !hot {
				it := newItem(genRequest(coldKind(c.id, n), o.seed, uint64(c.id), n))
				c.query(it, func(got []byte) {
					c.cold = append(c.cold, coldReply{index: n, sum: sha256.Sum256(got)})
				})
				continue
			}
			if n%uint64(z.batchEvery) == uint64(z.batchEvery-1) {
				for i := range picks {
					picks[i] = c.rng.IntN(len(corpus))
				}
				c.batch(corpus, picks)
				continue
			}
			it := corpus[c.rng.IntN(len(corpus))]
			c.query(it, func(got []byte) {
				if !bytes.Equal(got, it.ref) {
					c.mismatch("query %s: reply differs from the reference replica", it.key)
					c.failed++
				}
			})
		}
	})
	wall, cpu := time.Since(start), cpuTime()-cpu0
	if stop != nil {
		stop()
	}
	out.measured()

	// serve-cold's references, off the clock: regenerate each request
	// and compare digests of the replies.
	if !hot {
		parallel(cs, func(c *caller) {
			for _, r := range c.cold {
				it := newItem(genRequest(coldKind(c.id, r.index), o.seed, uint64(c.id), r.index))
				code, body := reference(ref, it.body)
				if code != http.StatusOK || sha256.Sum256(body) != r.sum {
					c.mismatch("cold %s: reply differs from the reference replica (reference status %d)", it.key, code)
					c.failed++
				}
			}
		})
	}

	tl := newTally(start)
	var tracedSingles []float64
	var items, hits, shed, spills, fills int64
	for _, c := range cs {
		tl.merge(c.tally)
		tracedSingles = append(tracedSingles, c.tracedSingles...)
		out.attempted += c.exchanges
		out.failed += c.failed
		items += c.items
		hits += c.hits
		shed += c.shed
		spills += c.spills
		fills += c.fills
		for _, m := range c.mismatches {
			out.gate("caller %d: %s", c.id, m)
		}
	}
	singles := tl.all()
	if len(singles)+len(tracedSingles) == 0 {
		return fmt.Errorf("no single-query exchange completed in %v", wall)
	}
	out.notes = append(out.notes, fmt.Sprintf("serve: %d exchanges, %d items, %d failed, error_rate %.6f, %d single-query latency samples",
		out.attempted, items, out.failed, float64(out.failed)/float64(max(out.attempted, 1)), len(singles)+len(tracedSingles)))

	v := out.values
	v["throughput_per_cpu_s"] = float64(items) / cpu.Seconds()
	v["caller.latency_ms_p50"] = tl.latencyQ(wall, 0.50)
	v["caller.throughput_per_s"] = tl.rate(wall)
	v["caller.latency_ms_p99"] = tl.latencyQ(wall, 0.99)
	v["serve.cache_hit_ratio"] = float64(hits) / float64(max(items, 1))
	v["serve.shed"] = float64(shed)
	nSingles := int64(len(singles) + len(tracedSingles))
	v["gateway.spill_ratio"] = float64(spills) / float64(nSingles)
	if spills > 0 {
		v["gateway.fill_hit_ratio"] = float64(fills) / float64(spills)
	}
	if rec != nil {
		sl := rec.analyze()
		layerValues(v, rec, sl, singles, tracedSingles)
		out.notes = append(out.notes, sl.summary())
		if g := v["trace.attribution_gap"]; g > attributionTolerance {
			out.gate("layer self times miss the caller latency by %.2f%%, tolerance %.0f%%", 100*g, 100*attributionTolerance)
		}
	}
	return nil
}

// layerValues fills the per-layer metrics from a traced run's spans.
func layerValues(v map[string]float64, rec *recorder, sl *serveLayers, untraced, traced []float64) {
	v["trace.overhead_ms_p50"] = quantile(traced, 0.5) - quantile(untraced, 0.5)
	v["trace.attribution_gap"] = math.Abs(sl.gap())
	v["http.client_ms_p50"] = quantile(sl.client, 0.5)
	v["http.client_ms_p99"] = quantile(sl.client, 0.99)
	v["gateway.self_ms_p50"] = quantile(sl.gateway, 0.5)
	v["gateway.self_ms_p99"] = quantile(sl.gateway, 0.99)
	v["serve.handler_ms_p50"] = quantile(sl.handler, 0.5)
	v["serve.handler_ms_p99"] = quantile(sl.handler, 0.99)
	v["serve.self_ms_p50"] = quantile(sl.serve, 0.5)
	v["serve.self_ms_p99"] = quantile(sl.serve, 0.99)
	if sl.batchItems > 0 {
		v["serve.batch_us_per_item"] = float64(sl.batchHandler.Microseconds()) / float64(sl.batchItems)
	}
	v["serve.computations"] = float64(rec.computations.Load())
	v["dist.run_ms_p50"] = quantile(sl.runs, 0.5)
	v["dist.run_ms_p99"] = quantile(sl.runs, 0.99)
	v["dist.self_ms_p50"] = quantile(sl.runSelf, 0.5)
	v["dist.self_ms_p99"] = quantile(sl.runSelf, 0.99)
	if t := rec.tasks.Load(); t > 0 {
		v["dist.shards_per_task"] = float64(rec.shardsNeeded.Load()) / float64(t)
	}
	if e := rec.shardEvals.Load(); e > 0 {
		v["dist.useful_shard_ratio"] = float64(rec.shardsNeeded.Load()) / float64(e)
	}
	v["eval.self_ms_p50"] = quantile(sl.eval, 0.5)
	v["eval.self_ms_p99"] = quantile(sl.eval, 0.99)
	for _, k := range kinds {
		v["eval."+k+"_ms_p50"] = quantile(sl.shardByKind[k], 0.5)
	}
}

func newCallers(n int, client *http.Client, url string, rec *recorder, seed uint64, start time.Time) []*caller {
	cs := make([]*caller, n)
	for i := range cs {
		cs[i] = &caller{id: i, client: client, url: url, rec: rec, rng: rand.New(rand.NewPCG(seed, uint64(i))), tally: newTally(start)}
	}
	return cs
}

// parallel runs fn on every caller concurrently and waits for all.
func parallel(cs []*caller, fn func(*caller)) {
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}
