package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/dist"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/serve"
)

// reqHeader carries the benchmark's request ID from the caller to the
// gateway and from the gateway to the replica, in traced runs only.
const reqHeader = "X-Bench-Req"

// cacheSize is each replica's cache capacity in entries. It holds a
// replica's share of the serve-hot corpus (about 320 of 640 keys) and
// is small enough that serve-cold's set-up fills it.
const cacheSize = 512

// workerKinds are the request kinds the in-process worker evaluates.
var workerKinds = []string{serve.KindModel, serve.KindEfficiency, serve.KindSim, serve.KindFluid}

// stack is the serving tier of one process: a gateway in front of two
// serve replicas that share one dist coordinator with one worker, every
// hop on a loopback listener. With a recorder, each layer's public entry
// point is wrapped to record spans; without one, nothing is wrapped.
type stack struct {
	url      string
	servers  []*http.Server
	served   []chan struct{}
	replicas []*serve.Server
	coord    *dist.Coordinator
	gwClient *http.Client

	stopWorker context.CancelFunc
	workerDone chan struct{}
}

// startStack builds the tier; tamper, when set, wraps the gateway's
// handler.
func startStack(rec *recorder, callers int, tamper func(http.Handler) http.Handler) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	st.coord = dist.New(dist.Config{Registry: obs.NewRegistry(), Logger: obs.Nop()})
	addr, err := st.coord.Listen("127.0.0.1:0")
	if err != nil {
		return st, fmt.Errorf("coordinator: %w", err)
	}
	wk := dist.NewWorker(dist.WorkerConfig{
		Name: "bench-worker", Slots: callers, Addr: addr,
		Registry: obs.NewRegistry(), Logger: obs.Nop(),
	})
	for _, k := range workerKinds {
		wk.Register(k, rec.evalShard(k))
	}
	ctx, cancel := context.WithCancel(context.Background())
	st.stopWorker, st.workerDone = cancel, make(chan struct{})
	go func() {
		defer close(st.workerDone)
		_ = wk.Run(ctx) // ends with ctx; a lost session shows as failed requests
	}()
	for deadline := time.Now().Add(10 * time.Second); st.coord.Workers() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return st, errors.New("worker did not connect")
		}
	}

	var pool serve.Pool = st.coord
	if rec != nil {
		pool = tracedPool{rec, st.coord}
	}
	var urls []string
	for i := 0; i < 2; i++ {
		srv := serve.New(serve.Config{
			Registry:  obs.NewRegistry(),
			Logger:    obs.Nop(),
			CacheSize: cacheSize,
			Evaluator: rec.evaluator(serve.PoolEvaluator(pool, 0)),
		})
		st.replicas = append(st.replicas, srv)
		u, err := st.listen(rec.handler(srv))
		if err != nil {
			return st, err
		}
		urls = append(urls, u)
	}
	gcfg := gateway.Config{Replicas: urls, Registry: obs.NewRegistry(), Logger: obs.Nop()}
	if rec != nil {
		// The default forwarding client with a transport that hands the
		// request ID on to the replica.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns, tr.MaxIdleConnsPerHost = 256, 128
		st.gwClient = &http.Client{Transport: tagTransport{tr}}
		gcfg.Client = st.gwClient
	}
	gw, err := gateway.New(gcfg)
	if err != nil {
		return st, fmt.Errorf("gateway: %w", err)
	}
	h := rec.gateway(gw)
	if tamper != nil {
		h = tamper(h)
	}
	st.url, err = st.listen(h)
	return st, err
}

func (st *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed on close
	}()
	st.servers = append(st.servers, srv)
	st.served = append(st.served, done)
	return "http://" + ln.Addr().String(), nil
}

// close stops every listener, server, the worker and the coordinator,
// and waits for their goroutines.
func (st *stack) close() {
	for i := len(st.servers) - 1; i >= 0; i-- {
		_ = st.servers[i].Close()
		<-st.served[i]
	}
	if st.gwClient != nil {
		st.gwClient.CloseIdleConnections()
	}
	for _, r := range st.replicas {
		r.Close()
	}
	if st.stopWorker != nil {
		st.stopWorker()
		<-st.workerDone
	}
	if st.coord != nil {
		st.coord.Close()
	}
}

// The wrappers below return their argument unchanged on a nil recorder.

func requestID(r *http.Request) uint64 {
	id, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
	return id
}

func (rec *recorder) gateway(next http.Handler) http.Handler {
	if rec == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := requestID(r)
		if id == 0 {
			next.ServeHTTP(w, r)
			return
		}
		r = r.WithContext(context.WithValue(r.Context(), reqKey{}, reqRef{id: id}))
		t0 := time.Now()
		next.ServeHTTP(w, r)
		rec.add(span{layer: lGateway, req: id, start: rec.since(t0), end: rec.since(time.Now()), note: w.Header().Get("X-Route")})
	})
}

func (rec *recorder) handler(next http.Handler) http.Handler {
	if rec == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := requestID(r)
		if id == 0 {
			next.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		next.ServeHTTP(w, r)
		rec.add(span{layer: lHandler, req: id, start: rec.since(t0), end: rec.since(time.Now()), kind: r.URL.Path, note: w.Header().Get("X-Cache")})
	})
}

// tagTransport copies the request ID from the gateway's context onto the
// forwarded request.
type tagTransport struct{ base http.RoundTripper }

func (t tagTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref, ok := r.Context().Value(reqKey{}).(reqRef); ok {
		r = r.Clone(r.Context())
		r.Header.Set(reqHeader, strconv.FormatUint(ref.id, 10))
	}
	return t.base.RoundTrip(r)
}

type evaluator = func(ctx context.Context, req *serve.Request) (any, error)

func (rec *recorder) evaluator(next evaluator) evaluator {
	if rec == nil {
		return next
	}
	return func(ctx context.Context, req *serve.Request) (any, error) {
		rec.computations.Add(1)
		v, ok := rec.keys.Load(req.Key())
		if !ok {
			return next(ctx, req)
		}
		id := v.(uint64)
		ctx = context.WithValue(ctx, reqKey{}, reqRef{id: id, kind: req.Kind})
		t0 := time.Now()
		out, err := next(ctx, req)
		rec.add(span{layer: lEvaluator, req: id, start: rec.since(t0), end: rec.since(time.Now()), kind: req.Kind})
		return out, err
	}
}

// tracedPool wraps the coordinator as the serve.Pool.
type tracedPool struct {
	rec  *recorder
	next serve.Pool
}

func (p tracedPool) Run(ctx context.Context, t dist.Task) ([][]byte, error) {
	size := t.ShardSize
	if size <= 0 {
		size = t.N
	}
	need := (t.N + size - 1) / size
	p.rec.tasks.Add(1)
	p.rec.shardsNeeded.Add(int64(need))
	ref, ok := ctx.Value(reqKey{}).(reqRef)
	if !ok {
		return p.next.Run(ctx, t)
	}
	spec := string(t.Spec)
	p.rec.specs.Store(spec, ref)
	defer p.rec.specs.Delete(spec)
	t0 := time.Now()
	out, err := p.next.Run(ctx, t)
	p.rec.add(span{layer: lPool, req: ref.id, start: p.rec.since(t0), end: p.rec.since(time.Now()), kind: ref.kind, n: need})
	return out, err
}

func (rec *recorder) evalShard(kind string) dist.Evaluator {
	if rec == nil {
		return serve.EvalShard
	}
	return func(ctx context.Context, spec []byte, lo, hi int) ([]byte, error) {
		rec.shardEvals.Add(1)
		v, ok := rec.specs.Load(string(spec))
		t0 := time.Now()
		out, err := serve.EvalShard(ctx, spec, lo, hi)
		if ok {
			rec.add(span{layer: lShard, req: v.(reqRef).id, start: rec.since(t0), end: rec.since(time.Now()), kind: kind})
		}
		return out, err
	}
}
