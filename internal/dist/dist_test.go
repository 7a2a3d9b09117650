package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/retry"
)

// sumEval is a pure test evaluator: the payload for [lo, hi) is the
// JSON list of i*i+len(spec) for i in range — trivially recomputable,
// so duplicate executions are byte-identical by construction.
func sumEval(_ context.Context, spec []byte, lo, hi int) ([]byte, error) {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i*i+len(spec))
	}
	return json.Marshal(out)
}

// startWorker launches a worker over cfg (filling Addr/kind wiring) and
// returns a stop function that blocks until the worker goroutine exits.
func startWorker(t *testing.T, ctx context.Context, cfg dist.WorkerConfig, kind string, ev dist.Evaluator) func() {
	t.Helper()
	wctx, cancel := context.WithCancel(ctx)
	w := dist.NewWorker(cfg)
	w.Register(kind, ev)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(wctx)
	}()
	return func() {
		cancel()
		<-done
	}
}

// runPool evaluates task on a fresh coordinator with n workers and
// returns the ordered payloads.
func runPool(t *testing.T, n int, task dist.Task) [][]byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	coord := dist.New(dist.Config{LeaseTTL: 5 * time.Second})
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer coord.Close()
	for i := 0; i < n; i++ {
		stop := startWorker(t, ctx, dist.WorkerConfig{
			Name: fmt.Sprintf("w%d", i), Slots: 2, Addr: addr,
		}, task.Kind, sumEval)
		defer stop()
	}
	payloads, err := coord.Run(ctx, task)
	if err != nil {
		t.Fatalf("run with %d workers: %v", n, err)
	}
	return payloads
}

// TestWorkerCountInvariance is the core determinism claim at the dist
// layer: the ordered shard payloads are identical at 1, 2, and 4
// workers.
func TestWorkerCountInvariance(t *testing.T) {
	task := dist.Task{Kind: "sum", Spec: []byte(`{"n":32}`), N: 32, ShardSize: 5}
	var want [][]byte
	for _, n := range []int{1, 2, 4} {
		got := runPool(t, n, task)
		if len(got) != 7 { // ceil(32/5)
			t.Fatalf("%d workers: %d shards, want 7", n, len(got))
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%d workers: shard %d payload %s, want %s", n, i, got[i], want[i])
			}
		}
	}
}

// TestLeaseExpiryReassignment wedges a heartbeat-disabled worker on a
// shard and checks the sweeper hands it to a healthy worker.
func TestLeaseExpiryReassignment(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	reg := obs.NewRegistry()
	coord := dist.New(dist.Config{
		Registry: reg,
		LeaseTTL: 100 * time.Millisecond, SweepEvery: 20 * time.Millisecond,
		StragglerAfter: -1, // isolate the expiry path
	})
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer coord.Close()

	// The stuck worker never heartbeats and never finishes.
	stuck := make(chan struct{})
	defer close(stuck)
	stopStuck := startWorker(t, ctx, dist.WorkerConfig{
		Name: "z-stuck", Slots: 1, Addr: addr, HeartbeatEvery: -1,
	}, "sum", func(ctx context.Context, _ []byte, _, _ int) ([]byte, error) {
		select {
		case <-stuck:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	})
	defer stopStuck()

	// Wait until the stuck worker is connected and can take the lease.
	waitFor(t, func() bool { return coord.Workers() == 1 })

	resCh := make(chan error, 1)
	task := dist.Task{Kind: "sum", Spec: []byte(`"x"`), N: 1}
	var payloads [][]byte
	go func() {
		var err error
		payloads, err = coord.Run(ctx, task)
		resCh <- err
	}()

	// Let the stuck worker take the lease, then bring up the healthy one.
	time.Sleep(150 * time.Millisecond)
	stopOK := startWorker(t, ctx, dist.WorkerConfig{
		Name: "b-ok", Slots: 1, Addr: addr,
	}, "sum", sumEval)
	defer stopOK()

	if err := <-resCh; err != nil {
		t.Fatalf("run: %v", err)
	}
	want, _ := sumEval(ctx, []byte(`"x"`), 0, 1)
	if !bytes.Equal(payloads[0], want) {
		t.Fatalf("payload %s, want %s", payloads[0], want)
	}
	if n := reg.Counter("dist.reassignments").Value(); n < 1 {
		t.Fatalf("reassignments = %d, want >= 1", n)
	}
}

// TestHeartbeatKeepsLease checks the opposite: a slow-but-alive worker
// heartbeating at the default cadence is never expired.
func TestHeartbeatKeepsLease(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	reg := obs.NewRegistry()
	coord := dist.New(dist.Config{
		Registry: reg,
		LeaseTTL: 120 * time.Millisecond, SweepEvery: 20 * time.Millisecond,
	})
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer coord.Close()
	stop := startWorker(t, ctx, dist.WorkerConfig{
		Name: "slow", Slots: 1, Addr: addr,
	}, "sum", func(ctx context.Context, spec []byte, lo, hi int) ([]byte, error) {
		time.Sleep(500 * time.Millisecond) // several TTLs, kept alive by heartbeats
		return sumEval(ctx, spec, lo, hi)
	})
	defer stop()

	payloads, err := coord.Run(ctx, dist.Task{Kind: "sum", Spec: []byte(`"slow"`), N: 1})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	want, _ := sumEval(ctx, []byte(`"slow"`), 0, 1)
	if !bytes.Equal(payloads[0], want) {
		t.Fatalf("payload %s, want %s", payloads[0], want)
	}
	if n := reg.Counter("dist.reassignments").Value(); n != 0 {
		t.Fatalf("reassignments = %d, want 0 (heartbeats should keep the lease)", n)
	}
}

// TestNackExhaustion checks a permanently failing shard fails the task
// after the configured attempts, with the worker's reason attached.
func TestNackExhaustion(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	reg := obs.NewRegistry()
	coord := dist.New(dist.Config{
		Registry: reg,
		Requeue:  retry.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	})
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer coord.Close()
	stop := startWorker(t, ctx, dist.WorkerConfig{
		Name: "failing", Slots: 1, Addr: addr,
	}, "sum", func(context.Context, []byte, int, int) ([]byte, error) {
		return nil, errors.New("synthetic shard failure")
	})
	defer stop()

	_, err = coord.Run(ctx, dist.Task{Kind: "sum", Spec: []byte(`"x"`), N: 1})
	if err == nil || !strings.Contains(err.Error(), "exhausted") || !strings.Contains(err.Error(), "synthetic shard failure") {
		t.Fatalf("err = %v, want lease-attempt exhaustion carrying the worker's reason", err)
	}
	if n := reg.Counter("dist.nacks").Value(); n != 3 {
		t.Fatalf("nacks = %d, want 3", n)
	}
}

// TestChaosConnDropReassignment is the dist-layer half of the
// acceptance criterion: one worker's connection is fault-injected to
// die mid-lease (after the lease arrives, before its result can leave),
// and the merged payloads must still be byte-identical to a healthy
// 1-worker run.
func TestChaosConnDropReassignment(t *testing.T) {
	task := dist.Task{Kind: "sum", Spec: []byte(`{"chaos":true}`), N: 24, ShardSize: 4}
	want := runPool(t, 1, task)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	reg := obs.NewRegistry()
	coord := dist.New(dist.Config{
		Registry: reg,
		LeaseTTL: 200 * time.Millisecond, SweepEvery: 25 * time.Millisecond,
	})
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer coord.Close()

	// Worker A's first connection dies after 600 bytes of traffic.
	// Reconnections are clean. A parks its first lease until that conn
	// has failed (its heartbeats spend the budget), so the drop always
	// lands mid-lease and that result is never written back.
	var dials atomic.Int64
	dropped := make(chan struct{})
	leased := make(chan struct{})
	var first sync.Once
	stopA := startWorker(t, ctx, dist.WorkerConfig{
		Name: "a-flaky", Slots: 2, Addr: addr,
		Reconnect: retry.Policy{MaxAttempts: 100, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond},
		Dial: func(a string) (net.Conn, error) {
			c, err := net.Dial("tcp", a)
			if err != nil {
				return nil, err
			}
			if dials.Add(1) == 1 {
				return &failNotifyConn{Conn: faults.DropConn(c, 600), failed: dropped}, nil
			}
			return c, nil
		},
	}, "sum", func(ctx context.Context, spec []byte, lo, hi int) ([]byte, error) {
		park := false
		first.Do(func() { park = true; close(leased) })
		if park {
			select {
			case <-dropped:
			case <-ctx.Done():
			}
		}
		return sumEval(ctx, spec, lo, hi)
	})
	defer stopA()

	type result struct {
		payloads [][]byte
		err      error
	}
	done := make(chan result, 1)
	go func() {
		p, err := coord.Run(ctx, task)
		done <- result{p, err}
	}()
	// B joins only once A holds a lease; otherwise B can drain every
	// shard before A's fault trips.
	select {
	case <-leased:
	case <-ctx.Done():
		t.Fatal("worker A never held a lease")
	}
	stopB := startWorker(t, ctx, dist.WorkerConfig{
		Name: "b-steady", Slots: 2, Addr: addr,
	}, "sum", sumEval)
	defer stopB()

	res := <-done
	got, err := res.payloads, res.err
	if err != nil {
		t.Fatalf("run under chaos: %v", err)
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("shard %d payload diverged under chaos:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	if dials.Load() < 2 {
		t.Fatalf("fault injection never tripped: %d dials", dials.Load())
	}
}

// failNotifyConn closes failed on the first Read or Write error.
type failNotifyConn struct {
	net.Conn
	once   sync.Once
	failed chan struct{}
}

func (c *failNotifyConn) notify(err error) error {
	if err != nil {
		c.once.Do(func() { close(c.failed) })
	}
	return err
}

func (c *failNotifyConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	return n, c.notify(err)
}

func (c *failNotifyConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	return n, c.notify(err)
}

// TestStragglerReissue checks a shard stuck on a slow worker is
// speculatively duplicated onto an idle one and the first result wins.
func TestStragglerReissue(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	reg := obs.NewRegistry()
	coord := dist.New(dist.Config{
		Registry: reg,
		LeaseTTL: 10 * time.Second, // no expiry: stragglers only
		SweepEvery:     20 * time.Millisecond,
		StragglerAfter: 100 * time.Millisecond,
	})
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer coord.Close()

	release := make(chan struct{})
	defer close(release)
	stopSlow := startWorker(t, ctx, dist.WorkerConfig{
		Name: "z-slow", Slots: 1, Addr: addr,
	}, "sum", func(ctx context.Context, spec []byte, lo, hi int) ([]byte, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return sumEval(ctx, spec, lo, hi)
	})
	defer stopSlow()
	waitFor(t, func() bool { return coord.Workers() == 1 })

	resCh := make(chan error, 1)
	var payloads [][]byte
	go func() {
		var err error
		payloads, err = coord.Run(ctx, dist.Task{Kind: "sum", Spec: []byte(`"st"`), N: 1})
		resCh <- err
	}()
	time.Sleep(150 * time.Millisecond) // slow worker holds the lease past StragglerAfter
	stopFast := startWorker(t, ctx, dist.WorkerConfig{
		Name: "a-fast", Slots: 1, Addr: addr,
	}, "sum", sumEval)
	defer stopFast()

	if err := <-resCh; err != nil {
		t.Fatalf("run: %v", err)
	}
	want, _ := sumEval(ctx, []byte(`"st"`), 0, 1)
	if !bytes.Equal(payloads[0], want) {
		t.Fatalf("payload %s, want %s", payloads[0], want)
	}
	if n := reg.Counter("dist.stragglers_reissued").Value(); n < 1 {
		t.Fatalf("stragglers_reissued = %d, want >= 1", n)
	}
}

// TestHelloVersionMismatch speaks an older (v1, payloads inside the
// JSON header) and a future protocol version at the coordinator and
// expects a nack naming both versions each time. A v1 hello has no
// payload, so its bytes are exactly what WriteFrame produces for it.
func TestHelloVersionMismatch(t *testing.T) {
	coord := dist.New(dist.Config{})
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer coord.Close()
	for _, v := range []int{1, dist.ProtocolVersion + 41} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer conn.Close()
		if err := dist.WriteFrame(conn, &dist.Frame{T: dist.TypeHello, V: v, Worker: "old"}); err != nil {
			t.Fatalf("v%d: write hello: %v", v, err)
		}
		reply, err := dist.ReadFrame(conn)
		if err != nil {
			t.Fatalf("v%d: read reply: %v", v, err)
		}
		if reply.T != dist.TypeNack || !strings.Contains(reply.Err, fmt.Sprintf("version %d", v)) ||
			!strings.Contains(reply.Err, fmt.Sprintf("v%d", dist.ProtocolVersion)) {
			t.Fatalf("v%d: reply = %+v, want version nack naming both versions", v, reply)
		}
	}
}

// TestConcurrentIdenticalTasks submits the same task from two callers
// at once; the shared shard address means both complete and agree.
func TestConcurrentIdenticalTasks(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	coord := dist.New(dist.Config{})
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer coord.Close()
	stop := startWorker(t, ctx, dist.WorkerConfig{Name: "w", Slots: 2, Addr: addr}, "sum", sumEval)
	defer stop()

	task := dist.Task{Kind: "sum", Spec: []byte(`"dup"`), N: 8, ShardSize: 4}
	var wg sync.WaitGroup
	results := make([][][]byte, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = coord.Run(ctx, task)
		}(i)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
	}
	for s := range results[0] {
		if !bytes.Equal(results[0][s], results[1][s]) {
			t.Fatalf("shard %d: concurrent callers disagree", s)
		}
	}
}

// TestRunValidation covers the task-shape errors.
func TestRunValidation(t *testing.T) {
	coord := dist.New(dist.Config{})
	defer coord.Close()
	if _, err := coord.Run(context.Background(), dist.Task{Kind: "", N: 1}); err == nil {
		t.Fatal("missing kind accepted")
	}
	if _, err := coord.Run(context.Background(), dist.Task{Kind: "sum", N: 0}); err == nil {
		t.Fatal("n = 0 accepted")
	}
}

// TestClosedCoordinator checks Run fails fast after Close.
func TestClosedCoordinator(t *testing.T) {
	coord := dist.New(dist.Config{})
	coord.Close()
	if _, err := coord.Run(context.Background(), dist.Task{Kind: "sum", N: 1}); !errors.Is(err, dist.ErrCoordinatorClosed) {
		t.Fatalf("err = %v, want ErrCoordinatorClosed", err)
	}
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}
