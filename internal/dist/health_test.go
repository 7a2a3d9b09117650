package dist

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// stubClock is a manually advanced clock for pinning sweep timing.
type stubClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *stubClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *stubClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// TestHealthBookStrikesEscalateAndDecay drives the health book a
// coordinator builds from StrikeThreshold/StrikeWindow through
// threshold, escalation, lapse and forgiveness.
func TestHealthBookStrikesEscalateAndDecay(t *testing.T) {
	c := New(Config{Registry: obs.NewRegistry(), StrikeThreshold: 3, StrikeWindow: time.Minute})
	defer c.Close()
	b := c.health
	base := time.Unix(1000, 0)
	if b.Quarantined("w", base) {
		t.Fatal("fresh worker quarantined")
	}
	if b.Strike("w", base) || b.Strike("w", base.Add(time.Second)) {
		t.Fatal("quarantined below threshold")
	}
	third := base.Add(2 * time.Second)
	if !b.Strike("w", third) {
		t.Fatal("third strike within the window should quarantine")
	}
	if !b.Quarantined("w", third.Add(30*time.Second)) {
		t.Fatal("ban should hold for the full window")
	}
	// A fourth strike while still banned escalates: the ban doubles to
	// two windows from the strike.
	fourth := third.Add(40 * time.Second)
	if !b.Strike("w", fourth) {
		t.Fatal("fourth strike should quarantine")
	}
	if !b.Quarantined("w", fourth.Add(119*time.Second)) {
		t.Fatal("escalated ban should last two windows")
	}
	if b.Quarantined("w", fourth.Add(121*time.Second)) {
		t.Fatal("escalated ban should lapse after two windows")
	}
	// Clean for a full window past the ban: the record is forgiven and a
	// new strike starts from one.
	late := fourth.Add(30 * time.Minute)
	if b.Strike("w", late) {
		t.Fatal("forgiven worker quarantined on its first fresh strike")
	}
	if got := b.Strikes("w"); got != 1 {
		t.Fatalf("strike count after forgiveness = %d, want 1", got)
	}
}

// TestHealthBookQuarantineDisabled: a negative StrikeThreshold never
// quarantines a worker but still counts its strikes for telemetry.
func TestHealthBookQuarantineDisabled(t *testing.T) {
	c := New(Config{Registry: obs.NewRegistry(), StrikeThreshold: -1, StrikeWindow: time.Minute})
	defer c.Close()
	b := c.health
	now := time.Unix(1000, 0)
	for i := 0; i < 10; i++ {
		if b.Strike("w", now) {
			t.Fatal("negative threshold must never quarantine")
		}
	}
	if b.Quarantined("w", now) {
		t.Fatal("negative threshold must never quarantine")
	}
	if got := b.Strikes("w"); got != 10 {
		t.Fatalf("strikes still counted for telemetry: got %d, want 10", got)
	}
}

func TestHealthBookLatencyEWMA(t *testing.T) {
	l := workerLatency{}
	if _, ok := l["w"]; ok {
		t.Fatal("latency reported with no samples")
	}
	l.note("w", 100)
	if ms, ok := l["w"]; !ok || ms != 100 {
		t.Fatalf("first sample should set the EWMA directly: %v %v", ms, ok)
	}
	l.note("w", 0)
	if ms := l["w"]; ms != 80 {
		t.Fatalf("EWMA after 100 then 0 at alpha 0.2 = %v, want 80", ms)
	}
}

// fakeWorkerConn registers a synthetic worker on c without a real
// connection: grants land in the buffered outbox, results are injected
// via handleResult.
func fakeWorkerConn(t *testing.T, c *Coordinator, name string) *workerConn {
	t.Helper()
	p1, p2 := net.Pipe()
	t.Cleanup(func() { _ = p1.Close(); _ = p2.Close() })
	w := &workerConn{
		conn: p1, name: name, slots: 1,
		leased: make(map[string]int), out: make(chan *Frame, 8),
	}
	c.mu.Lock()
	c.workers[w] = struct{}{}
	c.mu.Unlock()
	return w
}

// startStubbedRun submits a 1-shard task on a goroutine and returns the
// granted shard address plus the Run completion channel.
func startStubbedRun(t *testing.T, c *Coordinator) (string, chan error) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(context.Background(), Task{Kind: "k", N: 1, ShardSize: 1})
		done <- err
	}()
	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" && time.Now().Before(deadline) {
		c.mu.Lock()
		for a, ss := range c.open {
			if len(ss) > 0 && len(ss[0].leases) > 0 {
				addr = a
			}
		}
		c.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	if addr == "" {
		t.Fatal("shard never granted")
	}
	return addr, done
}

// TestSweepGraceResultRace pins the sweeper edge: a result frame that
// lands in the same sweep tick its lease expires in counts as a result
// — no strike, no reassignment — because the sweeper only expires a
// lease it has already seen lapsed on a previous pass.
func TestSweepGraceResultRace(t *testing.T) {
	clk := &stubClock{t: time.Unix(1000, 0)}
	reg := obs.NewRegistry()
	c := New(Config{
		Registry: reg, LeaseTTL: 100 * time.Millisecond,
		StragglerAfter: -1, now: clk.Now,
	})
	defer c.Close()
	w := fakeWorkerConn(t, c, "w0")
	addr, done := startStubbedRun(t, c)

	clk.Advance(150 * time.Millisecond) // past the lease TTL
	c.sweepOnce()                       // first sighting: lapsed, not expired
	c.mu.Lock()
	held := len(c.open[addr][0].leases)
	strikes := c.health.Strikes("w0")
	c.mu.Unlock()
	if held != 1 || strikes != 0 {
		t.Fatalf("lease released on first expired sighting: held=%d strikes=%d", held, strikes)
	}

	// The result arrives within the same tick's grace window.
	c.handleResult(w, addr, []byte(`[0]`), nil)
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	snap := reg.Snapshot()
	if snap.Counters["dist.results"] != 1 || snap.Counters["dist.late_results"] != 0 ||
		snap.Counters["dist.reassignments"] != 0 || snap.Counters["dist.strikes"] != 0 {
		t.Fatalf("race counted as expiry, not result: %+v", snap.Counters)
	}
}

// TestSweepSecondTickExpires is the counterpart: a lease still silent on
// the next sweep is expired, charged as a strike, and requeued.
func TestSweepSecondTickExpires(t *testing.T) {
	clk := &stubClock{t: time.Unix(1000, 0)}
	reg := obs.NewRegistry()
	c := New(Config{
		Registry: reg, LeaseTTL: 100 * time.Millisecond,
		StragglerAfter: -1, now: clk.Now,
	})
	defer c.Close()
	w := fakeWorkerConn(t, c, "w0")
	addr, done := startStubbedRun(t, c)

	clk.Advance(150 * time.Millisecond)
	c.sweepOnce() // lapsed
	clk.Advance(50 * time.Millisecond)
	c.sweepOnce() // expired: strike + requeue + immediate re-grant to w0
	c.mu.Lock()
	strikes := c.health.Strikes("w0")
	c.mu.Unlock()
	if strikes != 1 {
		t.Fatalf("strikes after expiry = %d, want 1", strikes)
	}
	if snap := reg.Snapshot(); snap.Counters["dist.reassignments"] != 1 {
		t.Fatalf("reassignments = %d, want 1", snap.Counters["dist.reassignments"])
	}
	// The requeued shard is backoff-gated; advance past it and dispatch.
	clk.Advance(5 * time.Second)
	c.sweepOnce()
	c.handleResult(w, addr, []byte(`[0]`), nil)
	if err := <-done; err != nil {
		t.Fatalf("run after reassignment: %v", err)
	}
}

// TestHeartbeatClearsLapsedGrace: a heartbeat arriving during the grace
// tick renews the lease and clears the lapsed mark, so the next sweep
// does not expire it.
func TestHeartbeatClearsLapsedGrace(t *testing.T) {
	clk := &stubClock{t: time.Unix(1000, 0)}
	reg := obs.NewRegistry()
	c := New(Config{
		Registry: reg, LeaseTTL: 100 * time.Millisecond,
		StragglerAfter: -1, now: clk.Now,
	})
	defer c.Close()
	w := fakeWorkerConn(t, c, "w0")
	addr, done := startStubbedRun(t, c)

	clk.Advance(150 * time.Millisecond)
	c.sweepOnce() // lapsed
	c.handleHeartbeat(w, addr)
	c.sweepOnce() // renewed: must not expire
	c.mu.Lock()
	held := len(c.open[addr][0].leases)
	strikes := c.health.Strikes("w0")
	c.mu.Unlock()
	if held != 1 || strikes != 0 {
		t.Fatalf("heartbeat did not rescue lapsed lease: held=%d strikes=%d", held, strikes)
	}
	c.handleResult(w, addr, []byte(`[0]`), nil)
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
}
