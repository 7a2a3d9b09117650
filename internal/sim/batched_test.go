package sim

import (
	"bytes"
	"slices"
	"testing"
)

// batchedConfig is a mid-size swarm exercising arrivals, skew, optimistic
// unchokes, and lingering under the batched trading mode.
func batchedConfig() Config {
	cfg := DefaultConfig()
	cfg.Pieces = 40
	cfg.MaxConns = 4
	cfg.NeighborSet = 12
	cfg.InitialPeers = 60
	cfg.ArrivalRate = 2
	cfg.SeedUpload = 3
	cfg.Horizon = 80
	cfg.TrackPeers = 4
	cfg.BatchedTrading = true
	return cfg
}

// TestBatchedTradingDeterministic: the batched encounter pool is a pure
// function of the seed pair — two identical runs must produce
// byte-identical Results.
func TestBatchedTradingDeterministic(t *testing.T) {
	run := func() []byte {
		s, err := New(batchedConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return oracleJSON(t, res)
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatal("batched trading runs with identical seeds diverged")
	}
}

// TestBatchedTradingCompletes: batched draws change the trajectory but not
// the protocol — downloads still finish and the aggregate gauges stay in
// range.
func TestBatchedTradingCompletes(t *testing.T) {
	s, err := New(batchedConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completions) == 0 {
		t.Fatal("batched swarm made no progress")
	}
	for _, v := range res.EfficiencySeries.V {
		if v < 0 || v > 1 {
			t.Fatalf("efficiency %g out of range", v)
		}
	}
	for _, v := range res.PRSeries.V {
		if v < 0 || v > 1 {
			t.Fatalf("pr %g out of range", v)
		}
	}
}

// TestBatchedTradingInvariants: the structural invariants (symmetry,
// capacity, conns within neighbors, population conservation) hold
// round-by-round under batched trading.
func TestBatchedTradingInvariants(t *testing.T) {
	cfg := batchedConfig()
	cfg.AbortRate = 0.01
	cfg.SeedLingerRounds = 3
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 80; r++ {
		s.round()
		ps := &s.ps
		for _, sl := range s.alive {
			if int(ps.nbrLen[sl]) > cfg.NeighborSet {
				t.Fatalf("round %d: %d neighbors > s=%d", r, ps.nbrLen[sl], cfg.NeighborSet)
			}
			if !ps.seed[sl] && int(ps.connLen[sl]) > cfg.MaxConns {
				t.Fatalf("round %d: %d conns > k=%d", r, ps.connLen[sl], cfg.MaxConns)
			}
			for _, q := range ps.nbrRow(sl) {
				if !ps.hasNbr(q, sl) {
					t.Fatalf("round %d: asymmetric neighbor relation", r)
				}
			}
			for _, q := range ps.connRow(sl) {
				if !ps.hasNbr(sl, q) || !ps.connected(q, sl) {
					t.Fatalf("round %d: bad connection state", r)
				}
			}
		}
	}
	leechersNow := 0
	for _, sl := range s.alive {
		if !s.ps.seed[sl] {
			leechersNow++
		}
	}
	joined := cfg.InitialPeers + s.res.arrivals
	accounted := len(s.res.Completions) + s.res.aborts + leechersNow
	if joined != accounted {
		t.Errorf("conservation: joined %d, accounted %d", joined, accounted)
	}
}

// TestAdvanceMatchesRun: stepping the simulation with Advance and then
// finishing with Run replays the exact trajectory of a single
// uninterrupted Run.
func TestAdvanceMatchesRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Pieces = 30
	cfg.InitialPeers = 40
	cfg.ArrivalRate = 2
	cfg.Horizon = 60
	cfg.TrackPeers = 4

	straight, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resA, err := straight.Run()
	if err != nil {
		t.Fatal(err)
	}

	stepped, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := stepped.Advance(cfg.Horizon / 3); err != nil {
		t.Fatal(err)
	}
	if err := stepped.Advance(2 * cfg.Horizon / 3); err != nil {
		t.Fatal(err)
	}
	resB, err := stepped.Run()
	if err != nil {
		t.Fatal(err)
	}

	if a, b := oracleJSON(t, resA), oracleJSON(t, resB); !bytes.Equal(a, b) {
		t.Fatal("Advance-then-Run diverged from a straight Run")
	}
}

// hasNbr reports whether q is in p's neighbor row.
func (ps *peerStore) hasNbr(p, q int32) bool {
	return slices.Contains(ps.nbrRow(p), q)
}
