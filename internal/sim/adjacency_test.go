package sim

import (
	"testing"

	"repro/internal/bitset"
	"repro/internal/faults"
)

// TestAdjacencyInvariants steps a churny swarm — arrivals, lingering
// seeds, aborts, the Section 7.1 shake, injected connection failure, a
// tracker blackout, and crashes with rejoin — and checks the peer store's
// adjacency after every round. Departures, shakes and crashes detach a
// peer in one pass instead of a per-neighbor unlink loop; these are the
// invariants that pass relies on and must preserve:
//
//   - every alive slot's rare row equals a recount over its neighbors;
//   - neighbor rows are symmetric, hold only alive slots, and are sorted
//     by id;
//   - connection rows are sorted, symmetric, and a subset of neighbors;
//   - a crashed slot awaiting rejoin has empty rows and a zero rare row,
//     the state it comes back with.
func TestAdjacencyInvariants(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Pieces = 30
	cfg.InitialPeers = 80
	cfg.ArrivalRate = 3
	cfg.NeighborSet = 12
	cfg.MaxConns = 4
	cfg.SeedLingerRounds = 3
	cfg.AbortRate = 0.01
	cfg.ShakeThreshold = 0.5
	cfg.TrackPeers = 0
	cfg.Horizon = 150
	cfg.Faults = &faults.Plan{
		Seed: 3, CrashRate: 0.02, RejoinAfter: 4, ConnFailRate: 0.1,
		TrackerBlackouts: []faults.Window{{From: 40, To: 50}},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkAdjacency(t, s, 0)
	for r := 1; r <= int(cfg.Horizon); r++ {
		if err := s.Advance(float64(r)); err != nil {
			t.Fatal(err)
		}
		checkAdjacency(t, s, r)
		if t.Failed() {
			return
		}
	}
	res := s.res
	for name, n := range map[string]int{
		"arrivals": res.arrivals, "completions": len(res.Completions),
		"lingered": res.lingered, "aborts": res.aborts, "shakes": res.shakes,
		"crashes": res.crashes, "rejoins": res.rejoins,
	} {
		if n == 0 {
			t.Errorf("no %s: the workload no longer exercises that path", name)
		}
	}
}

func checkAdjacency(t *testing.T, s *Swarm, round int) {
	t.Helper()
	ps := &s.ps
	alive := make(map[int32]bool, len(s.alive))
	for _, p := range s.alive {
		alive[p] = true
	}
	has := func(row []int32, q int32) bool {
		for _, x := range row {
			if x == q {
				return true
			}
		}
		return false
	}
	sorted := func(row []int32) bool {
		for i := 1; i < len(row); i++ {
			if ps.id[row[i-1]] >= ps.id[row[i]] {
				return false
			}
		}
		return true
	}
	for _, p := range s.alive {
		nbrs, conns := ps.nbrRow(p), ps.connRow(p)
		if !sorted(nbrs) {
			t.Errorf("round %d: slot %d neighbor row not sorted by id: %v", round, p, nbrs)
		}
		if !sorted(conns) {
			t.Errorf("round %d: slot %d connection row not sorted by id: %v", round, p, conns)
		}
		for _, q := range nbrs {
			if !alive[q] {
				t.Errorf("round %d: slot %d neighbors dead slot %d", round, p, q)
			}
			if !has(ps.nbrRow(q), p) {
				t.Errorf("round %d: %d neighbors %d but not the reverse", round, p, q)
			}
		}
		for _, q := range conns {
			if !has(nbrs, q) {
				t.Errorf("round %d: %d connects to non-neighbor %d", round, p, q)
			}
			if !has(ps.connRow(q), p) {
				t.Errorf("round %d: %d connects to %d but not the reverse", round, p, q)
			}
		}
		rare := ps.rareRow(p)
		for j := range rare {
			n := 0
			for _, q := range nbrs {
				if bitset.RowHas(ps.pieceRow(q), j) {
					n++
				}
			}
			if int(rare[j]) != n {
				t.Errorf("round %d: slot %d rare[%d] = %d, %d neighbors hold it", round, p, j, rare[j], n)
			}
		}
	}
	for _, rec := range s.crashList {
		sl := rec.sl
		if alive[sl] || ps.nbrLen[sl] != 0 || ps.connLen[sl] != 0 {
			t.Errorf("round %d: crashed slot %d alive=%v with %d neighbors, %d connections",
				round, sl, alive[sl], ps.nbrLen[sl], ps.connLen[sl])
		}
		for j, c := range ps.rareRow(sl) {
			if c != 0 {
				t.Errorf("round %d: crashed slot %d rare[%d] = %d, want 0", round, sl, j, c)
				break
			}
		}
	}
}
