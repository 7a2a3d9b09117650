package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"time"

	"repro/internal/sim"
)

// swarmSize fixes one swarm-steady scale.
type swarmSize struct {
	lambda float64
	// warm covers the start-up overshoot: at λ=100 the population
	// climbs to about 4.8k by round 60 and settles near 2.2k by round
	// 130, several download times in.
	warm int
	// digestRounds timed rounds enter the statistics digest, so two
	// builds are compared on the same simulated work whatever their
	// speed; they also bound the peak-heap window.
	digestRounds int
	// minExchanges is the floor on exchanges per peer-round; the steady
	// swarm trades about 4.5, a quiescent one about 0.
	minExchanges float64
	seeds        int // origin seeds
}

var (
	swarmFull = swarmSize{lambda: 100, warm: 150, digestRounds: 400, minExchanges: 2, seeds: 4}
	swarmTiny = swarmSize{lambda: 10, warm: 60, digestRounds: 20, minExchanges: 1, seeds: 4}
)

func swarmConfig(seed uint64, z swarmSize) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Pieces, cfg.MaxConns, cfg.NeighborSet = 100, 7, 40
	cfg.Seeds = z.seeds
	cfg.ArrivalRate = z.lambda
	cfg.InitialPeers = 0
	cfg.TrackPeers = 0
	cfg.Horizon = math.MaxInt32
	cfg.Seed1, cfg.Seed2 = seed, seed^0x9e3779b97f4a7c15
	return cfg
}

// swarmWatch is the swarm's Observer: it checks conservation every
// round and folds the round statistics into the digest.
type swarmWatch struct {
	seeds                         int
	arrivals, completions, aborts int
	peers, exchanges              int // over the timed rounds
	timed                         bool
	rounds                        int
	digest                        hash.Hash
	digestUntil                   int // round after which the digest stops
	conservation                  string
	last                          sim.RoundStats
}

func (w *swarmWatch) ObserveRound(r sim.RoundStats) {
	w.arrivals += r.Arrivals
	w.completions += r.Completions
	w.aborts += r.Aborts
	w.rounds++
	w.last = r
	if live := r.Peers - w.seeds; w.conservation == "" && w.arrivals-w.completions-w.aborts != live {
		w.conservation = fmt.Sprintf("round %d: arrivals %d - completions %d - aborts %d != population %d",
			r.Round, w.arrivals, w.completions, w.aborts, live)
	}
	if w.timed {
		w.peers += r.Peers
		w.exchanges += r.Exchanges
	}
	if w.rounds <= w.digestUntil {
		var b [8]byte
		for _, v := range []uint64{
			uint64(r.Round), uint64(r.Peers), uint64(r.Arrivals), uint64(r.Exchanges),
			uint64(r.SeedUploads), uint64(r.Optimistic), uint64(r.Completions), uint64(r.Aborts),
			uint64(r.ConnsFormed), uint64(r.ConnsDropped),
			math.Float64bits(r.Entropy), math.Float64bits(r.Efficiency), math.Float64bits(r.PR),
		} {
			binary.LittleEndian.PutUint64(b[:], v)
			w.digest.Write(b[:])
		}
	}
}

func (w *swarmWatch) sum() string { return hex.EncodeToString(w.digest.Sum(nil)) }

func runSwarm(o options, out *outcome) error {
	if o.tiny {
		return swarmRun(o, out, swarmTiny)
	}
	return swarmRun(o, out, swarmFull)
}

func swarmRun(o options, out *outcome, z swarmSize) error {
	cfg := swarmConfig(o.seed, z)

	// Set-up: build and warm the swarm setupReps times; every warm-up
	// must reach the same state.
	var s *sim.Swarm
	var w *swarmWatch
	var warmSum string
	for rep := 0; rep < setupReps; rep++ {
		t0, c0 := time.Now(), cpuTime()
		w = &swarmWatch{seeds: z.seeds, digest: sha256.New(), digestUntil: z.warm + z.digestRounds}
		cfg.Observer = w
		var err error
		if s, err = sim.New(cfg); err != nil {
			return err
		}
		if err := s.Advance(float64(z.warm)); err != nil {
			return err
		}
		out.setupDone(t0, c0)
		runtime.GC() // drop the previous swarm before the next is built
		if sum := w.sum(); rep == 0 {
			warmSum = sum
		} else if sum != warmSum {
			out.gate("warm-up %d reached digest %s, warm-up 0 reached %s", rep, sum, warmSum)
		}
	}
	if w.rounds != z.warm {
		return fmt.Errorf("warm-up ran %d rounds, want %d", w.rounds, z.warm)
	}

	var rec *recorder
	if o.trace {
		rec = newRecorder()
		out.spans = rec
	}
	var traced, untraced []float64
	var busy time.Duration
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w.timed = true
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	tl := newTally(start)
	var stop func()
	if rec != nil {
		stop = rec.alternate()
	}
	round := z.warm
	for round < z.warm+z.digestRounds || time.Now().Before(deadline) {
		round++
		on := rec != nil && rec.on.Load()
		t0 := time.Now()
		if err := s.Advance(float64(round)); err != nil {
			return err
		}
		t1 := time.Now()
		d := t1.Sub(t0)
		busy += d
		tl.latency(t1, d)
		tl.done(t1, float64(w.last.Peers))
		if round == z.warm+z.digestRounds {
			// The swarm keeps every completion record, so its heap grows
			// with rounds run; the peak covers a fixed number of them.
			out.measured()
		}
		if on {
			rec.add(span{layer: lRound, start: rec.since(t0), end: rec.since(t1), n: w.last.Peers})
			traced = append(traced, ms(d))
		} else {
			untraced = append(untraced, ms(d))
		}
	}
	wall, cpu := time.Since(start), cpuTime()-cpu0
	if stop != nil {
		stop()
	}
	runtime.ReadMemStats(&after)

	rounds := round - z.warm
	out.attempted = int64(rounds)
	if w.conservation != "" {
		out.gate("conservation: %s", w.conservation)
	}
	exPerPeer := float64(w.exchanges) / float64(max(w.peers, 1))
	if exPerPeer < z.minExchanges {
		out.gate("swarm went quiescent: %.3f exchanges per peer-round, floor %.1f", exPerPeer, z.minExchanges)
	}
	out.notes = append(out.notes,
		fmt.Sprintf("digest: %s (warm-up %d + %d timed rounds, seed %d)", w.sum(), z.warm, z.digestRounds, o.seed),
		fmt.Sprintf("swarm: %d timed rounds, %.0f peers mean, %.3f exchanges per peer-round, arrivals %d completions %d aborts %d",
			rounds, float64(w.peers)/float64(rounds), exPerPeer, w.arrivals, w.completions, w.aborts))

	v := out.values
	v["throughput_per_cpu_s"] = float64(w.peers) / cpu.Seconds()
	v["caller.latency_ms_p50"] = tl.latencyQ(wall, 0.50)
	v["caller.throughput_per_s"] = tl.rate(wall)
	v["caller.latency_ms_p99"] = tl.latencyQ(wall, 0.99)
	all := tl.all()
	v["sim.round_ms_p50"] = quantile(all, 0.50)
	v["sim.round_ms_p95"] = quantile(all, 0.95)
	v["sim.ns_per_peer_round"] = float64(busy.Nanoseconds()) / float64(max(w.peers, 1))
	v["sim.peers_mean"] = float64(w.peers) / float64(rounds)
	v["sim.exchanges_per_peer_round"] = exPerPeer
	v["sim.alloc_bytes_per_round"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds)
	if rec != nil {
		v["trace.overhead_ms_p50"] = quantile(traced, 0.5) - quantile(untraced, 0.5)
	}
	return nil
}
