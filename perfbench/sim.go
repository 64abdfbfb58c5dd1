package main

import (
	"fmt"
	"runtime"
	"time"

	storagetank "repro"
	"repro/internal/workload"
)

// sim-shards runs the simulated installation of the shard scale
// benchmark at 8 shards: 8 lease authorities at 100µs of metadata
// service each, 1000 clients of closed-loop Zipf(1.2) metadata traffic
// over 16 private files each, on one goroutine. It stays at 8 shards
// because simulated node IDs collide at 10.
const (
	simShards  = 8
	simClients = 1000
	simFiles   = 16
	simZipfS   = 1.2
	// simSlice is the simulated time between wall-clock readings: each
	// slice gives one sample of wall time per simulated op.
	simSlice = 2 * time.Millisecond
	// A run is a series of episodes, each a fresh installation driven for
	// simEpisode of simulated time (about 2.5 wall seconds on a 2-core
	// Intel Xeon). Episodes bound memory — the scheduler keeps cancelled
	// lease timers until their due time, so the heap grows with
	// simulated time up to τ — and give set-up repeated timings. Every
	// episode of a run replays the same seed, so they must fire exactly
	// the same events.
	simEpisode     = 2 * time.Second
	simEpisodeWall = 2.5
)

func simOptions(seed int64) []storagetank.Option {
	cfg := storagetank.DefaultConfig()
	cfg.Tau = 60 * time.Second
	cfg.RetryInterval = 2 * time.Second
	return []storagetank.Option{
		storagetank.WithSeed(seed),
		storagetank.WithShards(simShards),
		storagetank.WithClients(simClients),
		storagetank.WithProtocol(cfg),
		storagetank.WithoutChecker(),
		storagetank.WithServerService(100 * time.Microsecond),
		storagetank.WithDiskService(0),
	}
}

type simInst struct {
	cl      *storagetank.ShardCluster
	runners []*workload.MetaRunner
}

// bootSim builds and registers the installation: the set-up cost,
// including the eager per-client construction.
func bootSim(seed int64) simInst {
	cl := storagetank.NewShardClusterWith(simOptions(seed)...)
	cl.Start()
	s := simInst{cl: cl}
	for ci := 0; ci < simClients; ci++ {
		s.runners = append(s.runners, workload.NewMetaRunner(cl.Nodes[ci], cl.Sched, ci,
			simFiles, simZipfS, runSeed(seed, ci)))
	}
	return s
}

func (s simInst) start() {
	for _, r := range s.runners {
		r.Start()
	}
}

func (s simInst) counts() (ops, errs uint64) {
	for _, r := range s.runners {
		ops += r.Ops
		errs += r.Errors
	}
	return ops, errs
}

func (s simInst) msgs() uint64 {
	c, _, _ := s.cl.Control.Counts()
	d, _, _ := s.cl.SAN.Counts()
	return c + d
}

// simPhase is one measured stretch of simulated time.
type simPhase struct {
	ops, errs, fired, msgs uint64
	elapsed                time.Duration
	// Per slice of simulated time: its wall duration and the ops it
	// completed.
	sliceDur, sliceOps []int64
	allocs             uint64
	gcFrac, heapMB     float64
}

func (p simPhase) opsPerSec() float64 { return float64(p.ops) / p.elapsed.Seconds() }

// run drives the started installation for d of simulated time.
func (s simInst) run(d time.Duration) simPhase {
	var p simPhase
	ops0, errs0 := s.counts()
	fired0, msgs0 := s.cl.Sched.Fired(), s.msgs()
	heap := startHeapSampler()
	rt := readRuntime()
	start := time.Now()
	last, lastOps := nanotime(), ops0
	for done := time.Duration(0); done < d; done += simSlice {
		s.cl.RunFor(simSlice)
		now := nanotime()
		ops, _ := s.counts()
		p.sliceDur = append(p.sliceDur, now-last)
		p.sliceOps = append(p.sliceOps, int64(ops-lastOps))
		last, lastOps = now, ops
	}
	p.elapsed = time.Since(start)
	p.allocs, p.gcFrac = rt.since()
	p.heapMB = heap.Stop()
	ops, errs := s.counts()
	p.ops, p.errs = ops-ops0, errs-errs0
	p.fired, p.msgs = s.cl.Sched.Fired()-fired0, s.msgs()-msgs0
	return p
}

// simWindow is the number of slices (1 s of simulated time) one window
// of a simulated run spans: the simulator's windows are cut in simulated
// time, so each holds enough slices for its p90 on any machine.
const simWindow = 500

// windowed returns, per whole window, simulated ops completed per wall
// second and the distribution of wall time per simulated op over the
// window's slices.
func (p simPhase) windowed() (rates []float64, lats []latency) {
	for w := 0; (w+1)*simWindow <= len(p.sliceOps); w++ {
		var ops, dur int64
		var perOp []int64
		for i := w * simWindow; i < (w+1)*simWindow; i++ {
			ops += p.sliceOps[i]
			dur += p.sliceDur[i]
			if p.sliceOps[i] > 0 {
				perOp = append(perOp, p.sliceDur[i]/p.sliceOps[i])
			}
		}
		rates = append(rates, float64(ops)/time.Duration(dur).Seconds())
		lats = append(lats, summarize(perOp))
	}
	return rates, lats
}

func simEpisodes(seconds float64) int { return max(2, int(seconds/simEpisodeWall+0.5)) }

// simRun is a run's episodes with their set-up times.
type simRun struct {
	phases []simPhase
	setups []float64
}

// runEpisodes boots, times and drives n episodes of the same seed and
// checks that they replay identically.
func runEpisodes(seed int64, n int) (simRun, error) {
	var r simRun
	for i := 0; i < n; i++ {
		t0 := time.Now()
		s := bootSim(seed)
		r.setups = append(r.setups, time.Since(t0).Seconds())
		runtime.GC()
		s.start()
		p := s.run(simEpisode)
		if i > 0 && (p.fired != r.phases[0].fired || p.ops != r.phases[0].ops) {
			return r, fmt.Errorf("seed %d is not deterministic: episode 0 fired %d events for %d ops, episode %d %d for %d",
				seed, r.phases[0].fired, r.phases[0].ops, i, p.fired, p.ops)
		}
		r.phases = append(r.phases, p)
	}
	return r, nil
}

// totals sums episodes [from, to).
func (r simRun) totals(from, to int) (p simPhase) {
	for _, q := range r.phases[from:to] {
		p.ops += q.ops
		p.errs += q.errs
		p.fired += q.fired
		p.msgs += q.msgs
		p.elapsed += q.elapsed
		p.allocs += q.allocs
		p.gcFrac += q.gcFrac / float64(to-from)
		p.heapMB = max(p.heapMB, q.heapMB)
	}
	return p
}

func runSim(rc runConfig, info map[string]any) (result, error) {
	info["shards"] = simShards
	info["clients"] = simClients
	info["tau"] = "60s"
	info["server_service"] = "100µs"
	n := simEpisodes(rc.seconds)
	info["episodes"] = n
	info["episode_sim_time"] = simEpisode.String()
	r, err := runEpisodes(rc.seed, n)
	res := result{Correct: err == nil}
	if err != nil {
		info["violation"] = err.Error()
	}
	all := r.totals(0, len(r.phases))
	res.Attempted, res.Failed = all.ops, all.errs
	if rc.trace {
		// The simulator is measured through its own counters; the first
		// half of the episodes is the baseline the overhead is taken
		// against.
		half := len(r.phases) / 2
		base, p := r.totals(0, half), r.totals(half, len(r.phases))
		ops := float64(max(p.ops, 1))
		res.Metrics = complete(map[string]metric{
			"failed_ratio":             {float64(res.Failed) / float64(max(res.Attempted, 1)), "ratio"},
			"trace.overhead_ops_per_s": {base.opsPerSec() - p.opsPerSec(), "1/s"},
			"sim.events_per_op":        {float64(p.fired) / ops, "count"},
			"sim.ns_per_event":         {float64(p.elapsed.Nanoseconds()) / float64(max(p.fired, 1)), "ns"},
			"simnet.msgs_per_op":       {float64(p.msgs) / ops, "count"},
			"runtime.gc_cpu_fraction":  {p.gcFrac, "ratio"},
		})
		return res, nil
	}
	var rates []float64
	var lats []latency
	for _, p := range r.phases {
		ra, la := p.windowed()
		rates, lats = append(rates, ra...), append(lats, la...)
	}
	info["op_unit"] = "wall time per simulated op, one sample per 2ms slice of simulated time"
	res.Metrics = endToEndMetrics(rates, lats, info)
	res.Metrics["setup_s"] = metric{median(r.setups), "s"}
	res.Metrics["allocs_per_op"] = metric{float64(all.allocs) / float64(max(all.ops, 1)), "count"}
	res.Metrics["heap_peak_mb"] = metric{all.heapMB, "MB"}
	return res, nil
}
