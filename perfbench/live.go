package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	storagetank "repro"
	"repro/internal/msg"
)

// The live installation: one lease authority, two disk nodes on
// file-backed media with fsync on, and two clients, all over loopback
// TCP in this process.
const (
	serverID  storagetank.NodeID = 1
	nClients                     = 2
	opTimeout                    = 5 * time.Second
	// tau is short enough that every measured run spans several lease
	// periods, so the lease's background cost (keep-alives, renewals) is
	// inside the measurement. Every other protocol and flush setting is
	// left at its default.
	tau = 2 * time.Second
)

var diskIDs = []storagetank.NodeID{1000, 1001}

func clientID(i int) storagetank.NodeID { return storagetank.NodeID(10 + i) }

func protocol() storagetank.Config {
	cfg := storagetank.DefaultConfig()
	cfg.Tau = tau
	return cfg
}

// liveSpec sizes an installation for one workload.
type liveSpec struct {
	diskBlocks uint64
	cacheQuota int64 // bytes per client; 0 = unbounded (the default)
}

// install is a booted installation as the workloads see it: one
// blocking client surface per client node.
type install struct {
	clients []*storagetank.SyncClient
	// handles and dirInos are per client, filled by the workload's
	// populate step.
	handles [][]storagetank.Handle
	dirInos [][]msg.ObjectID
	reg     *storagetank.StatsRegistry
	dirs    []string
	closers []func()
	closed  bool
}

// close shuts every node down, clients first and disks last.
func (in *install) close() {
	if in.closed {
		return
	}
	in.closed = true
	for i := len(in.closers) - 1; i >= 0; i-- {
		in.closers[i]()
	}
}

// remove closes the installation and deletes its media.
func (in *install) remove() error {
	in.close()
	var err error
	for _, d := range in.dirs {
		err = errors.Join(err, os.RemoveAll(d))
	}
	return err
}

// bootFacade starts the installation through the root package's
// exported surface.
func bootFacade(dir string, sp liveSpec) (*install, error) {
	in := &install{reg: storagetank.NewStatsRegistry()}
	common := []storagetank.Option{
		storagetank.WithProtocol(protocol()),
		storagetank.WithDiskBlocks(sp.diskBlocks),
		storagetank.WithRegistry(in.reg),
	}
	topo := storagetank.Topology{Server: serverID, ServerAddr: storagetank.Loopback(),
		Disks: make(map[storagetank.NodeID]string)}
	for i, id := range diskIDs {
		d := filepath.Join(dir, fmt.Sprintf("disk-%d", i))
		m, err := storagetank.OpenFileMedia(d, storagetank.MediaOptions{Blocks: sp.diskBlocks})
		if err != nil {
			in.close()
			return nil, err
		}
		in.dirs = append(in.dirs, d)
		topo.Disks[id] = storagetank.Loopback()
		dn, err := storagetank.StartDisk(storagetank.NodeSpec{ID: id, Topo: topo},
			append(common, storagetank.WithMedia(m))...)
		if err != nil {
			m.Close()
			in.close()
			return nil, err
		}
		topo.Disks[id] = dn.Addr.String()
		in.closers = append(in.closers, dn.Close)
	}
	srv, err := storagetank.StartServer(storagetank.NodeSpec{ID: serverID, Topo: topo}, nil, common...)
	if err != nil {
		in.close()
		return nil, err
	}
	in.closers = append(in.closers, srv.Close)
	topo.ServerAddr = srv.Addr.String()
	for i := 0; i < nClients; i++ {
		cn, err := storagetank.StartClient(storagetank.NodeSpec{ID: clientID(i), Topo: topo},
			append(common, storagetank.WithCacheQuota(sp.cacheQuota))...)
		if err != nil {
			in.close()
			return nil, err
		}
		in.closers = append(in.closers, cn.Close)
		in.clients = append(in.clients, cn.Sync(opTimeout))
	}
	return in, nil
}

// opKind classifies client-visible calls.
type opKind int

const (
	kRead opKind = iota
	kWrite
	kSync
	kMeta
	nKinds
)

var kindNames = [nKinds]string{"read", "write", "sync", "meta"}

// opHook observes each op of a client; the traced run uses it to tie
// spans to the op in flight.
type opHook interface {
	// recording switches span recording on for the measured window.
	recording(on bool)
	begin(ci int)
	end(ci int, start, end int64, ok bool)
}

// opRunner times one client's ops and counts every attempt.
type opRunner struct {
	ci        int
	hook      opHook
	lat       [nKinds][]int64 // latency of each completed op
	at        [nKinds][]int64 // and when it completed (nanotime)
	attempted uint64
	failed    uint64
	firstErr  error
}

// do runs one client-visible call. A failed or timed-out call is counted
// against attempted and never dropped; its latency is not sampled.
func (r *opRunner) do(k opKind, f func() error) error {
	if r.hook != nil {
		r.hook.begin(r.ci)
	}
	t0 := nanotime()
	err := f()
	t1 := nanotime()
	if r.hook != nil {
		r.hook.end(r.ci, t0, t1, err == nil)
	}
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = fmt.Errorf("%s: %w", kindNames[k], err)
		}
		return err
	}
	r.lat[k] = append(r.lat[k], t1-t0)
	r.at[k] = append(r.at[k], t1)
	return nil
}

// driver generates and issues one client's closed-loop ops. step returns
// a correctness violation, never an op failure (those go to the runner).
type driver interface {
	step(r *opRunner) error
}

// liveWorkload is one traffic mix over the live installation.
type liveWorkload interface {
	spec() liveSpec
	// populate builds the workload's starting state; it is part of
	// set-up.
	populate(in *install, o *oracle) error
	driver(ci int, in *install, o *oracle, seed int64) driver
}

// phase is the outcome of one measured phase.
type phase struct {
	start     int64 // nanotime
	elapsed   time.Duration
	runners   []*opRunner
	warm      []*opRunner // the untimed warm-up's ops
	violation error
	allocs    uint64
	gcFrac    float64
	heapMB    float64
}

func (p phase) completed() uint64 {
	var n uint64
	for _, r := range p.runners {
		n += r.attempted - r.failed
	}
	return n
}

func (p phase) opsPerSec() float64 { return float64(p.completed()) / p.elapsed.Seconds() }

// window is the unit the end-to-end figures are taken over: each is the
// median across the run's whole windows, so a stall in one window moves
// it by at most one rank.
const window = time.Second

// windowed returns, per whole window of the phase, completed ops per
// second and the latency summary of the given kinds.
func (p phase) windowed(kinds ...opKind) (rates []float64, lats []latency) {
	n := int(p.elapsed / window)
	per := make([][]int64, n)
	for _, r := range p.runners {
		for _, k := range kinds {
			for i, t := range r.at[k] {
				if w := int((t - p.start) / int64(window)); w < n {
					per[w] = append(per[w], r.lat[k][i])
				}
			}
		}
	}
	for _, v := range per {
		rates = append(rates, float64(len(v))/window.Seconds())
		lats = append(lats, summarize(v))
	}
	return rates, lats
}

func (p phase) latencies(kinds ...opKind) []int64 {
	var all []int64
	for _, r := range p.runners {
		for _, k := range kinds {
			all = append(all, r.lat[k]...)
		}
	}
	return all
}

// warmup runs before every measured phase, untimed, so that the
// first window does not pay for filling caches and lock state.
const warmup = time.Second

// measure drives every client closed-loop — one goroutine per client,
// one op outstanding, no think time — for warmup and then d, timing
// only d. Ops of the warm-up count as attempted (and failed) but are not
// sampled.
func measure(in *install, w liveWorkload, o *oracle, seed int64, d time.Duration, hook opHook) phase {
	p := phase{runners: make([]*opRunner, len(in.clients))}
	warm := make([]*opRunner, len(in.clients))
	drivers := make([]driver, len(in.clients))
	for ci := range in.clients {
		p.runners[ci] = &opRunner{ci: ci, hook: hook}
		warm[ci] = &opRunner{ci: ci}
		drivers[ci] = w.driver(ci, in, o, seed)
	}
	p.violation = drive(drivers, warm, time.Now().Add(warmup))
	heap := startHeapSampler()
	rt := readRuntime()
	if hook != nil {
		hook.recording(true)
	}
	start := time.Now()
	p.start = nanotime()
	if p.violation == nil {
		p.violation = drive(drivers, p.runners, start.Add(d))
	}
	p.elapsed = time.Since(start)
	if hook != nil {
		hook.recording(false)
	}
	p.allocs, p.gcFrac = rt.since()
	p.heapMB = heap.Stop()
	p.warm = warm
	return p
}

// drive runs every driver on its own goroutine until deadline and
// returns the correctness violations they found.
func drive(drivers []driver, runners []*opRunner, deadline time.Time) error {
	violations := make([]error, len(drivers))
	var wg sync.WaitGroup
	for ci := range drivers {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if err := drivers[ci].step(runners[ci]); err != nil {
					violations[ci] = err
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	return errors.Join(violations...)
}

// finish makes everything durable, shuts the installation down, and
// runs the durability half of the correctness gate on reopened media.
func finish(in *install, o *oracle, sp liveSpec) error {
	var err error
	for ci, c := range in.clients {
		if e := c.SyncAll(); e != nil {
			err = errors.Join(err, fmt.Errorf("final sync of client %d: %w", ci, e))
		}
	}
	if g := in.reg.Gauge("server.lease_state_bytes").Max(); g != 0 {
		err = errors.Join(err, fmt.Errorf("server kept %d bytes of per-client lease state", g))
	}
	in.close()
	if err != nil {
		return err
	}
	var stores []storagetank.Media
	defer func() {
		for _, m := range stores {
			m.Close()
		}
	}()
	for _, d := range in.dirs {
		m, err := storagetank.OpenFileMedia(d, storagetank.MediaOptions{Blocks: sp.diskBlocks})
		if err != nil {
			return fmt.Errorf("reopen %s: %w", d, err)
		}
		stores = append(stores, m)
	}
	return o.checkDurable(stores, sp.diskBlocks)
}

// setupLive boots and populates an installation, returning the time it
// took up to the first timed op.
func setupLive(w liveWorkload, dir string, boot bootFunc) (*install, *oracle, time.Duration, error) {
	t0 := time.Now()
	in, err := boot(dir, w.spec())
	if err != nil {
		return nil, nil, 0, fmt.Errorf("boot: %w", err)
	}
	in.handles = make([][]storagetank.Handle, len(in.clients))
	in.dirInos = make([][]msg.ObjectID, len(in.clients))
	o := newOracle()
	if err := w.populate(in, o); err != nil {
		return nil, nil, 0, errors.Join(fmt.Errorf("populate: %w", err), in.remove())
	}
	d := time.Since(t0)
	// Set-up garbage (populate's flush buffers, earlier installations)
	// is collected before the first timed op, outside setup_s.
	runtime.GC()
	return in, o, d, nil
}

type bootFunc func(dir string, sp liveSpec) (*install, error)

func liveRunner(w liveWorkload) workloadRunner {
	return func(rc runConfig, info map[string]any) (result, error) {
		sp := w.spec()
		info["tau"] = tau.String()
		info["flush"] = "client defaults: FlushBatch 32, no periodic flush, read-ahead 3"
		info["cache_quota_bytes"] = sp.cacheQuota
		info["clients"] = nClients
		info["disks"] = len(diskIDs)
		if rc.trace {
			return runTraced(w, rc, info)
		}
		var setups []float64
		var in *install
		var o *oracle
		for i := 0; moreSetups(setups); i++ {
			if in != nil {
				if err := in.remove(); err != nil {
					return result{}, err
				}
			}
			var d time.Duration
			var err error
			in, o, d, err = setupLive(w, filepath.Join(rc.scratch, fmt.Sprint("setup-", i)), bootFacade)
			if err != nil {
				return result{}, err
			}
			setups = append(setups, d.Seconds())
		}
		p := measure(in, w, o, rc.seed, secondsDur(rc.seconds), nil)
		res := liveResult(p, finish(in, o, sp), info)
		rates, lats := p.windowed(kRead, kWrite, kSync, kMeta)
		res.Metrics = endToEndMetrics(rates, lats, info)
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["allocs_per_op"] = metric{float64(p.allocs) / float64(max(p.completed(), 1)), "count"}
		res.Metrics["heap_peak_mb"] = metric{p.heapMB, "MB"}
		info["op_samples"] = len(p.latencies(kRead, kWrite, kSync, kMeta))
		info["setups"] = len(setups)
		return res, nil
	}
}

// liveResult fills the correctness and failure accounting of a live
// phase whose installation finish has closed.
func liveResult(p phase, finishErr error, info map[string]any) result {
	res := result{Correct: true}
	for _, r := range append(p.warm, p.runners...) {
		res.Attempted += r.attempted
		res.Failed += r.failed
		if k := fmt.Sprintf("client%d_first_failure", r.ci); r.firstErr != nil && info[k] == nil {
			info[k] = r.firstErr.Error()
		}
	}
	if err := errors.Join(p.violation, finishErr); err != nil {
		res.Correct = false
		if prev, ok := info["violation"].(string); ok {
			info["violation"] = prev + "; " + err.Error()
		} else {
			info["violation"] = err.Error()
		}
	}
	return res
}

// endToEndMetrics takes the per-window figures' medians.
func endToEndMetrics(rates []float64, lats []latency, info map[string]any) map[string]metric {
	var p50, p90 []float64
	for _, l := range lats {
		p50 = append(p50, l.P50us)
		p90 = append(p90, l.P90us)
	}
	rounded := make([]int64, len(rates))
	for i, r := range rates {
		rounded[i] = int64(r + 0.5)
	}
	info["window_ops_per_s"] = rounded
	return map[string]metric{
		"ops_per_s": {median(rates), "1/s"},
		"op.p50_us": {median(p50), "us"},
		"op.p90_us": {median(p90), "us"},
	}
}

// moreSetups reports whether set-up should run again: setup_s is the
// median of at least 3 set-ups, and of up to 25 while they have taken
// less than 3 seconds in all, so that cheap set-ups are timed often
// enough for a steady median.
func moreSetups(done []float64) bool {
	var total float64
	for _, d := range done {
		total += d
	}
	return len(done) < 3 || (len(done) < 25 && total < 3)
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
