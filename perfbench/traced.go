package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockstore"
	"repro/internal/client"
	"repro/internal/disk"
	"repro/internal/msg"
	"repro/internal/rpcnet"
	"repro/internal/server"
	"repro/internal/stats"
)

// The traced run assembles the same topology from each layer's own
// constructors and wraps the function values it hands them — the
// Deliver/DeliverSAN handlers, the control and SAN send functions, and
// the block store's Media — so that every control message, SAN message
// and media call becomes a span keyed by its request ID and tied to the
// op its client has in flight. Each span log is appended to by exactly
// one executor goroutine; the logs are read only after a barrier on
// every executor, so recording takes no locks.

type layer uint8

const (
	lExec       layer = iota // client executor work for the op (its start and handlers)
	lCtrlRTT                 // client: control request sent → reply delivered
	lSANRTT                  // client: SAN request sent → reply delivered
	lSrvHandle               // server: time inside Deliver
	lSrvResid                // server: request in → reply out
	lDiskHandle              // disk: time inside Deliver (media runs inline)
	lMediaWrite              // media: WriteV or Write, group commit included
	lMediaRead               // media: Read
	nLayers
)

var layerNames = [nLayers]string{"client.exec", "ctrl.rtt", "san.rtt", "server.handler",
	"server.residence", "disk.handler", "media.write", "media.read"}

type span struct {
	op         int64 // op in flight at the client the span serves (0 = none)
	start, end int64
	client     msg.NodeID
	req        msg.ReqID
	layer      layer
}

// spanLog is one executor's span log and message counters.
type spanLog struct {
	spans []span
	// client side: first-send stamps of requests awaiting replies.
	ctrlSent, sanSent map[msg.ReqID]int64
	// server side: arrival stamps of requests awaiting replies.
	arrived           map[reqKey]int64
	ctrlMsgs, sanMsgs uint64
	ctrlBytes         uint64
	curClient         msg.NodeID // disk: request being handled
	curReq            msg.ReqID
}

type reqKey struct {
	client msg.NodeID
	req    msg.ReqID
}

func newSpanLog() *spanLog {
	return &spanLog{ctrlSent: make(map[msg.ReqID]int64), sanSent: make(map[msg.ReqID]int64),
		arrived: make(map[reqKey]int64)}
}

func (l *spanLog) add(s span) { l.spans = append(l.spans, s) }

type opRec struct {
	id         int64
	start, end int64
	ok         bool
}

// tracer ties spans to ops. on gates recording to the measured window.
type tracer struct {
	on      atomic.Bool
	nextOp  atomic.Int64
	cur     []atomic.Int64 // op in flight per client index
	idx     map[msg.NodeID]int
	clients []*spanLog
	server  *spanLog
	disks   []*spanLog
	ops     [][]opRec // per client, written by that client's goroutine

	firstOp int64 // first op of the recorded window
	reg     *stats.Registry
	before  stats.Snapshot
	delta   stats.Snapshot // counter deltas over the recorded window
	fsync   fsyncTotals    // fsync count and time over the recorded window
}

func newTracer() *tracer {
	t := &tracer{cur: make([]atomic.Int64, nClients), idx: make(map[msg.NodeID]int),
		server: newSpanLog(), ops: make([][]opRec, nClients)}
	for i := 0; i < nClients; i++ {
		t.idx[clientID(i)] = i
		t.clients = append(t.clients, newSpanLog())
	}
	for range diskIDs {
		t.disks = append(t.disks, newSpanLog())
	}
	return t
}

func (t *tracer) opOf(c msg.NodeID) int64 {
	if i, ok := t.idx[c]; ok {
		return t.cur[i].Load()
	}
	return 0
}

// recording switches span recording and takes the registry's counter
// deltas over the window.
func (t *tracer) recording(on bool) {
	if on {
		t.before, t.fsync = t.reg.Snapshot(), fsyncWait(t.reg)
		t.firstOp = t.nextOp.Load() + 1
		t.on.Store(true)
		return
	}
	t.on.Store(false)
	t.delta, t.fsync = t.reg.DiffFrom(t.before), fsyncWait(t.reg).sub(t.fsync)
}

func (t *tracer) begin(ci int) { t.cur[ci].Store(t.nextOp.Add(1)) }

func (t *tracer) end(ci int, start, end int64, ok bool) {
	if t.on.Load() {
		t.ops[ci] = append(t.ops[ci], opRec{id: t.cur[ci].Load(), start: start, end: end, ok: ok})
	}
}

// wireBytes is a message's size on the wire: frame header plus the
// binary codec's body.
func wireBytes(from, to msg.NodeID, m msg.Message) uint64 {
	env := msg.Envelope{From: from, To: to, Payload: m}
	meta, tail, err := msg.BinarySize(&env)
	if err != nil {
		return 0
	}
	return uint64(13 + meta + len(tail))
}

func sanReq(m msg.Message) (msg.NodeID, msg.ReqID, bool) {
	switch m := m.(type) {
	case *msg.DiskRead:
		return m.Client, m.Req, true
	case *msg.DiskWrite:
		return m.Client, m.Req, true
	case *msg.DiskReadV:
		return m.Client, m.Req, true
	case *msg.DiskWriteV:
		return m.Client, m.Req, true
	}
	return 0, 0, false
}

func sanRes(m msg.Message) (msg.ReqID, bool) {
	switch m := m.(type) {
	case *msg.DiskReadRes:
		return m.Req, true
	case *msg.DiskWriteRes:
		return m.Req, true
	case *msg.DiskReadVRes:
		return m.Req, true
	case *msg.DiskWriteVRes:
		return m.Req, true
	}
	return 0, false
}

// --- client wrappers ---------------------------------------------------------

func (t *tracer) clientCtrlSend(id msg.NodeID, l *spanLog, send client.Sender) client.Sender {
	return func(to msg.NodeID, m msg.Message) {
		if t.on.Load() {
			l.ctrlMsgs++
			l.ctrlBytes += wireBytes(id, to, m)
			if rq, ok := m.(msg.Request); ok {
				if _, dup := l.ctrlSent[rq.Hdr().Req]; !dup {
					l.ctrlSent[rq.Hdr().Req] = nanotime()
				}
			}
		}
		send(to, m)
	}
}

func (t *tracer) clientSANSend(l *spanLog, send client.Sender) client.Sender {
	return func(to msg.NodeID, m msg.Message) {
		if t.on.Load() {
			l.sanMsgs++
			if _, req, ok := sanReq(m); ok {
				if _, dup := l.sanSent[req]; !dup {
					l.sanSent[req] = nanotime()
				}
			}
		}
		send(to, m)
	}
}

// clientDeliver wraps a client's control (san=false) or SAN handler.
func (t *tracer) clientDeliver(ci int, l *spanLog, san bool, h func(msg.Envelope)) func(msg.Envelope) {
	id := clientID(ci)
	return func(env msg.Envelope) {
		if !t.on.Load() {
			h(env)
			return
		}
		t0 := nanotime()
		op := t.cur[ci].Load()
		if san {
			if req, ok := sanRes(env.Payload); ok {
				if s, ok := l.sanSent[req]; ok {
					delete(l.sanSent, req)
					l.add(span{op: op, start: s, end: t0, client: id, req: req, layer: lSANRTT})
				}
			}
		} else if r, ok := env.Payload.(*msg.Reply); ok {
			if s, ok := l.ctrlSent[r.Req]; ok {
				delete(l.ctrlSent, r.Req)
				l.add(span{op: op, start: s, end: t0, client: id, req: r.Req, layer: lCtrlRTT})
			}
		}
		h(env)
		l.add(span{op: op, start: t0, end: nanotime(), client: id, layer: lExec})
	}
}

// await is the blocking pump of a traced client: ClientNode.Sync's, with
// the op's start on the executor recorded as client work.
func (t *tracer) await(ci int, exec *rpcnet.Executor) client.Await {
	l := t.clients[ci]
	id := clientID(ci)
	return func(start func(done func())) bool {
		ch := make(chan struct{})
		exec.Submit(func() {
			var once sync.Once
			t0 := nanotime()
			start(func() { once.Do(func() { close(ch) }) })
			if t.on.Load() {
				l.add(span{op: t.cur[ci].Load(), start: t0, end: nanotime(), client: id, layer: lExec})
			}
		})
		tm := time.NewTimer(opTimeout)
		defer tm.Stop()
		select {
		case <-ch:
			return true
		case <-tm.C:
			return false
		}
	}
}

// --- server wrappers ---------------------------------------------------------

func (t *tracer) serverDeliver(h func(msg.Envelope)) func(msg.Envelope) {
	l := t.server
	return func(env msg.Envelope) {
		if !t.on.Load() {
			h(env)
			return
		}
		t0 := nanotime()
		var req msg.ReqID
		if rq, ok := env.Payload.(msg.Request); ok {
			req = rq.Hdr().Req
			k := reqKey{env.From, req}
			if _, dup := l.arrived[k]; !dup {
				l.arrived[k] = t0
			}
		}
		h(env)
		l.add(span{op: t.opOf(env.From), start: t0, end: nanotime(), client: env.From, req: req, layer: lSrvHandle})
	}
}

func (t *tracer) serverCtrlSend(id msg.NodeID, send server.Sender) server.Sender {
	l := t.server
	return func(to msg.NodeID, m msg.Message) {
		if t.on.Load() {
			l.ctrlMsgs++
			l.ctrlBytes += wireBytes(id, to, m)
			if r, ok := m.(*msg.Reply); ok {
				k := reqKey{r.Client, r.Req}
				if a, ok := l.arrived[k]; ok {
					delete(l.arrived, k)
					l.add(span{op: t.opOf(r.Client), start: a, end: nanotime(), client: r.Client, req: r.Req, layer: lSrvResid})
				}
			}
		}
		send(to, m)
	}
}

// --- disk and media wrappers -------------------------------------------------

func (t *tracer) diskDeliver(l *spanLog, h func(msg.Envelope)) func(msg.Envelope) {
	return func(env msg.Envelope) {
		c, req, ok := sanReq(env.Payload)
		if !ok || !t.on.Load() {
			h(env)
			return
		}
		l.curClient, l.curReq = c, req
		t0 := nanotime()
		h(env)
		l.add(span{op: t.opOf(c), start: t0, end: nanotime(), client: c, req: req, layer: lDiskHandle})
		l.curClient, l.curReq = 0, 0
	}
}

// tracedMedia times every media call of one disk.
type tracedMedia struct {
	blockstore.Media
	t *tracer
	l *spanLog
}

func (m *tracedMedia) record(ly layer, t0 int64) {
	m.l.add(span{op: m.t.opOf(m.l.curClient), start: t0, end: nanotime(),
		client: m.l.curClient, req: m.l.curReq, layer: ly})
}

func (m *tracedMedia) Read(b uint64) ([]byte, uint64, bool, error) {
	if !m.t.on.Load() {
		return m.Media.Read(b)
	}
	t0 := nanotime()
	data, ver, ok, err := m.Media.Read(b)
	m.record(lMediaRead, t0)
	return data, ver, ok, err
}

func (m *tracedMedia) Write(b uint64, data []byte, ver uint64) error {
	if !m.t.on.Load() {
		return m.Media.Write(b, data, ver)
	}
	t0 := nanotime()
	err := m.Media.Write(b, data, ver)
	m.record(lMediaWrite, t0)
	return err
}

func (m *tracedMedia) WriteV(batch []blockstore.BlockWrite) []error {
	if !m.t.on.Load() {
		return m.Media.WriteV(batch)
	}
	t0 := nanotime()
	errs := m.Media.WriteV(batch)
	m.record(lMediaWrite, t0)
	return errs
}

// --- assembly ----------------------------------------------------------------

// boot builds the installation from rpcnet.New + UseExecutor,
// server.New, disk.New and client.New, with every handler, sender and
// media wrapped by t. It mirrors rpcnet's StartDiskNode, StartServerNode
// and StartClientNode, and the facade's StartClient registration wait.
func (t *tracer) boot(dir string, sp liveSpec) (*install, error) {
	reg := stats.NewRegistry()
	t.reg = reg
	cfg := protocol()
	in := &install{reg: reg}
	var execs []*rpcnet.Executor
	topo := rpcnet.Topology{Server: serverID, ServerAddr: rpcnet.Loopback(), Disks: make(map[msg.NodeID]string)}
	for i, id := range diskIDs {
		d := filepath.Join(dir, fmt.Sprintf("disk-%d", i))
		m, err := blockstore.Open(d, blockstore.Options{Blocks: sp.diskBlocks, Registry: reg,
			StatsPrefix: fmt.Sprintf("blockstore.%v.", id)})
		if err != nil {
			in.close()
			return nil, err
		}
		in.dirs = append(in.dirs, d)
		exec := rpcnet.NewExecutor()
		var dk *disk.Disk
		tr := rpcnet.New(id, nil, t.diskDeliver(t.disks[i], func(env msg.Envelope) { dk.Deliver(env) }))
		tr.UseExecutor(exec)
		dk = disk.New(id, disk.Config{Blocks: sp.diskBlocks}, tr.Clock(), tr.Send, reg, disk.Observer{},
			disk.WithMedia(&tracedMedia{Media: m, t: t, l: t.disks[i]}))
		addr, err := tr.Listen(rpcnet.Loopback())
		if err != nil {
			dk.Close()
			in.close()
			return nil, err
		}
		topo.Disks[id] = addr.String()
		go exec.Run()
		execs = append(execs, exec)
		in.closers = append(in.closers, func() {
			tr.Close()
			exec.Close()
			dk.Close()
		})
	}

	caps := make(map[msg.NodeID]uint64)
	for _, id := range diskIDs {
		caps[id] = sp.diskBlocks
	}
	sexec := rpcnet.NewExecutor()
	var srv *server.Server
	sctrl := rpcnet.New(serverID, nil, t.serverDeliver(func(env msg.Envelope) { srv.Deliver(env) }))
	ssan := rpcnet.New(serverID, topo.Disks, func(env msg.Envelope) { srv.DeliverSAN(env) })
	sctrl.UseExecutor(sexec)
	ssan.UseExecutor(sexec)
	srv = server.New(serverID, server.Config{Core: cfg, Disks: caps}, sctrl.Clock(),
		t.serverCtrlSend(serverID, sctrl.Send), ssan.Send, reg, nil)
	addr, err := sctrl.Listen(topo.ServerAddr)
	if err != nil {
		in.close()
		return nil, err
	}
	topo.ServerAddr = addr.String()
	go sexec.Run()
	execs = append(execs, sexec)
	in.closers = append(in.closers, func() {
		sctrl.Close()
		ssan.Close()
		sexec.Close()
	})

	for ci := 0; ci < nClients; ci++ {
		id := clientID(ci)
		l := t.clients[ci]
		exec := rpcnet.NewExecutor()
		var c *client.Client
		ctrl := rpcnet.New(id, map[msg.NodeID]string{serverID: topo.ServerAddr},
			t.clientDeliver(ci, l, false, func(env msg.Envelope) { c.Deliver(env) }))
		san := rpcnet.New(id, topo.Disks, t.clientDeliver(ci, l, true, func(env msg.Envelope) { c.DeliverSAN(env) }))
		ctrl.UseExecutor(exec)
		san.UseExecutor(exec)
		c = client.New(id, serverID, client.Config{Core: cfg, CacheQuota: sp.cacheQuota}, ctrl.Clock(),
			t.clientCtrlSend(id, l, ctrl.Send), t.clientSANSend(l, san.Send), nil, reg, nil)
		go exec.Run()
		execs = append(execs, exec)
		in.closers = append(in.closers, func() {
			ctrl.Close()
			san.Close()
			exec.Close()
		})
		ready := make(chan struct{})
		exec.Submit(func() {
			c.OnRecovered = func(msg.Epoch) {
				c.OnRecovered = nil
				close(ready)
			}
			c.Start()
		})
		select {
		case <-ready:
		case <-time.After(30 * time.Second):
			in.close()
			return nil, fmt.Errorf("client %v got no lease within 30s", id)
		}
		in.clients = append(in.clients, client.NewSync(c, t.await(ci, exec)))
	}
	// Closers run last-first: the barrier precedes every shutdown.
	in.closers = append(in.closers, func() { t.barrier(execs) })
	return in, nil
}

// barrier stops recording and waits until every executor has finished
// the tasks queued before it, after which the span logs are stable.
func (t *tracer) barrier(execs []*rpcnet.Executor) {
	t.on.Store(false)
	for _, e := range execs {
		ch := make(chan struct{})
		e.Submit(func() { close(ch) })
		select {
		case <-ch:
		case <-time.After(opTimeout):
		}
	}
}

// --- the traced run ----------------------------------------------------------

// runTraced measures half the run untraced (for the per-kind latencies
// and the overhead baseline) and half traced, each on a fresh
// installation, and reports the per-layer metrics.
func runTraced(w liveWorkload, rc runConfig, info map[string]any) (result, error) {
	sp := w.spec()
	half := secondsDur(rc.seconds / 2)
	in, o, _, err := setupLive(w, filepath.Join(rc.scratch, "untraced"), bootFacade)
	if err != nil {
		return result{}, err
	}
	base := measure(in, w, o, rc.seed, half, nil)
	res := liveResult(base, finish(in, o, sp), info)
	in.close()

	t := newTracer()
	in, o, _, err = setupLive(w, filepath.Join(rc.scratch, "traced"), t.boot)
	if err != nil {
		return result{}, err
	}
	traced := measure(in, w, o, rc.seed, half, t)
	tres := liveResult(traced, finish(in, o, sp), info)
	leaseBytes := in.reg.Gauge("server.lease_state_bytes").Max()
	res.Correct = res.Correct && tres.Correct
	res.Attempted += tres.Attempted
	res.Failed += tres.Failed

	m := perKind(base)
	m["failed_ratio"] = metric{float64(res.Failed) / float64(max(res.Attempted, 1)), "ratio"}
	m["trace.overhead_ops_per_s"] = metric{base.opsPerSec() - traced.opsPerSec(), "1/s"}
	m["runtime.gc_cpu_fraction"] = metric{traced.gcFrac, "ratio"}
	for k, v := range t.layerMetrics(traced, float64(leaseBytes)) {
		m[k] = v
	}
	res.Metrics = complete(m)
	if err := t.writeSpans(rc); err != nil {
		return result{}, err
	}
	return res, nil
}

// perKind reports per-kind client latencies of an untraced phase.
func perKind(p phase) map[string]metric {
	m := map[string]metric{"op.p99_us": {summarize(p.latencies(kRead, kWrite, kSync, kMeta)).TailUs, "us"}}
	for k := opKind(0); k < nKinds; k++ {
		l := summarize(p.latencies(k))
		m[kindNames[k]+".p50_us"] = metric{l.P50us, "us"}
		m[kindNames[k]+".p99_us"] = metric{l.TailUs, "us"}
		m[kindNames[k]+".samples"] = metric{float64(l.N), "count"}
	}
	return m
}

type fsyncTotals struct {
	n   uint64
	sum time.Duration
}

func (a fsyncTotals) sub(b fsyncTotals) fsyncTotals { return fsyncTotals{a.n - b.n, a.sum - b.sum} }

func fsyncWait(reg *stats.Registry) fsyncTotals {
	var f fsyncTotals
	for _, id := range diskIDs {
		h := reg.Histogram(fmt.Sprintf("blockstore.%v.fsync_wait", id))
		f.n += h.Count()
		f.sum += h.Sum()
	}
	return f
}

func sumSuffix(d stats.Snapshot, suffix string) float64 {
	var n uint64
	for k, v := range d {
		if strings.HasSuffix(k, suffix) {
			n += v
		}
	}
	return float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func p50us(ns []int64) float64 { return summarize(ns).P50us }

// layerMetrics turns the span logs and counter deltas of the traced
// phase into the per-layer metrics.
func (t *tracer) layerMetrics(p phase, leaseBytes float64) map[string]metric {
	d, fs := t.delta, t.fsync
	ops := float64(p.completed())
	var syncs float64
	for _, r := range p.runners {
		syncs += float64(len(r.lat[kSync]))
	}
	durs := func(logs []*spanLog, ly layer) []int64 {
		var v []int64
		for _, l := range logs {
			for _, s := range l.spans {
				if s.layer == ly {
					v = append(v, s.end-s.start)
				}
			}
		}
		return v
	}
	// transit joins a client RTT with the far end's time on the request.
	transit := func(rtt layer, far []*spanLog, farLayer layer) []int64 {
		farDur := make(map[reqKey]int64)
		for _, l := range far {
			for _, s := range l.spans {
				if s.layer == farLayer {
					k := reqKey{s.client, s.req}
					if _, dup := farDur[k]; !dup {
						farDur[k] = s.end - s.start
					}
				}
			}
		}
		var v []int64
		for _, l := range t.clients {
			for _, s := range l.spans {
				if s.layer != rtt {
					continue
				}
				if f, ok := farDur[reqKey{s.client, s.req}]; ok {
					v = append(v, s.end-s.start-f)
				}
			}
		}
		return v
	}
	self, unattributed, total := t.ledger()
	var ctrlMsgs, sanMsgs, ctrlBytes float64
	for _, l := range t.clients {
		ctrlMsgs += float64(l.ctrlMsgs)
		sanMsgs += float64(l.sanMsgs)
		ctrlBytes += float64(l.ctrlBytes)
	}
	ctrlBytes += float64(t.server.ctrlBytes)
	hits, misses := sumSuffix(d, ".cache.hits"), sumSuffix(d, ".cache.misses")
	pfHits, pfWasted := sumSuffix(d, ".cache.prefetch_hits"), sumSuffix(d, ".cache.prefetch_wasted")
	periods := p.elapsed.Seconds() / tau.Seconds()
	m := map[string]metric{
		"client.self_us":              {p50us(self), "us"},
		"client.ctrl_per_op":          {ratio(ctrlMsgs, ops), "count"},
		"client.san_per_op":           {ratio(sanMsgs, ops), "count"},
		"cache.hit_ratio":             {ratio(hits, hits+misses), "ratio"},
		"cache.evictions_per_op":      {ratio(sumSuffix(d, ".cache.evictions"), ops), "count"},
		"cache.invalidations_per_op":  {ratio(sumSuffix(d, ".cache.invalidations"), ops), "count"},
		"cache.prefetch_useful_ratio": {ratio(pfHits, pfHits+pfWasted), "ratio"},
		"core.keepalives_per_tau":     {ratio(sumSuffix(d, ".lease.keepalives"), periods*nClients), "count"},
		"server.lease_state_bytes":    {leaseBytes, "bytes"},
		"server.handler_us":           {p50us(durs([]*spanLog{t.server}, lSrvHandle)), "us"},
		"server.residence_us":         {p50us(durs([]*spanLog{t.server}, lSrvResid)), "us"},
		"server.demands_per_op":       {ratio(float64(d["server.demands_sent"]), ops), "count"},
		"rpcnet.ctrl_rtt_us":          {p50us(durs(t.clients, lCtrlRTT)), "us"},
		"rpcnet.ctrl_transit_us":      {p50us(transit(lCtrlRTT, []*spanLog{t.server}, lSrvResid)), "us"},
		"rpcnet.ctrl_bytes_per_op":    {ratio(ctrlBytes, ops), "bytes"},
		"rpcnet.san_rtt_us":           {p50us(durs(t.clients, lSANRTT)), "us"},
		"rpcnet.san_transit_us":       {p50us(transit(lSANRTT, t.disks, lDiskHandle)), "us"},
		"disk.handler_us":             {p50us(durs(t.disks, lDiskHandle)), "us"},
		"disk.blocks_per_batch":       {ratio(sumSuffix(d, ".batched_blocks"), sumSuffix(d, ".batched_ops")), "count"},
		"blockstore.writev_us":        {p50us(durs(t.disks, lMediaWrite)), "us"},
		"blockstore.fsync_us":         {ratio(float64(fs.sum.Microseconds()), float64(fs.n)), "us"},
		"blockstore.fsyncs_per_sync":  {ratio(sumSuffix(d, ".fsyncs"), syncs), "count"},
		"blockstore.read_us":          {p50us(durs(t.disks, lMediaRead)), "us"},
		"ledger.unattributed_share":   {ratio(float64(unattributed), float64(total)), "ratio"},
	}
	return m
}

// ledger walks every op of the traced window: self is each op's client
// executor time; unattributed sums the op time that no client-side span
// (executor work, control or SAN round trip) covers.
func (t *tracer) ledger() (self []int64, unattributed, total int64) {
	for ci, l := range t.clients {
		byOp := make(map[int64][]span)
		for _, s := range l.spans {
			byOp[s.op] = append(byOp[s.op], s)
		}
		for _, o := range t.ops[ci] {
			if !o.ok {
				continue
			}
			ss := byOp[o.id]
			sort.Slice(ss, func(i, j int) bool { return ss[i].start < ss[j].start })
			var own, covered int64
			cur := o.start
			for _, s := range ss {
				a, b := max(s.start, o.start), min(s.end, o.end)
				if a >= b {
					continue
				}
				if s.layer == lExec {
					own += b - a
				}
				if b > cur {
					covered += b - max(a, cur)
					cur = b
				}
			}
			self = append(self, own)
			total += o.end - o.start
			unattributed += o.end - o.start - covered
		}
	}
	return self, unattributed, total
}

// spanFileOps bounds the span file to the first ops of the traced
// window (about 20 MB); the metrics use every span.
const spanFileOps = 50000

// writeSpans writes the spans of the traced window's first spanFileOps
// ops, one CSV line each, to <rc.spans>/<workload>.csv.
func (t *tracer) writeSpans(rc runConfig) (err error) {
	if err := os.MkdirAll(rc.spans, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(rc.spans, rc.workload+".csv"))
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, f.Close()) }()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "node,layer,op,client,req,start_ns,end_ns")
	emit := func(node string, l *spanLog) {
		for _, s := range l.spans {
			if s.op >= t.firstOp && s.op < t.firstOp+spanFileOps {
				fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d,%d\n", node, layerNames[s.layer], s.op, s.client, s.req, s.start, s.end)
			}
		}
	}
	for ci, l := range t.clients {
		emit(fmt.Sprint(clientID(ci)), l)
	}
	emit(fmt.Sprint(serverID), t.server)
	for i, l := range t.disks {
		emit(fmt.Sprint(diskIDs[i]), l)
	}
	return w.Flush()
}
