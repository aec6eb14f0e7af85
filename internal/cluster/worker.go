package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"embera/internal/core"
	"embera/internal/monitor"
	"embera/internal/native"
	"embera/internal/wire"
)

// workerConfig is the JSON handed to each re-exec'd worker through the
// EMBERA_CLUSTER_CONFIG file: everything a process needs to rebuild the
// assembly deterministically and run its shard.
type workerConfig struct {
	Addr         string        `json:"addr"`
	Shard        int           `json:"shard"`
	Workers      int           `json:"workers"`
	Locations    int           `json:"locations"`
	AppName      string        `json:"app_name"`
	Workload     string        `json:"workload"`
	Scale        int           `json:"scale"`
	MessageBytes int           `json:"message_bytes"`
	StreamPath   string        `json:"stream_path,omitempty"`
	HorizonUS    int64         `json:"horizon_us"`
	MonLevels    []workerLevel `json:"mon_levels,omitempty"`
	MonWindowUS  int64         `json:"mon_window_us,omitempty"`

	MonRingCapacity int     `json:"mon_ring_capacity,omitempty"`
	MonOverheadPct  float64 `json:"mon_overhead_pct,omitempty"`
}

type workerLevel struct {
	Level    int   `json:"level"`
	PeriodUS int64 `json:"period_us"`
}

// MaybeWorkerMain turns the current process into a cluster shard worker
// when it was re-exec'd as one (the -cluster-worker argv marker plus the
// EMBERA_CLUSTER_CONFIG environment variable). It never returns in that
// case; in a normal invocation it is a no-op. Call it first thing in main
// (and in TestMain of packages whose tests run cluster cells), before flag
// parsing.
func MaybeWorkerMain() {
	isWorker := false
	for _, a := range os.Args[1:] {
		if a == "-cluster-worker" {
			isWorker = true
			break
		}
	}
	path := os.Getenv(ConfigEnv)
	if !isWorker && path == "" {
		return
	}
	if path == "" {
		fmt.Fprintln(os.Stderr, "cluster worker: "+ConfigEnv+" not set")
		os.Exit(2)
	}
	os.Exit(workerMain(path))
}

// linkTransport is the sending half of a cross-shard edge: core.Ctx.Send
// dispatches here instead of the (external) consumer's local mailbox, and
// the frame goes straight to the consuming worker over their link. The
// write blocks while the link is full, which is the only backpressure a
// remote edge applies to its producer. A payload that cannot be encoded
// fails the worker, naming the edge and the cause. A frame the link refuses
// because the consuming worker is gone is counted lost and the send reports
// done, so the producer runs on and the run fails naming the dead worker.
type linkTransport struct {
	link  *wire.Conn
	edge  edge
	count *edgeCount
	fault *fault
}

func (t *linkTransport) Send(f core.Flow, m core.Message) bool {
	fr := wire.Frame{
		Type: wire.TypeData, Edge: uint32(t.edge.id),
		Bytes: int64(m.Bytes), From: m.From, Payload: m.Payload,
	}
	err := t.link.WriteFrame(&fr)
	var werr *wire.WriteError
	switch {
	case err == nil:
		t.count.sent.Add(1)
	case errors.As(err, &werr):
		t.count.lost.Add(1)
	default:
		t.fault.report(fmt.Errorf("sending on %v: %w", t.edge, err))
		return false
	}
	return true
}

func (t *linkTransport) CloseProducer() {
	_ = t.link.WriteFrame(&wire.Frame{Type: wire.TypeEdgeClose, Edge: uint32(t.edge.id)})
}

// edgeCount is a worker's side of one cross-shard edge's ledger: the data
// frames its producer wrote and lost, or its consumer read.
type edgeCount struct {
	sent, lost, received atomic.Uint64
}

// fault is a worker's first data-path failure. Reporting it sends the
// coordinator an error frame, which fails the run with the error named,
// and halts the local run so the worker exits instead of running on with a
// message lost.
type fault struct {
	wc   *wire.Conn
	halt func()

	mu  sync.Mutex
	err error
}

func (f *fault) report(err error) {
	f.mu.Lock()
	first := f.err == nil
	if first {
		f.err = err
	}
	f.mu.Unlock()
	if first {
		_ = f.wc.WriteFrame(&wire.Frame{Type: wire.TypeError, Name: err.Error()})
		f.halt()
	}
}

func (f *fault) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// shardWorker is one worker process's run of its shard.
type shardWorker struct {
	cfg   workerConfig
	app   *core.App
	nm    *native.Machine
	comps []*core.Component
	edges []edge
	flt   *fault

	// Per edge, indexed by edge id: the ledger of every cross-shard edge
	// this shard touches, and the injection queue of every one it consumes.
	counts []edgeCount
	inQ    []*msgQueue
	// inbound gauges the frames waiting in the injection queues.
	inbound depthGauge
}

func workerMain(cfgPath string) int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "cluster worker: %v\n", err)
		return 1
	}
	js, err := os.ReadFile(cfgPath)
	if err != nil {
		return fail(err)
	}
	var cfg workerConfig
	if err := json.Unmarshal(js, &cfg); err != nil {
		return fail(err)
	}

	nc, err := net.DialTimeout("unix", cfg.Addr, 10*time.Second)
	if err != nil {
		return fail(fmt.Errorf("dialing coordinator: %w", err))
	}
	wc := wire.NewConn(nc)
	defer wc.Close()
	if err := wc.WriteFrame(&wire.Frame{Type: wire.TypeHello, Shard: uint32(cfg.Shard)}); err != nil {
		return fail(err)
	}
	// After the hello, failures travel to the coordinator as error frames
	// so the run surfaces them instead of timing out.
	failWire := func(err error) int {
		_ = wc.WriteFrame(&wire.Frame{Type: wire.TypeError, Name: err.Error()})
		return fail(err)
	}

	// The links to every peer worker, inherited from the coordinator.
	links := make([]*wire.Conn, cfg.Workers)
	for p := range links {
		if p == cfg.Shard {
			continue
		}
		l, err := wire.FileConn(os.NewFile(linkFD(cfg.Shard, p), fmt.Sprintf("link to worker %d", p)))
		if err != nil {
			return failWire(err)
		}
		defer l.Close()
		links[p] = l
	}

	if buildFn == nil {
		return failWire(fmt.Errorf("no workload builder registered"))
	}
	var stream []byte
	if cfg.StreamPath != "" {
		if stream, err = os.ReadFile(cfg.StreamPath); err != nil {
			return failWire(err)
		}
	}

	b := &binding{
		nat: native.NewBinding(cfg.Locations), multi: true,
		localShard: cfg.Shard, shards: cfg.Workers,
	}
	app := core.NewApp(cfg.AppName, b)
	nm := native.NewMachine(b.nat, app)

	inst, err := buildFn(app, cfg.Workload, cfg.Scale, cfg.MessageBytes, stream)
	if err != nil {
		return failWire(fmt.Errorf("rebuilding workload %q: %w", cfg.Workload, err))
	}

	comps := app.Components()
	var local []*core.Component
	for _, c := range comps {
		if ShardOf(c.Name(), cfg.Workers) == cfg.Shard {
			local = append(local, c)
		} else {
			c.SetExternal(true)
		}
	}

	edges := edgeTable(app)
	w := &shardWorker{
		cfg: cfg, app: app, nm: nm, comps: comps, edges: edges,
		counts: make([]edgeCount, len(edges)),
		inQ:    make([]*msgQueue, len(edges)),
	}
	// halt interrupts the local run and releases everything that waits on
	// another process, so the worker exits instead of hanging.
	halt := func() {
		nm.Interrupt()
		for _, c := range comps {
			app.FinishExternal(c)
		}
		for _, q := range w.inQ {
			if q != nil {
				q.shut()
			}
		}
	}
	w.flt = &fault{wc: wc, halt: halt}

	// Cross-shard wiring: transports carry local producers' sends out over
	// the consuming worker's link; per-edge injection queues carry remote
	// producers' messages in.
	for _, e := range edges {
		src := ShardOf(e.from.Name(), cfg.Workers)
		dst := ShardOf(e.to.Name(), cfg.Workers)
		switch {
		case src == cfg.Shard && dst != cfg.Shard:
			t := &linkTransport{link: links[dst], edge: e, count: &w.counts[e.id], fault: w.flt}
			if err := app.BindTransport(e.from, e.fromIface, t); err != nil {
				return failWire(err)
			}
		case dst == cfg.Shard && src != cfg.Shard:
			w.inQ[e.id] = newMsgQueue(&w.inbound)
		}
	}

	// The final reports leave on the goroutine that finishes the last
	// local component — after its edge-close frames, before the goodbye.
	var reportOnce sync.Once
	sendReports := func() {
		reportOnce.Do(func() {
			reps := make(map[string]core.ObsReport, len(local))
			for _, c := range local {
				reps[c.Name()] = c.Snapshot(core.LevelAll)
			}
			depth, peak := w.inbound.depth()
			_ = wc.WriteFrame(&wire.Frame{
				Type: wire.TypeReports, Shard: uint32(cfg.Shard),
				Units: int64(inst.Units()), Checksum: inst.Checksum(),
				Ledger: w.ledger(), Inbound: depth, InboundPeak: peak,
				Reports: reps,
			})
		})
	}
	lc := &localCounter{done: sendReports}
	lc.n.Store(int64(len(local)))
	b.onDone = func(*core.Component) { lc.dec() }

	var mon *monitor.Monitor
	if len(cfg.MonLevels) > 0 {
		mcfg := monitor.Config{
			WindowUS:          cfg.MonWindowUS,
			RingCapacity:      cfg.MonRingCapacity,
			OverheadBudgetPct: cfg.MonOverheadPct,
			Sinks:             []monitor.Sink{wire.NewWindowSink(wc, cfg.Shard)},
		}
		for _, lp := range cfg.MonLevels {
			mcfg.Levels = append(mcfg.Levels, monitor.LevelPeriod{
				Level: core.ObsLevel(lp.Level), PeriodUS: lp.PeriodUS,
			})
		}
		if mon, err = monitor.New(app, mcfg); err != nil {
			return failWire(err)
		}
		if err := mon.Start(); err != nil {
			return failWire(err)
		}
	}

	if err := app.Start(); err != nil {
		return failWire(err)
	}

	for id, q := range w.inQ {
		if q != nil {
			go w.inject(edges[id], q)
		}
	}
	for p, l := range links {
		if l != nil {
			go w.readLink(p, l)
		}
	}
	go w.readControl(wc)

	if len(local) == 0 {
		// An empty shard reports immediately: zero partials, no reports.
		sendReports()
	}

	if err := nm.Run(cfg.HorizonUS); err != nil {
		return failWire(err)
	}
	if err := w.flt.get(); err != nil {
		return fail(err)
	}
	if err := wc.WriteFrame(&wire.Frame{Type: wire.TypeBye}); err != nil {
		return fail(err)
	}
	return 0
}

// ledger reports this shard's count of every cross-shard edge it produces
// or consumes on.
func (w *shardWorker) ledger() []wire.EdgeCount {
	var out []wire.EdgeCount
	for _, e := range w.edges {
		src := ShardOf(e.from.Name(), w.cfg.Workers)
		dst := ShardOf(e.to.Name(), w.cfg.Workers)
		if src == dst || (src != w.cfg.Shard && dst != w.cfg.Shard) {
			continue
		}
		c := &w.counts[e.id]
		out = append(out, wire.EdgeCount{
			Edge: uint32(e.id), Sent: c.sent.Load(), Lost: c.lost.Load(), Received: c.received.Load(),
		})
	}
	return out
}

// inject drains one in-edge's queue into its consumer's mailbox, where the
// messages feel local backpressure, and releases the remote producer when
// the edge closes.
func (w *shardWorker) inject(e edge, q *msgQueue) {
	for {
		im, ok := q.pop()
		if !ok {
			return
		}
		if im.closeIt {
			_ = w.app.ReleaseProducer(e.to, e.toIface)
			return
		}
		_, _ = w.app.Inject(stubFlow{}, e.to, e.toIface, core.Message{
			Payload: im.payload, Bytes: int(im.bytes), From: im.from,
		})
	}
}

// readLink consumes the link from worker peer. It blocks on nothing but
// the socket: each data frame is decoded and queued for its edge's
// injector, however full the consumer's mailbox is, so the peer's writes
// always drain and no cycle of blocked writers can form across the fleet.
// A payload that fails to decode is this worker's fault, named with its
// edge. When the link ends — the peer exited or died, or its stream broke —
// every in-edge the peer left open is closed, once, so its consumer drains
// instead of waiting forever; on a clean run the ledger then shows any
// frame that never arrived.
func (w *shardWorker) readLink(peer int, link *wire.Conn) {
	open := make(map[uint32]bool)
	for _, e := range w.edges {
		if ShardOf(e.from.Name(), w.cfg.Workers) == peer && w.inQ[e.id] != nil {
			open[uint32(e.id)] = true
		}
	}
	var raw wire.Raw
	for {
		var err error
		if raw, err = link.ReadRaw(raw); err != nil {
			break
		}
		var f wire.Frame
		if err := wire.DecodeFrame(raw.Body(), &f); err != nil {
			if id, ok := raw.Edge(); ok && id < uint32(len(w.edges)) {
				err = fmt.Errorf("receiving on %v: %w", w.edges[id], err)
			}
			w.flt.report(err)
			continue
		}
		if (f.Type != wire.TypeData && f.Type != wire.TypeEdgeClose) || !open[f.Edge] {
			w.flt.report(fmt.Errorf("link from worker %d: frame type %d for edge %d, which is not open from there",
				peer, f.Type, f.Edge))
			continue
		}
		q := w.inQ[f.Edge]
		if f.Type == wire.TypeEdgeClose {
			delete(open, f.Edge)
			q.push(injMsg{closeIt: true, size: len(raw)})
			continue
		}
		w.counts[f.Edge].received.Add(1)
		q.push(injMsg{payload: f.Payload, bytes: f.Bytes, from: f.From, size: len(raw)})
	}
	for id := range open {
		w.inQ[id].push(injMsg{closeIt: true})
	}
}

// readControl consumes the coordinator stream: shard-done frames finish
// external components, terminate/kill frames drive the local machine. A
// broken connection (the coordinator died) halts the local run so the
// process exits instead of hanging.
func (w *shardWorker) readControl(wc *wire.Conn) {
	var raw wire.Raw
	for {
		var err error
		if raw, err = wc.ReadRaw(raw); err != nil {
			w.flt.halt()
			return
		}
		var f wire.Frame
		if err := wire.DecodeFrame(raw.Body(), &f); err != nil {
			w.flt.report(fmt.Errorf("reading the coordinator: %w", err))
			return
		}
		switch f.Type {
		case wire.TypeShardDone:
			for _, c := range w.comps {
				if ShardOf(c.Name(), w.cfg.Workers) == int(f.Shard) {
					w.app.FinishExternal(c)
				}
			}
		case wire.TypeTerminate:
			w.nm.Interrupt()
		case wire.TypeCompKill:
			if c, ok := w.app.Component(f.Name); ok {
				_ = w.app.Terminate(c)
			}
		}
	}
}
