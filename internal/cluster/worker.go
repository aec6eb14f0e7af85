package cluster

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sync"
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

// wireTransport is the sending half of a cross-shard edge: core.Ctx.Send
// dispatches here instead of the (external) consumer's local mailbox. The
// frame write blocks on the socket when the coordinator falls behind, which
// is the only backpressure a remote edge applies to its producer. A message
// that cannot be sent fails the worker, naming the edge and the cause.
type wireTransport struct {
	wc    *wire.Conn
	edge  edge
	fault *fault
}

func (t *wireTransport) Send(f core.Flow, m core.Message) bool {
	fr := wire.Frame{
		Type: wire.TypeData, Edge: uint32(t.edge.id),
		Bytes: int64(m.Bytes), From: m.From, Payload: m.Payload,
	}
	if err := t.wc.WriteFrame(&fr); err != nil {
		t.fault.report(fmt.Errorf("sending on %v: %w", t.edge, err))
		return false
	}
	return true
}

func (t *wireTransport) CloseProducer() {
	fr := wire.Frame{Type: wire.TypeEdgeClose, Edge: uint32(t.edge.id)}
	_ = t.wc.WriteFrame(&fr)
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

	// Cross-shard wiring: transports carry local producers' sends out;
	// per-edge injection queues carry remote producers' messages in.
	edges := edgeTable(app)
	inQ := make(map[int]*msgQueue)
	// halt interrupts the local run and releases everything that waits on
	// the coordinator, so the process exits instead of hanging.
	halt := func() {
		nm.Interrupt()
		for _, c := range comps {
			app.FinishExternal(c)
		}
		for _, q := range inQ {
			q.shut()
		}
	}
	flt := &fault{wc: wc, halt: halt}
	for _, e := range edges {
		src := ShardOf(e.from.Name(), cfg.Workers)
		dst := ShardOf(e.to.Name(), cfg.Workers)
		switch {
		case src == cfg.Shard && dst != cfg.Shard:
			if err := app.BindTransport(e.from, e.fromIface, &wireTransport{wc: wc, edge: e, fault: flt}); err != nil {
				return failWire(err)
			}
		case dst == cfg.Shard && src != cfg.Shard:
			inQ[e.id] = newMsgQueue()
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
			_ = wc.WriteFrame(&wire.Frame{
				Type: wire.TypeReports, Shard: uint32(cfg.Shard),
				Units: int64(inst.Units()), Checksum: inst.Checksum(),
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

	for id, q := range inQ {
		e := edges[id]
		q := q
		go func() {
			for {
				im, ok := q.pop()
				if !ok {
					return
				}
				if im.closeIt {
					_ = app.ReleaseProducer(e.to, e.toIface)
					return
				}
				_, _ = app.Inject(stubFlow{}, e.to, e.toIface, core.Message{
					Payload: im.payload, Bytes: int(im.bytes), From: im.from,
				})
			}
		}()
	}

	go workerReader(wc, app, nm, comps, edges, inQ, cfg, flt)

	if len(local) == 0 {
		// An empty shard reports immediately: zero partials, no reports.
		sendReports()
	}

	if err := nm.Run(cfg.HorizonUS); err != nil {
		return failWire(err)
	}
	if err := flt.get(); err != nil {
		return fail(err)
	}
	if err := wc.WriteFrame(&wire.Frame{Type: wire.TypeBye}); err != nil {
		return fail(err)
	}
	return 0
}

// workerReader consumes the coordinator stream: remote data and producer
// closes feed the injection queues, shard-done frames finish external
// components, terminate/kill frames drive the local machine. A frame that
// fails to decode — a data payload is decoded here, for the first time
// since its sender encoded it — is the worker's fault, named with its edge.
// A broken connection (the coordinator died) halts the local run so the
// process exits instead of hanging.
func workerReader(wc *wire.Conn, app *core.App, nm *native.Machine, comps []*core.Component,
	edges []edge, inQ map[int]*msgQueue, cfg workerConfig, flt *fault) {
	var raw wire.Raw
	for {
		var err error
		if raw, err = wc.ReadRaw(raw); err != nil {
			flt.halt()
			return
		}
		var f wire.Frame
		if err := wire.DecodeFrame(raw.Body(), &f); err != nil {
			if id, ok := raw.Edge(); ok && id < uint32(len(edges)) {
				err = fmt.Errorf("receiving on %v: %w", edges[id], err)
			}
			flt.report(err)
			return
		}
		switch f.Type {
		case wire.TypeData:
			if q := inQ[int(f.Edge)]; q != nil {
				q.push(injMsg{payload: f.Payload, bytes: f.Bytes, from: f.From})
			}
		case wire.TypeEdgeClose:
			if q := inQ[int(f.Edge)]; q != nil {
				q.push(injMsg{closeIt: true})
			}
		case wire.TypeShardDone:
			for _, c := range comps {
				if ShardOf(c.Name(), cfg.Workers) == int(f.Shard) {
					app.FinishExternal(c)
				}
			}
		case wire.TypeTerminate:
			nm.Interrupt()
		case wire.TypeCompKill:
			if c, ok := app.Component(f.Name); ok {
				_ = app.Terminate(c)
			}
		}
	}
}
