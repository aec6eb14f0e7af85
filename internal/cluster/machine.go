package cluster

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"embera/internal/core"
	"embera/internal/monitor"
	"embera/internal/native"
	"embera/internal/wire"
)

const (
	helloTimeout = 30 * time.Second
	byeTimeout   = 60 * time.Second
	exitTimeout  = 15 * time.Second
)

// Machine supervises one cluster run. Without Distribute it degrades to a
// cluster of one — a transparent native machine — so direct construction
// (tests, ad-hoc harnesses) needs no processes and no sockets. After
// Distribute it becomes a pure coordinator: every component is external,
// worker processes own the shards, and Run orchestrates the wire star —
// accept, relay, merge, drain.
type Machine struct {
	appName   string
	app       *core.App
	b         *binding
	nm        *native.Machine
	workers   int
	locations int

	// Sharded-mode state, written by Distribute/AttachMonitor before Run.
	multi        bool
	workload     string
	scale        int
	messageBytes int
	stream       []byte
	inst         Instance
	mon          *monitor.Monitor
	monCfg       *monitor.Config

	mu    sync.Mutex
	ran   bool
	links []*workerLink // indexed by shard, nil until Run connects them

	interrupted atomic.Bool
	lost        atomic.Uint64 // data frames that could not be delivered

	errMu    sync.Mutex
	firstErr error

	edges      []edge
	srcShard   []int
	dstShard   []int
	edgeFrames []atomic.Uint64 // data frames relayed per edge
}

// workerLink is the coordinator's view of one worker process: its OS
// process, its wire connection, and the unbounded outbound queue a
// dedicated writer goroutine drains toward it.
type workerLink struct {
	shard int
	cmd   *exec.Cmd
	conn  *wire.Conn
	out   *frameQueue
	bye   atomic.Bool
	dead  atomic.Bool
}

// New constructs a cluster machine and its bound application. workers <= 0
// selects the default of two shards (overridable via EMBERA_CLUSTER_WORKERS);
// locations <= 0 mirrors the host CPU count. Construction has no side
// effects — no processes, no sockets — so unused machines are free.
func New(appName string, workers, locations int) (*Machine, *core.App) {
	if locations <= 0 {
		locations = runtime.NumCPU()
	}
	if workers <= 0 {
		workers = 2
		if s := os.Getenv(WorkersEnv); s != "" {
			if n, err := strconv.Atoi(s); err == nil && n > 0 {
				workers = n
			}
		}
	}
	nb := native.NewBinding(locations)
	b := &binding{nat: nb}
	app := core.NewApp(appName, b)
	m := &Machine{
		appName: appName, app: app, b: b,
		nm:      native.NewMachine(nb, app),
		workers: workers, locations: locations,
	}
	return m, app
}

// Workers reports the shard count.
func (m *Machine) Workers() int { return m.workers }

// NowUS reads the coordinator's wall clock in microseconds.
func (m *Machine) NowUS() int64 { return m.nm.NowUS() }

// Distribute switches the machine into sharded mode: the named registry
// workload (already built onto the bound app by the caller) will be rebuilt
// identically by every worker, components are partitioned by ShardOf, and
// the coordinator keeps only supervision — every component is marked
// external here so local samplers and spawns skip them. Must be called
// after assembly and before Start/Run.
func (m *Machine) Distribute(workload string, scale, messageBytes int, stream []byte, inst Instance) error {
	if m.multi {
		return fmt.Errorf("cluster: already distributed")
	}
	if workload == "" {
		return fmt.Errorf("cluster: distribute needs a registry workload name")
	}
	if buildFn == nil {
		return fmt.Errorf("cluster: no workload builder registered (SetBuilder)")
	}
	if inst == nil {
		return fmt.Errorf("cluster: distribute needs the workload instance")
	}
	m.multi = true
	m.workload = workload
	m.scale, m.messageBytes, m.stream = scale, messageBytes, stream
	m.inst = inst
	m.b.multi = true
	m.b.localShard = -1 // the coordinator owns no shard
	m.b.shards = m.workers
	m.b.killRemote = m.sendKill
	for _, c := range m.app.Components() {
		c.SetExternal(true)
	}
	return nil
}

// Distributed reports whether the machine runs in sharded mode.
func (m *Machine) Distributed() bool { return m.multi }

// AttachMonitor hands the coordinator the run's live monitor and its
// configuration: ingested worker windows join mon's sinks, and cfg's
// levels/window mirror into every worker so all shards sample under the
// same policy.
func (m *Machine) AttachMonitor(mon *monitor.Monitor, cfg *monitor.Config) {
	m.mon = mon
	m.monCfg = cfg
}

// ShardOf reports which shard owns the named component (always 0 outside
// sharded mode). Conformance uses it to attribute per-shard flow counters.
func (m *Machine) ShardOf(name string) int {
	if !m.multi {
		return 0
	}
	return ShardOf(name, m.workers)
}

// LostFrames reports data frames that could not be delivered — queued for
// or addressed to a worker that died. Zero on a clean run.
func (m *Machine) LostFrames() uint64 { return m.lost.Load() }

// RelayQueue is the coordinator's outbound relay queue toward one worker
// shard: every frame relayed to the shard waits there for its writer.
type RelayQueue struct {
	Shard int
	Depth QueueDepth // occupancy now
	Peak  QueueDepth // high-water marks since Run connected the shard
}

// RelayQueues reports every destination shard's relay queue, indexed by
// shard; nil until Run has connected the workers. A closed queue — its
// worker gone — reads an empty depth, its residue counted in LostFrames.
func (m *Machine) RelayQueues() []RelayQueue {
	m.mu.Lock()
	links := m.links
	m.mu.Unlock()
	if links == nil {
		return nil
	}
	qs := make([]RelayQueue, len(links))
	for s, l := range links {
		qs[s].Shard = s
		qs[s].Depth, qs[s].Peak = l.out.depth()
	}
	return qs
}

// WireFrames reports how many data frames the coordinator relayed for the
// edge leaving from's required interface iface, and whether that edge
// crosses shards at all. Conformance counts these against the producer's
// send operations.
func (m *Machine) WireFrames(from, iface string) (uint64, bool) {
	for i := range m.edges {
		e := &m.edges[i]
		if e.from.Name() == from && e.fromIface == iface {
			if m.srcShard[i] == m.dstShard[i] {
				return 0, false
			}
			return m.edgeFrames[i].Load(), true
		}
	}
	return 0, false
}

// WorkerPIDs reports the OS process IDs of the spawned workers (empty until
// Run has launched them). Failure tests use it to kill a shard mid-run.
func (m *Machine) WorkerPIDs() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	var pids []int
	for _, l := range m.links {
		if l != nil && l.cmd != nil && l.cmd.Process != nil {
			pids = append(pids, l.cmd.Process.Pid)
		}
	}
	return pids
}

// Interrupt implements the platform Interruptible hook: terminate
// broadcasts to every worker (their native machines kill local components,
// which unwind through the ordinary drain) and the local machine winds down
// as the shard-done reports come home.
func (m *Machine) Interrupt() {
	m.interrupted.Store(true)
	if !m.multi {
		m.nm.Interrupt()
		return
	}
	m.broadcast(control(wire.Frame{Type: wire.TypeTerminate}))
}

// control encodes a frame the coordinator originates. Such frames carry no
// payload, so encoding them cannot fail.
func control(f wire.Frame) wire.Raw {
	raw, err := wire.AppendFrame(nil, &f)
	if err != nil {
		panic(fmt.Sprintf("cluster: encoding control frame type %d: %v", f.Type, err))
	}
	return raw
}

func (m *Machine) broadcast(f wire.Raw) {
	m.mu.Lock()
	links := append([]*workerLink(nil), m.links...)
	m.mu.Unlock()
	for _, l := range links {
		if l != nil {
			l.out.push(f)
		}
	}
}

// sendKill forwards a kill of an external component to its owning worker
// (the served-run terminateAll path arrives here through binding.Kill).
func (m *Machine) sendKill(c *core.Component) {
	shard := m.ShardOf(c.Name())
	m.mu.Lock()
	var l *workerLink
	if shard < len(m.links) {
		l = m.links[shard]
	}
	m.mu.Unlock()
	if l != nil {
		l.out.push(control(wire.Frame{Type: wire.TypeCompKill, Name: c.Name()}))
	}
}

func (m *Machine) recordErr(err error) {
	if err == nil {
		return
	}
	m.errMu.Lock()
	if m.firstErr == nil {
		m.firstErr = err
	}
	m.errMu.Unlock()
}

// Run executes the run. In single-process mode it delegates to the native
// machine. In sharded mode it spawns the workers, relays cross-shard
// traffic, merges windows and reports, waits for every goodbye, and reaps
// the processes — returning the first worker failure, with counted
// in-flight losses, if the fleet did not drain cleanly.
func (m *Machine) Run(horizonUS int64) error {
	m.mu.Lock()
	if m.ran {
		m.mu.Unlock()
		return fmt.Errorf("cluster: machine already ran")
	}
	m.ran = true
	m.mu.Unlock()
	if !m.multi {
		return m.nm.Run(horizonUS)
	}
	return m.runSharded(horizonUS)
}

type event struct {
	kind  int // evReports, evDied, evBye
	shard int
	frame *wire.Frame
	err   error
}

const (
	evReports = iota
	evDied
	evBye
)

func (m *Machine) runSharded(horizonUS int64) error {
	m.edges = edgeTable(m.app)
	m.srcShard = make([]int, len(m.edges))
	m.dstShard = make([]int, len(m.edges))
	m.edgeFrames = make([]atomic.Uint64, len(m.edges))
	for i, e := range m.edges {
		m.srcShard[i] = ShardOf(e.from.Name(), m.workers)
		m.dstShard[i] = ShardOf(e.to.Name(), m.workers)
	}

	tmp, err := os.MkdirTemp("", "embera-cluster-")
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	defer os.RemoveAll(tmp)

	streamPath := ""
	if len(m.stream) > 0 {
		streamPath = filepath.Join(tmp, "stream.bin")
		if err := os.WriteFile(streamPath, m.stream, 0o600); err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
	}

	sock := filepath.Join(tmp, "coord.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		return fmt.Errorf("cluster: listen: %w", err)
	}
	defer ln.Close()

	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("cluster: resolving executable for re-exec: %w", err)
	}

	cfg := workerConfig{
		Addr: sock, Workers: m.workers, Locations: m.locations,
		AppName: m.appName, Workload: m.workload,
		Scale: m.scale, MessageBytes: m.messageBytes, StreamPath: streamPath,
		HorizonUS: horizonUS,
	}
	if m.monCfg != nil {
		for _, lp := range m.monCfg.Levels {
			cfg.MonLevels = append(cfg.MonLevels, workerLevel{Level: int(lp.Level), PeriodUS: lp.PeriodUS})
		}
		if len(cfg.MonLevels) == 0 {
			// Mirror the monitor's own default (application level, 1 ms) so
			// a default-configured run still samples on every shard.
			cfg.MonLevels = []workerLevel{{Level: int(core.LevelApplication), PeriodUS: 1000}}
		}
		cfg.MonWindowUS = m.monCfg.WindowUS
		cfg.MonRingCapacity = m.monCfg.RingCapacity
		cfg.MonOverheadPct = m.monCfg.OverheadBudgetPct
	}

	links := make([]*workerLink, m.workers)
	for s := 0; s < m.workers; s++ {
		c := cfg
		c.Shard = s
		js, jerr := json.Marshal(&c)
		if jerr != nil {
			return fmt.Errorf("cluster: %w", jerr)
		}
		cfgPath := filepath.Join(tmp, fmt.Sprintf("worker-%d.json", s))
		if err := os.WriteFile(cfgPath, js, 0o600); err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
		cmd := exec.Command(exe, "-cluster-worker")
		cmd.Env = append(os.Environ(), ConfigEnv+"="+cfgPath)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			for _, l := range links {
				if l != nil {
					_ = l.cmd.Process.Kill()
				}
			}
			return fmt.Errorf("cluster: spawning worker %d: %w", s, err)
		}
		links[s] = &workerLink{shard: s, cmd: cmd, out: newFrameQueue()}
	}

	// Accept every worker's hello; shard identity comes from the frame, not
	// the accept order.
	if ul, ok := ln.(*net.UnixListener); ok {
		_ = ul.SetDeadline(time.Now().Add(helloTimeout))
	}
	conns := make(map[int]*wire.Conn, m.workers)
	for len(conns) < m.workers {
		nc, aerr := ln.Accept()
		if aerr != nil {
			m.killAll(links)
			return fmt.Errorf("cluster: waiting for %d of %d workers to connect: %w",
				m.workers-len(conns), m.workers, aerr)
		}
		wc := wire.NewConn(nc)
		var hello wire.Frame
		if err := wc.ReadFrame(&hello); err != nil || hello.Type != wire.TypeHello {
			wc.Close()
			m.killAll(links)
			return fmt.Errorf("cluster: bad hello from worker: %v", err)
		}
		s := int(hello.Shard)
		if s < 0 || s >= m.workers || conns[s] != nil {
			wc.Close()
			m.killAll(links)
			return fmt.Errorf("cluster: worker announced invalid shard %d", s)
		}
		conns[s] = wc
	}
	for s, wc := range conns {
		links[s].conn = wc
	}
	m.mu.Lock()
	m.links = links
	m.mu.Unlock()

	events := make(chan event, 4*m.workers+16)
	var readers sync.WaitGroup
	for _, l := range links {
		l := l
		go m.runWriter(l)
		readers.Add(1)
		go func() {
			defer readers.Done()
			m.runReader(l, links, events)
		}()
	}
	orchDone := make(chan struct{})
	go func() {
		defer close(orchDone)
		m.orchestrate(links, events)
	}()
	go func() {
		readers.Wait()
		close(events)
	}()

	// An interrupt that raced the launch must still reach the workers.
	if m.interrupted.Load() {
		m.broadcast(control(wire.Frame{Type: wire.TypeTerminate}))
	}

	// The local machine waits for the harness drivers (observation driver,
	// monitor pump): they finish once every shard has reported done.
	natErr := m.nm.Run(horizonUS)
	if natErr != nil {
		// Local horizon exceeded — the fleet is hung. Cut the sockets so
		// the readers unwind and the error surfaces.
		m.broadcast(control(wire.Frame{Type: wire.TypeTerminate}))
	}

	byeDone := make(chan struct{})
	go func() {
		readers.Wait()
		close(byeDone)
	}()
	select {
	case <-byeDone:
	case <-time.After(byeTimeout):
		m.recordErr(fmt.Errorf("cluster: workers still connected %v after local drain", byeTimeout))
	}
	for _, l := range links {
		l.conn.Close()
	}
	<-byeDone
	<-orchDone

	// Drain the outbound queues: anything still buffered was never
	// delivered.
	for _, l := range links {
		m.countLost(l.out.close()...)
	}

	for _, l := range links {
		l := l
		werr := make(chan error, 1)
		go func() { werr <- l.cmd.Wait() }()
		select {
		case e := <-werr:
			if e != nil && !l.dead.Load() && !m.interrupted.Load() {
				m.recordErr(fmt.Errorf("cluster: worker %d: %w", l.shard, e))
			}
		case <-time.After(exitTimeout):
			_ = l.cmd.Process.Kill()
			<-werr
			m.recordErr(fmt.Errorf("cluster: worker %d had to be killed after the run", l.shard))
		}
	}

	m.errMu.Lock()
	ferr := m.firstErr
	m.errMu.Unlock()
	if ferr != nil {
		if n := m.lost.Load(); n > 0 {
			return fmt.Errorf("%w (%d in-flight data frames lost)", ferr, n)
		}
		return ferr
	}
	return natErr
}

func (m *Machine) killAll(links []*workerLink) {
	for _, l := range links {
		if l != nil && l.cmd != nil && l.cmd.Process != nil {
			_ = l.cmd.Process.Kill()
			go func(c *exec.Cmd) { _ = c.Wait() }(l.cmd)
		}
	}
}

// countLost counts the data frames among frames that were never delivered
// as in-flight losses.
func (m *Machine) countLost(frames ...wire.Raw) {
	for _, f := range frames {
		if f.Type() == wire.TypeData {
			m.lost.Add(1)
		}
	}
}

// runWriter drains one worker's outbound queue onto its socket. On a write
// error the queue closes and its residue counts as losses.
func (m *Machine) runWriter(l *workerLink) {
	for {
		f, ok := l.out.pop()
		if !ok {
			return
		}
		if err := l.conn.WriteRaw(f); err != nil {
			m.countLost(f)
			m.countLost(l.out.close()...)
			return
		}
	}
}

// runReader consumes one worker's inbound stream. Data and edge-close
// frames are routed on their edge and relayed to the destination shard as
// read: their payloads are decoded only by the worker that receives them,
// which also reports a payload that fails to decode. Windows ingest into
// the coordinator monitor; report and life-cycle frames go to the
// orchestrator.
func (m *Machine) runReader(l *workerLink, links []*workerLink, events chan<- event) {
	died := func(err error) {
		if !l.bye.Load() {
			events <- event{kind: evDied, shard: l.shard,
				err: fmt.Errorf("cluster: worker %d exited before goodbye: %v", l.shard, err)}
		}
	}
	for {
		raw, err := l.conn.ReadRaw(nil)
		if err != nil {
			died(err)
			return
		}
		if id, ok := raw.Edge(); ok {
			if id >= uint32(len(m.dstShard)) {
				continue
			}
			dst := links[m.dstShard[id]]
			if raw.Type() == wire.TypeData {
				m.edgeFrames[id].Add(1)
				if dst.dead.Load() || !dst.out.push(raw) {
					m.lost.Add(1)
				}
				continue
			}
			dst.out.push(raw)
			continue
		}
		f := new(wire.Frame)
		if err := wire.DecodeFrame(raw.Body(), f); err != nil {
			died(err)
			return
		}
		switch f.Type {
		case wire.TypeWindows:
			if m.mon != nil {
				for _, w := range f.Windows {
					m.mon.Ingest(w)
				}
			}
		case wire.TypeReports:
			events <- event{kind: evReports, shard: l.shard, frame: f}
		case wire.TypeBye:
			l.bye.Store(true)
			events <- event{kind: evBye, shard: l.shard}
			return
		case wire.TypeError:
			events <- event{kind: evDied, shard: l.shard,
				err: fmt.Errorf("cluster: worker %d failed: %s", l.shard, f.Name)}
			return
		}
	}
}

// orchestrate is the single control goroutine: it applies report overrides,
// finishes external components, merges workload partials, and handles
// worker death — all serially, so instance merging and life-cycle
// transitions never race.
func (m *Machine) orchestrate(links []*workerLink, events <-chan event) {
	comps := m.app.Components()
	for ev := range events {
		switch ev.kind {
		case evReports:
			for _, c := range comps {
				if rep, ok := ev.frame.Reports[c.Name()]; ok {
					c.SetReportOverride(rep)
				}
			}
			if sm, ok := m.inst.(ShardMerger); ok {
				sm.MergeShard(int(ev.frame.Units), ev.frame.Checksum)
			}
			done := control(wire.Frame{Type: wire.TypeShardDone, Shard: uint32(ev.shard)})
			for _, l := range links {
				if l.shard != ev.shard {
					l.out.push(done)
				}
			}
			for _, c := range comps {
				if ShardOf(c.Name(), m.workers) == ev.shard {
					m.app.FinishExternal(c)
				}
			}
		case evDied:
			l := links[ev.shard]
			if l.dead.Swap(true) {
				continue
			}
			m.recordErr(ev.err)
			m.countLost(l.out.close()...)
			// Close every edge leaving the dead shard so downstream
			// consumers drain instead of waiting forever, and tell the
			// survivors the shard is done so they can quiesce.
			for i := range m.edges {
				if m.srcShard[i] == ev.shard && m.dstShard[i] != ev.shard {
					links[m.dstShard[i]].out.push(control(wire.Frame{Type: wire.TypeEdgeClose, Edge: uint32(i)}))
				}
			}
			done := control(wire.Frame{Type: wire.TypeShardDone, Shard: uint32(ev.shard)})
			for _, other := range links {
				if other.shard != ev.shard {
					other.out.push(done)
				}
			}
			for _, c := range comps {
				if ShardOf(c.Name(), m.workers) == ev.shard {
					m.app.FinishExternal(c)
				}
			}
		case evBye:
			// Reader already marked the link; nothing further to do.
		}
	}
}
