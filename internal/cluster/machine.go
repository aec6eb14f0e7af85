package cluster

import (
	"encoding/json"
	"errors"
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

// ErrLedger is the error a clean sharded run fails with when a cross-shard
// edge's ledger does not balance: its producing worker wrote a different
// number of data frames than its consuming worker read.
var ErrLedger = errors.New("cluster: cross-shard ledger does not balance")

// Machine supervises one cluster run. Without Distribute it degrades to a
// cluster of one — a transparent native machine — so direct construction
// (tests, ad-hoc harnesses) needs no processes and no sockets. After
// Distribute it becomes a pure coordinator: every component is external,
// worker processes own the shards and trade cross-shard frames over links
// of their own, and Run supervises — spawn, accept, merge, drain.
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

	mu      sync.Mutex
	ran     bool
	procs   []*workerProc // indexed by shard, nil until Run connects them
	inbound []RelayQueue  // indexed by shard, as each worker reported it

	interrupted atomic.Bool
	lost        atomic.Uint64 // data frames producers could not write

	errMu    sync.Mutex
	firstErr error

	// The cross-shard ledger per edge, summed from the workers' reports:
	// data frames the producing worker wrote, and the consuming worker read.
	edges    []edge
	srcShard []int
	dstShard []int
	sent     []atomic.Uint64
	received []atomic.Uint64
}

// workerProc is the coordinator's view of one worker process: its OS
// process and its control connection.
type workerProc struct {
	shard int
	cmd   *exec.Cmd
	conn  *wire.Conn
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
// identically by every worker — from stream when it is given, else from
// the stream inst carries (StreamCarrier) — components are partitioned by
// ShardOf, and the coordinator keeps only supervision: every component is
// marked external here so local samplers and spawns skip them. Must be
// called after assembly and before Start/Run.
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
	if len(stream) == 0 {
		if sc, ok := inst.(StreamCarrier); ok {
			stream = sc.Stream()
		}
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

// AttachMonitor hands the coordinator the run's live monitor: ingested
// worker windows join mon's sinks, and its live levels, window, ring
// capacity and overhead budget mirror into every worker. The configuration
// argument is unused: mon carries it, defaults applied.
func (m *Machine) AttachMonitor(mon *monitor.Monitor, _ *monitor.Config) {
	m.mon = mon
}

// ShardOf reports which shard owns the named component (always 0 outside
// sharded mode). Conformance uses it to attribute per-shard flow counters.
func (m *Machine) ShardOf(name string) int {
	if !m.multi {
		return 0
	}
	return ShardOf(name, m.workers)
}

// LostFrames reports data frames lost to a dead worker: frames a producing
// worker could not write because the consuming worker was gone. Zero on a
// clean run.
func (m *Machine) LostFrames() uint64 { return m.lost.Load() }

// RelayQueue is the queue of frames waiting to reach one worker shard:
// read off the shard's links but not yet handed to a consumer's mailbox.
// The shard's worker measures it and reports it at the end of its run.
type RelayQueue struct {
	Shard int
	Depth QueueDepth // occupancy when the worker reported
	Peak  QueueDepth // high-water marks over the worker's run
}

// RelayQueues reports every destination shard's inbound queue, indexed by
// shard; nil until Run has connected the workers. A shard whose worker has
// not reported — it is still running, or died — reads empty.
func (m *Machine) RelayQueues() []RelayQueue {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.procs == nil {
		return nil
	}
	return append([]RelayQueue(nil), m.inbound...)
}

// WireFrames reports how many data frames crossed the edge leaving from's
// required interface iface, as its producing worker wrote them to the
// consuming worker's link, and whether that edge crosses shards at all.
// Conformance counts these against the producer's send operations.
func (m *Machine) WireFrames(from, iface string) (uint64, bool) {
	for i := range m.edges {
		e := &m.edges[i]
		if e.from.Name() == from && e.fromIface == iface {
			if m.srcShard[i] == m.dstShard[i] {
				return 0, false
			}
			return m.sent[i].Load(), true
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
	for _, w := range m.procs {
		if w != nil && w.cmd != nil && w.cmd.Process != nil {
			pids = append(pids, w.cmd.Process.Pid)
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
	m.broadcast(wire.Frame{Type: wire.TypeTerminate})
}

// broadcast sends every worker a control frame. A worker that is gone
// cannot take it, and needs it no more.
func (m *Machine) broadcast(f wire.Frame) {
	m.mu.Lock()
	procs := m.procs
	m.mu.Unlock()
	for _, w := range procs {
		_ = w.conn.WriteFrame(&f)
	}
}

// sendKill forwards a kill of an external component to its owning worker
// (the served-run terminateAll path arrives here through binding.Kill).
func (m *Machine) sendKill(c *core.Component) {
	shard := m.ShardOf(c.Name())
	m.mu.Lock()
	var w *workerProc
	if shard < len(m.procs) {
		w = m.procs[shard]
	}
	m.mu.Unlock()
	if w != nil {
		_ = w.conn.WriteFrame(&wire.Frame{Type: wire.TypeCompKill, Name: c.Name()})
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
// machine. In sharded mode it links and spawns the workers, merges their
// windows and reports, waits for every goodbye, and reaps the processes —
// returning the first worker failure, with counted in-flight losses, if
// the fleet did not drain cleanly, and a ledger error if a clean run's
// cross-shard counts do not balance.
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
	kind  int // evReports, evDied
	shard int
	frame *wire.Frame
	err   error
}

const (
	evReports = iota
	evDied
)

// linkFD is the descriptor at which a worker finds its link to peer: the
// coordinator hands each worker its link ends in peer order through
// exec.Cmd.ExtraFiles, which start at descriptor 3.
func linkFD(shard, peer int) uintptr {
	if peer > shard {
		peer--
	}
	return uintptr(3 + peer)
}

// makeLinks creates one unix socket pair per pair of shards: ends[s][p] is
// shard s's end of its link to peer p, in the order linkFD expects. On
// error every end made so far is closed.
func makeLinks(shards int) ([][]*os.File, error) {
	ends := make([][]*os.File, shards)
	for s := range ends {
		ends[s] = make([]*os.File, 0, shards-1)
	}
	for a := 0; a < shards; a++ {
		for b := a + 1; b < shards; b++ {
			fa, fb, err := wire.SocketPair()
			if err != nil {
				closeLinks(ends)
				return nil, fmt.Errorf("cluster: linking workers %d and %d: %w", a, b, err)
			}
			ends[a] = append(ends[a], fa)
			ends[b] = append(ends[b], fb)
		}
	}
	return ends, nil
}

// closeLinks closes the link ends the coordinator still holds.
func closeLinks(ends [][]*os.File) {
	for s, fs := range ends {
		for _, f := range fs {
			f.Close()
		}
		ends[s] = nil
	}
}

func (m *Machine) runSharded(horizonUS int64) error {
	m.edges = edgeTable(m.app)
	m.srcShard = make([]int, len(m.edges))
	m.dstShard = make([]int, len(m.edges))
	m.sent = make([]atomic.Uint64, len(m.edges))
	m.received = make([]atomic.Uint64, len(m.edges))
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
	if m.mon != nil {
		for _, lp := range m.mon.Levels() {
			cfg.MonLevels = append(cfg.MonLevels, workerLevel{Level: int(lp.Level), PeriodUS: lp.PeriodUS})
		}
		cfg.MonWindowUS = m.mon.WindowUS()
		cfg.MonRingCapacity = m.mon.Ring().Capacity()
		cfg.MonOverheadPct = m.mon.OverheadBudgetPct()
	}

	// Every cross-shard frame travels a link straight from the producing
	// worker to the consuming one. The coordinator only makes the links:
	// each worker inherits its ends, and the coordinator closes its own
	// copies, so a link ends exactly when one of its two workers exits.
	ends, err := makeLinks(m.workers)
	if err != nil {
		return err
	}
	defer closeLinks(ends)

	procs := make([]*workerProc, m.workers)
	for s := 0; s < m.workers; s++ {
		c := cfg
		c.Shard = s
		js, jerr := json.Marshal(&c)
		if jerr != nil {
			m.killAll(procs)
			return fmt.Errorf("cluster: %w", jerr)
		}
		cfgPath := filepath.Join(tmp, fmt.Sprintf("worker-%d.json", s))
		if err := os.WriteFile(cfgPath, js, 0o600); err != nil {
			m.killAll(procs)
			return fmt.Errorf("cluster: %w", err)
		}
		cmd := exec.Command(exe, "-cluster-worker")
		cmd.Env = append(os.Environ(), ConfigEnv+"="+cfgPath)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		cmd.ExtraFiles = ends[s]
		if err := cmd.Start(); err != nil {
			m.killAll(procs)
			return fmt.Errorf("cluster: spawning worker %d: %w", s, err)
		}
		for _, f := range ends[s] {
			f.Close()
		}
		ends[s] = nil
		procs[s] = &workerProc{shard: s, cmd: cmd}
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
			m.killAll(procs)
			return fmt.Errorf("cluster: waiting for %d of %d workers to connect: %w",
				m.workers-len(conns), m.workers, aerr)
		}
		wc := wire.NewConn(nc)
		var hello wire.Frame
		if err := wc.ReadFrame(&hello); err != nil || hello.Type != wire.TypeHello {
			wc.Close()
			m.killAll(procs)
			return fmt.Errorf("cluster: bad hello from worker: %v", err)
		}
		s := int(hello.Shard)
		if s < 0 || s >= m.workers || conns[s] != nil {
			wc.Close()
			m.killAll(procs)
			return fmt.Errorf("cluster: worker announced invalid shard %d", s)
		}
		conns[s] = wc
	}
	for s, wc := range conns {
		procs[s].conn = wc
	}
	m.mu.Lock()
	m.procs = procs
	m.inbound = make([]RelayQueue, m.workers)
	for s := range m.inbound {
		m.inbound[s].Shard = s
	}
	m.mu.Unlock()

	events := make(chan event, 4*m.workers+16)
	var readers sync.WaitGroup
	for _, w := range procs {
		readers.Add(1)
		go func() {
			defer readers.Done()
			m.runReader(w, events)
		}()
	}
	orchDone := make(chan struct{})
	go func() {
		defer close(orchDone)
		m.orchestrate(procs, events)
	}()
	go func() {
		readers.Wait()
		close(events)
	}()

	// An interrupt that raced the launch must still reach the workers.
	if m.interrupted.Load() {
		m.broadcast(wire.Frame{Type: wire.TypeTerminate})
	}

	// The local machine waits for the harness drivers (observation driver,
	// monitor pump): they finish once every shard has reported done.
	natErr := m.nm.Run(horizonUS)
	if natErr != nil {
		// Local horizon exceeded — the fleet is hung. Interrupt it so the
		// readers unwind and the error surfaces.
		m.broadcast(wire.Frame{Type: wire.TypeTerminate})
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
	for _, w := range procs {
		w.conn.Close()
	}
	<-byeDone
	<-orchDone

	for _, w := range procs {
		werr := make(chan error, 1)
		go func() { werr <- w.cmd.Wait() }()
		select {
		case e := <-werr:
			if e != nil && !w.dead.Load() && !m.interrupted.Load() {
				m.recordErr(fmt.Errorf("cluster: worker %d: %w", w.shard, e))
			}
		case <-time.After(exitTimeout):
			_ = w.cmd.Process.Kill()
			<-werr
			m.recordErr(fmt.Errorf("cluster: worker %d had to be killed after the run", w.shard))
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
	if natErr == nil && !m.interrupted.Load() {
		return m.checkLedger()
	}
	return natErr
}

// checkLedger holds a clean run to its cross-shard ledger: every data frame
// a producing worker wrote to a link, the consuming worker read off it.
func (m *Machine) checkLedger() error {
	for i, e := range m.edges {
		if m.srcShard[i] == m.dstShard[i] {
			continue
		}
		if sent, got := m.sent[i].Load(), m.received[i].Load(); sent != got {
			return fmt.Errorf("%w: %v: worker %d wrote %d data frames, worker %d read %d",
				ErrLedger, e, m.srcShard[i], sent, m.dstShard[i], got)
		}
	}
	return nil
}

func (m *Machine) killAll(procs []*workerProc) {
	for _, w := range procs {
		if w != nil && w.cmd != nil && w.cmd.Process != nil {
			_ = w.cmd.Process.Kill()
			go func(c *exec.Cmd) { _ = c.Wait() }(w.cmd)
		}
	}
}

// runReader consumes one worker's control stream: windows ingest into the
// coordinator monitor; reports, goodbyes and failures go to the
// orchestrator. Data never comes this way — it crosses the workers' own
// links — so any other frame is a protocol error that fails the worker.
func (m *Machine) runReader(w *workerProc, events chan<- event) {
	died := func(err error) {
		if !w.bye.Load() {
			events <- event{kind: evDied, shard: w.shard,
				err: fmt.Errorf("cluster: worker %d exited before goodbye: %v", w.shard, err)}
		}
	}
	var f wire.Frame
	for {
		if err := w.conn.ReadFrame(&f); err != nil {
			died(err)
			return
		}
		switch f.Type {
		case wire.TypeWindows:
			if m.mon != nil {
				for _, win := range f.Windows {
					m.mon.Ingest(win)
				}
			}
		case wire.TypeReports:
			rep := f
			events <- event{kind: evReports, shard: w.shard, frame: &rep}
		case wire.TypeBye:
			w.bye.Store(true)
			return
		case wire.TypeError:
			events <- event{kind: evDied, shard: w.shard,
				err: fmt.Errorf("cluster: worker %d failed: %s", w.shard, f.Name)}
			return
		default:
			events <- event{kind: evDied, shard: w.shard,
				err: fmt.Errorf("cluster: worker %d sent the coordinator a frame of type %d", w.shard, f.Type)}
			return
		}
	}
}

// orchestrate is the single control goroutine: it applies report overrides,
// finishes external components, merges workload partials and ledgers, and
// handles worker death — all serially, so instance merging and life-cycle
// transitions never race.
func (m *Machine) orchestrate(procs []*workerProc, events <-chan event) {
	comps := m.app.Components()
	// shardDone tells every other worker that shard is done, then finishes
	// the shard's components here.
	shardDone := func(shard int) {
		done := wire.Frame{Type: wire.TypeShardDone, Shard: uint32(shard)}
		for _, w := range procs {
			if w.shard != shard {
				_ = w.conn.WriteFrame(&done)
			}
		}
		for _, c := range comps {
			if ShardOf(c.Name(), m.workers) == shard {
				m.app.FinishExternal(c)
			}
		}
	}
	for ev := range events {
		switch ev.kind {
		case evReports:
			f := ev.frame
			for _, c := range comps {
				if rep, ok := f.Reports[c.Name()]; ok {
					c.SetReportOverride(rep)
				}
			}
			if sm, ok := m.inst.(ShardMerger); ok {
				sm.MergeShard(int(f.Units), f.Checksum)
			}
			if err := m.mergeLedger(ev.shard, f); err != nil {
				m.recordErr(err)
			}
			shardDone(ev.shard)
		case evDied:
			if procs[ev.shard].dead.Swap(true) {
				continue
			}
			m.recordErr(ev.err)
			// The survivors' links to the dead worker have ended: they
			// close its edges themselves. Tell them the shard is done so
			// they can quiesce.
			shardDone(ev.shard)
		}
	}
}

// mergeLedger folds one worker's report of its cross-shard traffic into the
// run's ledger and records its inbound queue.
func (m *Machine) mergeLedger(shard int, f *wire.Frame) error {
	for _, ec := range f.Ledger {
		i := int(ec.Edge)
		if i >= len(m.edges) || (m.srcShard[i] != shard && m.dstShard[i] != shard) {
			return fmt.Errorf("cluster: worker %d reported traffic on edge %d, which it does not touch", shard, ec.Edge)
		}
		m.sent[i].Add(ec.Sent)
		m.received[i].Add(ec.Received)
		m.lost.Add(ec.Lost)
	}
	m.mu.Lock()
	m.inbound[shard] = RelayQueue{Shard: shard, Depth: f.Inbound, Peak: f.InboundPeak}
	m.mu.Unlock()
	return nil
}
