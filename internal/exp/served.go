package exp

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"embera/internal/core"
	"embera/internal/monitor"
	"embera/internal/platform"
)

// ErrNotRunning is returned by control operations that need a live
// generation (reconnect, stop-drain) when the assembly is idle — stopped,
// between generations, or already torn down.
var ErrNotRunning = fmt.Errorf("exp: assembly is not running")

const (
	// ctlPollUS is the control driver's poll period in platform
	// microseconds: the latency bound on applying queued control
	// operations (reconnect, stop) inside a running generation.
	ctlPollUS = 1000
	// maxConsecutiveFailures parks the assembly after this many failed
	// generations in a row, so a workload broken by a control change does
	// not relaunch forever.
	maxConsecutiveFailures = 3
)

// ServedOptions configures RunServed beyond the per-run Options.
type ServedOptions struct {
	Options

	// Pace is the wall-clock pause between generations (default 50 ms): it
	// keeps a fast simulated workload from busy-looping the host while the
	// assembly idles between runs.
	Pace time.Duration
}

// ServedStats is a point-in-time snapshot of a served assembly, merging
// counters accumulated over completed generations with the live
// generation's monitor.
type ServedStats struct {
	// Generations counts generation launches (including the live one);
	// CompletedChecks counts generations that finished and passed the
	// workload self-check; Units accumulates work units across generations.
	Generations     uint64
	CompletedChecks uint64
	Units           uint64

	// Samples/RingDropped/SinkErrors aggregate the monitor pipeline's
	// accounting across all generations, live one included.
	Samples     uint64
	RingDropped uint64
	SinkErrors  uint64

	Running bool // a generation is executing right now
	Stopped bool // stop requested; no further generations until Start
	Paused  bool // sampling suspended

	// Levels and WindowUS are the live sampling configuration (the desired
	// state every new generation starts from, updated by SetPeriod /
	// SetWindowUS).
	Levels   []monitor.LevelPeriod
	WindowUS int64
	// EffectiveLevels is the period each sampler is actually running at:
	// equal to Levels unless the adaptive overhead controller has backed a
	// sampler off its configured period under load. Between generations it
	// holds the last live generation's reading, so the gauge does not
	// flap to base at every relaunch.
	EffectiveLevels []monitor.LevelPeriod
	// OverheadBudgetPct is the configured adaptive sampling budget
	// (percent of host time per sampler; 0 = controller off).
	OverheadBudgetPct float64

	// LastMakespanUS is the platform time at which the most recent
	// completed generation finished.
	LastMakespanUS int64
	// LastErr is the most recent generation failure ("" when healthy);
	// ConsecutiveFailures counts the current failure streak.
	LastErr             string
	ConsecutiveFailures int
}

// CapturedGeneration is the answer to CaptureNext: the generation that
// carried the caller's event sink, delivered after it finished. App is the
// generation's (now quiesced) assembly, for manifest extraction; Err is
// the generation's failure, if any.
type CapturedGeneration struct {
	App *core.App
	Err error
}

// captureReq is one pending CaptureNext registration.
type captureReq struct {
	sink core.EventSink
	ch   chan CapturedGeneration
}

// controlOp is one queued control operation, applied by the control driver
// from driver-flow context — the only context core.App.Reconnect and
// termination are safe in on every platform (kernel context on the
// simulators, a plain goroutine on native).
type controlOp struct {
	apply func(a *core.App, f core.Flow) error
	done  chan error // buffered(1); every enqueued op is answered exactly once
}

// ServedRun is a long-running assembly: RunServed relaunches the workload
// in generations — each generation a fresh machine, application and
// monitor, all fed into the same persistent sinks — so the window stream
// never ends while the paper's control functions (stop/start, reconnect,
// sampling-period and window changes, pause/resume) apply live to the
// generation in flight. This is the exp-layer engine behind embera-serve.
type ServedRun struct {
	p    platform.Platform
	w    platform.Workload
	base Options
	pace time.Duration

	quit     chan struct{} // Close(): permanent shutdown
	quitOnce sync.Once
	done     chan struct{} // generation loop exited

	mu       sync.Mutex
	levels   []monitor.LevelPeriod // desired sampler config (live + next generations)
	lastEff  []monitor.LevelPeriod // last observed effective periods (survives generation ends)
	windowUS int64
	paused   bool
	stopReq  bool
	wake     chan struct{} // Start() signal, buffered(1)
	ops      []*controlOp
	captures []*captureReq
	running  bool
	machine  platform.Machine
	app      *core.App
	mon      *monitor.Monitor
	lastErr  error
	fails    int

	gens    atomic.Uint64
	checks  atomic.Uint64
	units   atomic.Uint64
	samples atomic.Uint64
	dropped atomic.Uint64
	sinkErr atomic.Uint64
	lastEnd atomic.Int64
}

// RunServed launches workload w on platform p as a long-running served
// assembly and returns immediately; the assembly keeps re-running the
// workload until Stop or Close. Unlike Run it never tears the observation
// stream down: opts.Monitor.Sinks persist across generations, which is how
// a streaming front end keeps one subscriber-facing window stream over an
// arbitrarily long-lived assembly.
func RunServed(p platform.Platform, w platform.Workload, opts ServedOptions) (*ServedRun, error) {
	if p == nil || w == nil {
		return nil, fmt.Errorf("exp: RunServed needs a platform and a workload")
	}
	if err := opts.Options.validate(); err != nil {
		return nil, err
	}
	if opts.Pace == 0 {
		opts.Pace = 50 * time.Millisecond
	}
	if opts.Pace < 0 {
		return nil, fmt.Errorf("exp: negative pace %v", opts.Pace)
	}
	if opts.Monitor == nil {
		opts.Monitor = &monitor.Config{}
	}
	sr := &ServedRun{
		p: p, w: w, base: opts.Options,
		pace: opts.Pace,
		quit: make(chan struct{}),
		done: make(chan struct{}),
		wake: make(chan struct{}, 1),
	}
	// Desired sampling state starts from the configured monitor, with the
	// monitor package's own defaults where unset.
	sr.levels = append([]monitor.LevelPeriod(nil), opts.Monitor.Levels...)
	if len(sr.levels) == 0 {
		sr.levels = []monitor.LevelPeriod{{Level: core.LevelApplication, PeriodUS: 1000}}
	}
	sr.windowUS = opts.Monitor.WindowUS
	if sr.windowUS == 0 {
		sr.windowUS = 10_000
	}
	go sr.loop()
	return sr, nil
}

// loop is the generation supervisor: run a generation, pace, repeat —
// parking while stopped, exiting on Close.
func (sr *ServedRun) loop() {
	defer func() {
		// Answer capture requests that never got a generation, so waiting
		// callers are released on shutdown.
		sr.mu.Lock()
		captures := sr.captures
		sr.captures = nil
		sr.mu.Unlock()
		for _, c := range captures {
			c.ch <- CapturedGeneration{Err: ErrNotRunning}
		}
		close(sr.done)
	}()
	for {
		select {
		case <-sr.quit:
			return
		default:
		}
		if sr.stopRequested() {
			select {
			case <-sr.wake:
				continue
			case <-sr.quit:
				return
			}
		}
		err := sr.runGeneration()
		sr.mu.Lock()
		if err != nil && !sr.stopReq {
			sr.lastErr = err
			sr.fails++
			if sr.fails >= maxConsecutiveFailures {
				// A persistently failing workload parks the assembly
				// instead of relaunching forever; Start() retries.
				sr.stopReq = true
			}
		} else if err == nil {
			sr.lastErr = nil
			sr.fails = 0
		}
		sr.mu.Unlock()
		select {
		case <-time.After(sr.pace):
		case <-sr.quit:
			return
		}
	}
}

// runGeneration executes one generation: the run lifecycle with the
// control driver spawned before Start, no final observer query (the window
// stream is the product), and tolerance for an interrupt mid-run.
func (sr *ServedRun) runGeneration() error {
	sr.gens.Add(1)

	sr.mu.Lock()
	mcfg := *sr.base.Monitor
	mcfg.Levels = append([]monitor.LevelPeriod(nil), sr.levels...)
	mcfg.WindowUS = sr.windowUS
	paused := sr.paused
	// One pending capture request adopts this generation: its sink replaces
	// the base event sink for the whole run, and it is answered — assembly
	// plus outcome — when the generation ends, however it ends.
	var capture *captureReq
	if len(sr.captures) > 0 {
		capture = sr.captures[0]
		sr.captures = sr.captures[1:]
	}
	sr.mu.Unlock()

	opts := sr.base
	opts.Monitor = &mcfg
	if capture != nil {
		opts.EventSink = capture.sink
	}
	// The caller's OnMonitor sees the generation's monitor with the
	// assembly's pause state already applied.
	opts.OnMonitor = func(mon *monitor.Monitor) {
		if paused {
			mon.Pause()
		}
		if sr.base.OnMonitor != nil {
			sr.base.OnMonitor(mon)
		}
	}
	published := false
	c, err := lifecycle(sr.p, sr.w, opts, hooks{
		live: func(c *cell) {
			sr.mu.Lock()
			sr.machine, sr.app, sr.mon = c.m, c.a, c.mon
			sr.running = true
			sr.mu.Unlock()
			published = true
		},
		beforeStart: func(c *cell) {
			c.a.SpawnDriver("serve/control", func(f core.Flow) { sr.controlLoop(c.a, f) })
		},
		finish: func(c *cell) error {
			sr.lastEnd.Store(c.m.NowUS())
			sr.units.Add(uint64(c.inst.Units()))
			if sr.interrupted() {
				// A stopped generation is cut short by design: its units
				// count, its self-check is meaningless.
				return nil
			}
			if err := c.check(); err != nil {
				return err
			}
			sr.checks.Add(1)
			return nil
		},
	})
	if published {
		// Unpublish the generation, fold its pipeline accounting into the
		// long-run totals and answer any control op that raced the exit.
		sr.mu.Lock()
		sr.lastEff = c.mon.EffectiveLevels()
		sr.machine, sr.app, sr.mon = nil, nil, nil
		sr.running = false
		ops := sr.ops
		sr.ops = nil
		sr.mu.Unlock()
		for _, op := range ops {
			op.done <- ErrNotRunning
		}
		sr.samples.Add(c.mon.Samples())
		sr.dropped.Add(c.mon.Dropped())
		sr.sinkErr.Add(c.mon.SinkErrors())
	}
	if capture != nil {
		capture.ch <- CapturedGeneration{App: c.a, Err: err}
	}
	return err
}

// controlLoop is the per-generation control driver: it polls the op queue
// on platform time and applies queued operations from driver-flow context,
// which is safe on every binding (it runs inside the kernel on the
// simulators). The final drain answers ops enqueued in the same poll the
// application finished.
func (sr *ServedRun) controlLoop(a *core.App, f core.Flow) {
	for !a.Done() {
		f.SleepUS(ctlPollUS)
		sr.applyOps(a, f)
	}
	sr.applyOps(a, f)
}

// applyOps drains and answers the pending control-op queue. Operations
// receive the driver flow so ones that block on mailboxes (Migrate's
// backlog drain) run in a context every binding allows that in.
func (sr *ServedRun) applyOps(a *core.App, f core.Flow) {
	sr.mu.Lock()
	ops := sr.ops
	sr.ops = nil
	sr.mu.Unlock()
	for _, op := range ops {
		op.done <- op.apply(a, f)
	}
}

// enqueue hands an operation to the live generation's control driver and
// waits for the answer. Every accepted op is answered: the driver drains
// on completion and runGeneration's teardown answers stragglers.
func (sr *ServedRun) enqueue(apply func(a *core.App, f core.Flow) error) error {
	op := &controlOp{apply: apply, done: make(chan error, 1)}
	sr.mu.Lock()
	if !sr.running {
		sr.mu.Unlock()
		return ErrNotRunning
	}
	sr.ops = append(sr.ops, op)
	sr.mu.Unlock()
	return <-op.done
}

func (sr *ServedRun) stopRequested() bool {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return sr.stopReq
}

// interrupted reports whether the current generation was asked to die
// (assembly stop or full shutdown).
func (sr *ServedRun) interrupted() bool {
	select {
	case <-sr.quit:
		return true
	default:
	}
	return sr.stopRequested()
}

// terminateAll is the stop operation's body: terminate every component so
// the application drains and the generation's machine run returns.
func terminateAll(a *core.App, _ core.Flow) error {
	for _, c := range a.Components() {
		if err := a.Terminate(c); err != nil {
			return err
		}
	}
	return nil
}

// CaptureNext arms a one-shot trace capture: sink becomes the event sink
// of the next generation to launch (displacing the base sink for that
// generation only), and the returned channel delivers the generation's
// quiesced assembly and outcome once it finishes — everything a bundle
// capture needs. The channel is buffered; an assembly shut down before a
// generation adopts the request answers with ErrNotRunning. Callers
// should select against their own timeout: a stopped assembly holds the
// request until the next Start.
func (sr *ServedRun) CaptureNext(sink core.EventSink) <-chan CapturedGeneration {
	req := &captureReq{sink: sink, ch: make(chan CapturedGeneration, 1)}
	sr.mu.Lock()
	sr.captures = append(sr.captures, req)
	sr.mu.Unlock()
	return req.ch
}

// Stop requests the assembly to stop: the in-flight generation is
// terminated — through the platform's Interruptible lifecycle hook when
// the machine has one, otherwise via a queued termination op applied from
// driver context — and no further generations launch until Start. Stop
// returns without waiting for the drain; Stats().Running flips once the
// generation is gone.
func (sr *ServedRun) Stop() {
	sr.mu.Lock()
	sr.stopReq = true
	m := sr.machine
	running := sr.running
	if running {
		// The queued op covers machines without an Interrupt hook; done is
		// buffered and deliberately unread — Stop is asynchronous.
		sr.ops = append(sr.ops, &controlOp{apply: terminateAll, done: make(chan error, 1)})
	}
	sr.mu.Unlock()
	if running && m != nil {
		platform.Interrupt(m)
	}
}

// Start clears a stop (including the automatic stop after repeated
// generation failures) and relaunches the generation loop.
func (sr *ServedRun) Start() {
	sr.mu.Lock()
	sr.stopReq = false
	sr.fails = 0
	sr.mu.Unlock()
	select {
	case sr.wake <- struct{}{}:
	default:
	}
}

// Close shuts the assembly down for good: stop the live generation, exit
// the loop, and wait for it. Safe to call more than once.
func (sr *ServedRun) Close() {
	sr.quitOnce.Do(func() { close(sr.quit) })
	sr.Stop()
	<-sr.done
}

// SetPeriod retunes the sampling period of every sampler at the given
// level — live on the in-flight generation, and persistently for every
// later one.
func (sr *ServedRun) SetPeriod(level core.ObsLevel, periodUS int64) error {
	if periodUS <= 0 {
		return fmt.Errorf("exp: non-positive period %d µs", periodUS)
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	found := false
	for i := range sr.levels {
		if sr.levels[i].Level == level {
			sr.levels[i].PeriodUS = periodUS
			found = true
		}
	}
	if !found {
		return fmt.Errorf("exp: no sampler at level %s", level)
	}
	if sr.mon != nil {
		return sr.mon.SetPeriod(level, periodUS)
	}
	return nil
}

// SetWindowUS changes the aggregation window, live and persistently.
func (sr *ServedRun) SetWindowUS(windowUS int64) error {
	if windowUS <= 0 {
		return fmt.Errorf("exp: non-positive window %d µs", windowUS)
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	sr.windowUS = windowUS
	if sr.mon != nil {
		return sr.mon.SetWindowUS(windowUS)
	}
	return nil
}

// Pause suspends sampling (the workload keeps running); Resume restarts
// it. Both apply live and persist across generations.
func (sr *ServedRun) Pause() { sr.setPaused(true) }

// Resume re-enables sampling after a Pause.
func (sr *ServedRun) Resume() { sr.setPaused(false) }

func (sr *ServedRun) setPaused(p bool) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	sr.paused = p
	if sr.mon == nil {
		return
	}
	if p {
		sr.mon.Pause()
	} else {
		sr.mon.Resume()
	}
}

// Reconnect rewires a running component's required interface to a new
// provider, applied from the control driver's flow — the paper's dynamic
// reconfiguration as a live API. It fails with ErrNotRunning between
// generations (each generation is a fresh assembly; there is nothing to
// rewire).
func (sr *ServedRun) Reconnect(from, req, to, prov string) error {
	return sr.enqueue(func(a *core.App, _ core.Flow) error {
		fc, ok := a.Component(from)
		if !ok {
			return fmt.Errorf("exp: no component %q", from)
		}
		tc, ok := a.Component(to)
		if !ok {
			return fmt.Errorf("exp: no component %q", to)
		}
		return a.Reconnect(fc, req, tc, prov)
	})
}

// Migrate rewires like Reconnect and additionally moves the displaced
// inbox's backlog to the new provider when the rewire closed it (the
// producer was its last): quiesce-by-close, drain through the transport
// seam, resume on the new target. The drain runs on the control driver's
// flow, the one context where blocking mailbox operations are legal on
// every binding.
func (sr *ServedRun) Migrate(from, req, to, prov string) error {
	return sr.enqueue(func(a *core.App, f core.Flow) error {
		fc, ok := a.Component(from)
		if !ok {
			return fmt.Errorf("exp: no component %q", from)
		}
		tc, ok := a.Component(to)
		if !ok {
			return fmt.Errorf("exp: no component %q", to)
		}
		return a.Migrate(f, fc, req, tc, prov)
	})
}

// Terminate force-stops one named component of the live generation (the
// paper's termination control function), leaving the rest of the assembly
// to drain naturally.
func (sr *ServedRun) Terminate(name string) error {
	return sr.enqueue(func(a *core.App, _ core.Flow) error {
		c, ok := a.Component(name)
		if !ok {
			return fmt.Errorf("exp: no component %q", name)
		}
		return a.Terminate(c)
	})
}

// Platform and Workload name the assembly's fixed coordinates.
func (sr *ServedRun) Platform() platform.Platform { return sr.p }

// Workload returns the served workload.
func (sr *ServedRun) Workload() platform.Workload { return sr.w }

// Generations reports how many generations have launched so far.
func (sr *ServedRun) Generations() uint64 { return sr.gens.Load() }

// Stats snapshots the assembly, merging accumulated generation totals with
// the live monitor's counters.
func (sr *ServedRun) Stats() ServedStats {
	sr.mu.Lock()
	st := ServedStats{
		Generations:         sr.gens.Load(),
		CompletedChecks:     sr.checks.Load(),
		Units:               sr.units.Load(),
		Samples:             sr.samples.Load(),
		RingDropped:         sr.dropped.Load(),
		SinkErrors:          sr.sinkErr.Load(),
		Running:             sr.running,
		Stopped:             sr.stopReq,
		Paused:              sr.paused,
		Levels:              append([]monitor.LevelPeriod(nil), sr.levels...),
		WindowUS:            sr.windowUS,
		LastMakespanUS:      sr.lastEnd.Load(),
		ConsecutiveFailures: sr.fails,
	}
	if sr.base.Monitor != nil {
		st.OverheadBudgetPct = sr.base.Monitor.OverheadBudgetPct
	}
	if sr.lastErr != nil {
		st.LastErr = sr.lastErr.Error()
	}
	if sr.mon != nil {
		st.Samples += sr.mon.Samples()
		st.RingDropped += sr.mon.Dropped()
		st.SinkErrors += sr.mon.SinkErrors()
		sr.lastEff = sr.mon.EffectiveLevels()
	}
	switch {
	case sr.lastEff != nil:
		st.EffectiveLevels = append([]monitor.LevelPeriod(nil), sr.lastEff...)
	default:
		// No generation has sampled yet: effective = configured.
		st.EffectiveLevels = append([]monitor.LevelPeriod(nil), sr.levels...)
	}
	sr.mu.Unlock()
	return st
}
