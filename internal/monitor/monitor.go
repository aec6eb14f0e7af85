// Package monitor turns EMBera's pull-only observation model into a
// streaming observation pipeline:
//
//	samplers  →  sharded ring buffer  →  windowed aggregation  →  sinks
//
// The paper's observer (internal/core, §3.3) answers one ObsRequest with
// one ObsReport — useful for a final Figure-5-style report, but blind to
// everything between queries. The monitor instead samples every component
// on a configurable period per observation level, timestamping through the
// platform binding's clock — virtual time on the simulators (runs stay
// deterministic), wall-clock time on the native platform (rates are real)
// — and the SampleAll fast path so sampling costs neither simulated time
// nor a message round-trip. Samplers and the pump are platform timers
// (core.Binding.NewTimer), not flows: kernel callbacks on the simulators,
// host timers on wall-clock platforms, one code path for both. Samples land
// in a sharded, fixed-capacity ring (ring.go) that never grows and never
// loses data silently: under overload the newest samples are shed and
// counted. The pump drains the ring every window and folds samples into
// per-component aggregates (window.go): rolling send/receive-operation
// rates, mailbox-depth high-water marks, and log-bucketed
// latency/occupancy histograms with p50/p95/p99. Closed windows stream to
// pluggable sinks (sink.go): in-memory for tests, JSONL for export, or the
// trace event stream for the existing binary tooling.
package monitor

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"embera/internal/core"
)

// Sample is one observation of one component at one sampling tick.
type Sample struct {
	// TimeUS is the platform time of the tick (µs since monitoring
	// started): virtual time on the simulated platforms, wall-clock time
	// on native.
	TimeUS int64
	// Level is the observation level the sampler was driving.
	Level core.ObsLevel
	core.FastSample
}

// LevelPeriod configures one sampler: observation level and its sampling
// period in platform microseconds.
type LevelPeriod struct {
	Level    core.ObsLevel
	PeriodUS int64
}

// Config parameterizes a Monitor. The zero value selects the defaults
// noted on each field.
type Config struct {
	// Levels lists the samplers to run. Default: application-level
	// sampling every 1 ms of virtual time. OS-level sampling is the
	// expensive one (it walks platform accounting); give it a coarser
	// period.
	Levels []LevelPeriod
	// RingCapacity is the total buffered-sample capacity (default 4096).
	RingCapacity int
	// RingShards is the ring's SPSC sharding factor. The default —
	// min(GOMAXPROCS, number of components) — spreads samples across the
	// parallelism actually available instead of funnelling big assemblies
	// through a fixed shard count; set it explicitly to override.
	RingShards int
	// WindowUS is the aggregation window length (default 10 ms).
	WindowUS int64
	// OverheadBudgetPct caps the sampling duty cycle on wall-clock
	// platforms: the fraction of host time (in percent) one sampler may
	// spend inside its sampling ticks. When the measured per-tick cost
	// exceeds the budget's share of the configured period, the sampler
	// backs its effective period off just far enough to fit, and recovers
	// toward the configured period as ticks get cheap again. Zero disables
	// the controller; it is also inert on virtual-time platforms, where
	// host-time feedback would perturb deterministic schedules.
	OverheadBudgetPct float64
	// Sinks receive closed windows. A MemorySink is always attached
	// internally so Totals works; list additional sinks here.
	Sinks []Sink
}

// DefaultWindowUS is the window of a Config that sets no WindowUS.
const DefaultWindowUS = 10_000

// DefaultLevels returns the samplers of a Config that sets no Levels.
func DefaultLevels() []LevelPeriod {
	return []LevelPeriod{{Level: core.LevelApplication, PeriodUS: 1000}}
}

func (cfg *Config) setDefaults(ncomps int) {
	if len(cfg.Levels) == 0 {
		cfg.Levels = DefaultLevels()
	}
	if cfg.RingCapacity == 0 {
		cfg.RingCapacity = 4096
	}
	if cfg.RingShards == 0 {
		cfg.RingShards = runtime.GOMAXPROCS(0)
		if ncomps > 0 && cfg.RingShards > ncomps {
			cfg.RingShards = ncomps
		}
		if cfg.RingShards < 1 {
			cfg.RingShards = 1
		}
	}
	if cfg.WindowUS == 0 {
		cfg.WindowUS = DefaultWindowUS
	}
}

// samplerState is one sampler's live configuration. The periods are atomic
// so the paper's control functions can retune a running sampler — a
// long-running front end (embera-serve) changes sampling rates without
// restarting the assembly — while the sampler reads them every tick.
type samplerState struct {
	level core.ObsLevel
	// basePeriodUS is the configured period (what SetPeriod sets);
	// effPeriodUS is the period actually armed, which the adaptive
	// controller may back off above base when ticks cost more than the
	// overhead budget allows. With the controller off they are equal.
	basePeriodUS atomic.Int64
	effPeriodUS  atomic.Int64
	// ewmaTickNs smooths the measured per-tick host cost (controller state;
	// written by the sampler's ticks, read by SetPeriod for recomputes).
	ewmaTickNs atomic.Int64
	// timer fires the sampler's ticks, one at a time.
	timer core.Timer
	// writer is the sampler's own partition of the ring's shards: one
	// producer per shard, no lock on the push path.
	writer *Writer
	// batch is the reusable tick buffer, so steady-state sampling
	// allocates nothing.
	batch []Sample
}

// Monitor owns one streaming observation pipeline over one application.
// The counters are atomic because on wall-clock platforms the samplers'
// and the pump's timers fire on goroutines of their own; on the simulated
// platforms the atomics are uncontended and free.
type Monitor struct {
	app  *core.App
	cfg  Config
	ring *Ring
	agg  *Aggregator
	mem  *MemorySink

	// samplers carries the live sampler configuration (one entry per
	// cfg.Levels entry); windowUS and paused are the pump/sampler knobs the
	// control surface flips at run time. All atomic: control calls arrive
	// from arbitrary goroutines while the timers read them.
	samplers []*samplerState
	windowUS atomic.Int64
	paused   atomic.Bool

	// clockComp anchors the monitor's clock: timestamps come from the
	// binding's NowUS through the app's first component, the same clock
	// the middleware instrumentation uses. On the simulators that is
	// virtual time and sampling stays deterministic; on the native
	// platform it is the wall clock, so window spans and rates reflect
	// real elapsed time rather than the sum of requested sleep periods.
	clockComp *core.Component
	baseUS    int64 // clock reading when Start ran; timestamps are relative

	samples      atomic.Uint64 // samples successfully pushed
	sinkErrs     atomic.Uint64
	liveSamplers atomic.Int32 // samplers still ticking
	started      bool
	stopped      atomic.Bool
	pump         core.Timer // fires the windows

	// govern runs the adaptive controller: only on a wall-clock platform
	// with a budget, since in virtual time host-time feedback would perturb
	// deterministic schedules.
	govern    bool
	budgetPct float64
}

// nowUS reads the monitor clock, relative to Start.
func (m *Monitor) nowUS() int64 {
	if m.clockComp == nil {
		return 0
	}
	return m.app.Binding().NowUS(m.clockComp) - m.baseUS
}

// New validates cfg and builds the pipeline stages. Call Start (before or
// after App.Start, in either order) to arm the sampler and pump timers.
func New(app *core.App, cfg Config) (*Monitor, error) {
	if app == nil {
		return nil, fmt.Errorf("monitor: nil app")
	}
	ncomps := len(app.Components())
	cfg.setDefaults(ncomps)
	for _, lp := range cfg.Levels {
		if lp.PeriodUS <= 0 {
			return nil, fmt.Errorf("monitor: level %s has non-positive period %d µs",
				lp.Level, lp.PeriodUS)
		}
	}
	if cfg.WindowUS <= 0 {
		return nil, fmt.Errorf("monitor: non-positive window %d µs", cfg.WindowUS)
	}
	if cfg.RingCapacity < 0 || cfg.RingShards < 0 {
		return nil, fmt.Errorf("monitor: negative ring capacity/shards %d/%d",
			cfg.RingCapacity, cfg.RingShards)
	}
	if cfg.OverheadBudgetPct < 0 {
		return nil, fmt.Errorf("monitor: negative overhead budget %g%%", cfg.OverheadBudgetPct)
	}
	for i, s := range cfg.Sinks {
		if s == nil {
			return nil, fmt.Errorf("monitor: sink %d is nil", i)
		}
	}
	// Samples shard by component index, so shards beyond the component
	// count would sit empty while shrinking every used shard's slice of
	// the capacity. Clamp (assemble the application before New).
	if ncomps > 0 && cfg.RingShards > ncomps {
		cfg.RingShards = ncomps
	}
	// The SPSC contract needs one shard per sampler at minimum (each
	// writer partition must own at least one shard), and NewRing clamps the
	// shard count down to the capacity — so raise both floors here.
	if cfg.RingShards < len(cfg.Levels) {
		cfg.RingShards = len(cfg.Levels)
	}
	if cfg.RingCapacity < cfg.RingShards {
		cfg.RingCapacity = cfg.RingShards
	}
	m := &Monitor{
		app:       app,
		cfg:       cfg,
		ring:      NewRing(cfg.RingCapacity, cfg.RingShards),
		agg:       NewAggregator(0),
		mem:       NewMemorySink(),
		budgetPct: cfg.OverheadBudgetPct,
	}
	if wc, ok := app.Binding().(core.WallClocked); ok && wc.WallClock() {
		m.govern = cfg.OverheadBudgetPct > 0
	}
	if comps := app.Components(); len(comps) > 0 {
		m.clockComp = comps[0]
	}
	for i, lp := range cfg.Levels {
		st := &samplerState{
			level:  lp.Level,
			writer: m.ring.Writer(i, len(cfg.Levels)),
			batch:  make([]Sample, 0, ncomps),
		}
		st.timer = app.NewTimer(func() { m.tick(st) })
		st.basePeriodUS.Store(lp.PeriodUS)
		st.effPeriodUS.Store(lp.PeriodUS)
		m.samplers = append(m.samplers, st)
	}
	// The pump follows the samplers: the last one to stop wakes it, so it
	// needs no quiescence wake of its own.
	m.pump = app.Binding().NewTimer(m.window)
	m.windowUS.Store(cfg.WindowUS)
	// The monitor keeps its own copy of the sink list: the memory sink is
	// written ahead of it, by pointer.
	m.cfg.Sinks = slices.Clone(cfg.Sinks)
	// Sinks that record loss accounting alongside the data (the JSONL
	// export) get the monitor's counters wired in here, so every report
	// path can surface drops without the assembly threading the monitor
	// through to its sinks by hand.
	for _, s := range m.cfg.Sinks {
		if ca, ok := s.(CounterAttacher); ok {
			ca.AttachCounters(m)
		}
	}
	return m, nil
}

// Start arms one sampler timer per configured level plus the pump timer.
// They consume no modelled CPU and no process, and they stop re-arming
// once the application has quiesced, so a monitored run leaves the event
// queue as empty as a bare one.
func (m *Monitor) Start() error {
	if m.started {
		return fmt.Errorf("monitor: already started")
	}
	m.started = true
	if m.clockComp != nil {
		m.baseUS = m.app.Binding().NowUS(m.clockComp)
	}
	m.liveSamplers.Store(int32(len(m.samplers)))
	for _, st := range m.samplers {
		m.arm(st)
	}
	m.pump.Reset(m.windowUS.Load())
	return nil
}

// arm arms st's next tick one effective period on. A Stop or a quiescence
// that came while the last tick ran woke a timer with nothing armed, so
// arm fires the tick at once after either.
func (m *Monitor) arm(st *samplerState) {
	st.timer.Reset(st.effPeriodUS.Load())
	if m.stopped.Load() || m.app.Done() {
		st.timer.Wake()
	}
}

// SampleTick is the monitor's per-tick hot path: sweep every component of
// app, writing each component's sample stamped nowUS straight into its slot
// of batch, and push the whole tick through the writer's shard partition
// (one producer-cursor release per shard instead of a lock per sample),
// which copies each slot into the ring once. It returns the accepted count
// and batch for reuse, holding the tick's samples — pass it back on the
// next tick and the steady state allocates nothing. buf is returned as
// passed: the sweep needs no buffer of its own.
//
// It is exported so the top-level benchmarks, the perfstat micro harness
// and the zero-alloc regression test measure exactly the code the sampler
// ticks execute, not a copy that could drift.
func SampleTick(app *core.App, level core.ObsLevel, nowUS int64, w *Writer,
	buf []core.FastSample, batch []Sample) (accepted int, bufOut []core.FastSample, batchOut []Sample) {
	sw := app.BeginSample(level)
	batch = slices.Grow(batch[:0], sw.Len())[:sw.Len()]
	n := 0
	for i := range batch {
		s := &batch[n]
		if sw.Fill(i, &s.FastSample) {
			s.TimeUS, s.Level = nowUS, level
			n++
		}
	}
	batch = batch[:n]
	return w.PushBatch(batch), buf, batch
}

// tick is one sampler tick: one SampleTick unless paused, then the next
// tick one effective period on, until the application is done or Stop was
// called. The last sampler to stop wakes the pump for its final drain.
// Period and pause state are re-read every tick, and on wall-clock
// platforms SetPeriod, Stop and application quiescence fire the tick
// early, so control changes apply now rather than after one period at the
// old setting, and wind-down costs microseconds rather than a period.
func (m *Monitor) tick(st *samplerState) {
	if !m.paused.Load() {
		var t0 time.Time
		if m.govern {
			t0 = time.Now()
		}
		var accepted int
		accepted, _, st.batch = SampleTick(m.app, st.level, m.nowUS(), st.writer, nil, st.batch)
		m.samples.Add(uint64(accepted))
		if m.govern {
			m.observeTickCost(st, time.Since(t0))
		}
	}
	if m.app.Done() || m.stopped.Load() {
		if m.liveSamplers.Add(-1) == 0 {
			m.pump.Wake()
		}
		return
	}
	m.arm(st)
}

// ewmaShift is the adaptive controller's smoothing: each tick contributes
// 1/8 of its cost to the moving average, so a single slow tick (GC pause,
// scheduler hiccup) cannot slam the period, while sustained load moves the
// average within a handful of ticks.
const ewmaShift = 3

// maxBackoffFactor caps the governed period at this multiple of the base
// period: under any load the sampler still samples, just coarsely.
const maxBackoffFactor = 1000

// observeTickCost folds one measured tick cost into the EWMA and
// republishes the effective period.
func (m *Monitor) observeTickCost(st *samplerState, cost time.Duration) {
	c := int64(cost)
	if c < 0 {
		c = 0
	}
	ewma := st.ewmaTickNs.Load()
	if ewma == 0 {
		ewma = c
	} else {
		ewma += (c - ewma) >> ewmaShift
	}
	st.ewmaTickNs.Store(ewma)
	st.effPeriodUS.Store(governPeriodUS(ewma, st.basePeriodUS.Load(), m.budgetPct))
}

// governPeriodUS is the controller law: the smallest period ≥ base at
// which a tick costing ewmaNs stays within budgetPct of host time, capped
// at maxBackoffFactor×base. duty = ewmaNs/(periodUS·1000) ≤ budgetPct/100
// solves to periodUS ≥ ewmaNs/(10·budgetPct).
func governPeriodUS(ewmaNs, baseUS int64, budgetPct float64) int64 {
	if budgetPct <= 0 {
		return baseUS
	}
	eff := baseUS
	if minUS := int64(float64(ewmaNs) / (10 * budgetPct)); minUS > eff {
		eff = minUS
	}
	if capUS := baseUS * maxBackoffFactor; eff > capUS {
		eff = capUS
	}
	return eff
}

// window drains the ring, folds the samples into the aggregator and
// streams the closed windows to the sinks, once a window. Samplers stop
// only once the run is over, so when none is left and a drain came back
// empty, one more drain accounts for every accepted sample: a sampler may
// have pushed its last one after the first drain. Then the ring's buffers
// go back for the next monitor. Until then the pump re-arms for one
// window, and fires again at once if the samplers are already gone.
func (m *Monitor) window() {
	if m.drainAndFlush(m.nowUS()) == 0 && m.liveSamplers.Load() == 0 {
		m.drainAndFlush(m.nowUS())
		m.ring.release()
		return
	}
	m.pump.Reset(m.windowUS.Load())
	if m.liveSamplers.Load() == 0 {
		m.pump.Wake()
	}
}

// drainAndFlush folds every buffered sample into the aggregator, closes the
// window at now and streams it to the sinks, returning how many samples it
// folded. Each sample is folded where it lies in its ring slot and each
// window is written once, into the aggregator's reusable flush buffer; the
// built-in memory sink reads it there, and only the configured sinks take
// a copy. So a window costs no allocation beyond what the sinks retain.
func (m *Monitor) drainAndFlush(now int64) int {
	n := m.ring.fold(m.agg)
	ws := m.agg.Flush(now)
	for i := range ws {
		m.writeWindow(&ws[i])
	}
	return n
}

// writeWindow hands one closed window to the memory sink and then to every
// configured sink, counting the writes they reject.
func (m *Monitor) writeWindow(w *WindowStats) {
	m.mem.writeWindow(w)
	for _, sink := range m.cfg.Sinks {
		if err := sink.WriteWindow(*w); err != nil {
			m.sinkErrs.Add(1)
		}
	}
}

// Stop asks the samplers and the pump to wind down even though the
// application never quiesced — the error-path counterpart of the natural
// exit. On wall-clock platforms it fires the samplers now; in virtual time
// they notice at their next tick, and a simulated run that ends early
// simply drops the armed timers. A wall-clock harness that started the
// monitor and then failed before (or during) the run must call Stop or
// the timers re-arm forever. Safe to call from any goroutine, any number
// of times.
func (m *Monitor) Stop() {
	m.stopped.Store(true)
	for _, st := range m.samplers {
		st.timer.Wake()
	}
}

// SetPeriod retunes every sampler driving the given observation level to a
// new sampling period, live. It is the paper's sampling-rate control
// function exposed at run time (embera-serve's control API lands here) and
// is safe to call from any goroutine on any platform — the samplers read
// the period atomically. On wall-clock platforms the change also fires the
// sampler now, so retuning a 1 s sampler down to 1 ms takes effect now,
// not up to a second later.
func (m *Monitor) SetPeriod(level core.ObsLevel, periodUS int64) error {
	if periodUS <= 0 {
		return fmt.Errorf("monitor: non-positive period %d µs", periodUS)
	}
	found := false
	for _, st := range m.samplers {
		if st.level == level {
			st.basePeriodUS.Store(periodUS)
			if m.govern {
				st.effPeriodUS.Store(governPeriodUS(st.ewmaTickNs.Load(), periodUS, m.budgetPct))
			} else {
				st.effPeriodUS.Store(periodUS)
			}
			st.timer.Wake()
			found = true
		}
	}
	if !found {
		return fmt.Errorf("monitor: no sampler at level %s", level)
	}
	return nil
}

// SetWindowUS changes the aggregation window length, live; the pump picks
// it up immediately on wall-clock platforms and on its next wake on the
// simulators.
func (m *Monitor) SetWindowUS(windowUS int64) error {
	if windowUS <= 0 {
		return fmt.Errorf("monitor: non-positive window %d µs", windowUS)
	}
	m.windowUS.Store(windowUS)
	m.pump.Wake()
	return nil
}

// Pause suspends sampling without stopping the samplers: ticks keep
// firing but take no samples, so Resume restarts observation instantly.
// The pump keeps draining, so windows already buffered still close.
func (m *Monitor) Pause() { m.paused.Store(true) }

// Resume re-enables sampling after a Pause.
func (m *Monitor) Resume() { m.paused.Store(false) }

// Paused reports whether sampling is currently suspended.
func (m *Monitor) Paused() bool { return m.paused.Load() }

// Levels reports the current live sampler configuration — the configured
// (base) periods, reflecting any SetPeriod changes but not the adaptive
// controller's backoff; see EffectiveLevels for what is actually running.
func (m *Monitor) Levels() []LevelPeriod {
	out := make([]LevelPeriod, len(m.samplers))
	for i, st := range m.samplers {
		out[i] = LevelPeriod{Level: st.level, PeriodUS: st.basePeriodUS.Load()}
	}
	return out
}

// EffectiveLevels reports the period each sampler is actually running at:
// equal to Levels unless the adaptive overhead controller has backed a
// sampler off its configured period under load.
func (m *Monitor) EffectiveLevels() []LevelPeriod {
	out := make([]LevelPeriod, len(m.samplers))
	for i, st := range m.samplers {
		out[i] = LevelPeriod{Level: st.level, PeriodUS: st.effPeriodUS.Load()}
	}
	return out
}

// OverheadBudgetPct reports the configured adaptive sampling budget (0 =
// controller off).
func (m *Monitor) OverheadBudgetPct() float64 { return m.budgetPct }

// WindowUS reports the current aggregation window length.
func (m *Monitor) WindowUS() int64 { return m.windowUS.Load() }

// Windows returns every window closed so far, in time order.
func (m *Monitor) Windows() []WindowStats { return m.mem.Windows() }

// Totals merges every closed window into one whole-run aggregate per
// component, sorted by component name.
func (m *Monitor) Totals() []WindowStats { return MergeWindows(m.mem.Windows()) }

// Samples reports how many samples were accepted into the ring.
func (m *Monitor) Samples() uint64 { return m.samples.Load() }

// Ingest merges a window produced by another process's monitor into this
// one: the window is written to every configured sink (the memory sink
// first, so Windows/Totals see it) and its sample count joins the accepted
// total, preserving the exact samples==windowed invariant across process
// boundaries — each sample is counted by exactly one monitor and ingested
// by exactly one aggregator. Safe to call concurrently with the pump: every
// bundled sink serializes WriteWindow internally.
func (m *Monitor) Ingest(w WindowStats) {
	m.writeWindow(&w)
	m.samples.Add(uint64(w.Samples))
}

// Dropped reports how many samples the ring shed under overload.
func (m *Monitor) Dropped() uint64 { return m.ring.Dropped() }

// SinkErrors reports how many window writes a sink rejected.
func (m *Monitor) SinkErrors() uint64 { return m.sinkErrs.Load() }

// Ring exposes the buffer stage (capacity/shard introspection).
func (m *Monitor) Ring() *Ring { return m.ring }

// FormatTotals renders whole-run totals as the aligned rate/percentile
// table cmd/embera-monitor prints, with the loss accounting — ring drops
// and sink errors — appended so no report path can hide shed data.
func FormatTotals(totals []WindowStats, dropped, sinkErrors uint64) string {
	rows := append([]WindowStats(nil), totals...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Component < rows[j].Component })
	out := fmt.Sprintf("%-16s %8s %10s %10s %9s %7s %7s %7s %9s\n",
		"component", "samples", "send/s", "recv/s", "depth-hw", "d-p50", "d-p95", "d-p99", "lat-p95")
	for _, w := range rows {
		out += fmt.Sprintf("%-16s %8d %10.1f %10.1f %9d %7d %7d %7d %8dµ\n",
			w.Component, w.Samples, w.SendRate, w.RecvRate, w.DepthHigh,
			w.DepthHist.Quantile(0.50), w.DepthHist.Quantile(0.95), w.DepthHist.Quantile(0.99),
			w.LatencyHist.Quantile(0.95))
	}
	out += fmt.Sprintf("ring drops: %d\n", dropped)
	out += fmt.Sprintf("sink errors: %d\n", sinkErrors)
	return out
}
