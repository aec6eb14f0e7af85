// Package exp contains the experiment harness: one runner per table and
// figure of the paper's evaluation (Table 1, Table 2, Figure 4, Figure 5 on
// SMP; Table 3, Figure 8 on the STi7200), plus the ablations listed in
// DESIGN.md §5. Every experiment goes through the single Run entry point,
// which executes any registered workload on any registered platform and
// owns the observer, monitor and trace attachment. cmd/embera-bench and the
// top-level benchmarks drive these runners; EXPERIMENTS.md records
// paper-vs-measured for each.
package exp

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"embera/internal/core"
	"embera/internal/mjpeg"
	"embera/internal/mjpegapp"
	"embera/internal/monitor"
	"embera/internal/pipelineapp"
	"embera/internal/platform"
	"embera/internal/sim"
)

// Reference workload: the paper's inputs are two MJPEG videos of 578 and
// 3000 frames with identical dimensions. We synthesize equivalents.
const (
	RefW       = mjpegapp.RefW
	RefH       = mjpegapp.RefH
	RefQuality = mjpegapp.RefQuality

	// SmallFrames and LargeFrames are the paper's input sizes.
	SmallFrames = 578
	LargeFrames = 3000
)

// Both workload packages register themselves on import; referencing them
// here guarantees every exp user sees a fully populated registry.
var _ = pipelineapp.DefaultConfig

var (
	streamMu    sync.Mutex
	streamCache = map[int][]byte{}
)

// RefStream returns (and caches) the reference MJPEG stream with the given
// frame count.
func RefStream(frames int) ([]byte, error) {
	streamMu.Lock()
	defer streamMu.Unlock()
	if s, ok := streamCache[frames]; ok {
		return s, nil
	}
	s, err := mjpeg.SynthStream(RefW, RefH, frames, mjpeg.EncodeOptions{Quality: RefQuality})
	if err != nil {
		return nil, err
	}
	streamCache[frames] = s
	return s, nil
}

// horizon bounds every simulated run; hitting it is reported as an error.
const horizon = sim.Time(100 * 3600 * sim.Second)

// wallHorizonUS bounds wall-clock (non-deterministic) runs: five minutes of
// real time is far beyond any workload in this repository, so reaching it
// means the run hung.
const wallHorizonUS = int64(5 * 60 * 1e6)

// Options configures one Run beyond the platform × workload choice. The
// embedded platform.Options carries the workload inputs (Scale, Stream,
// MessageBytes); the rest attaches harness machinery.
type Options struct {
	platform.Options

	// EventSink, when non-nil, receives every instrumentation event (the
	// binary trace recorder, the kptrace bridge). Attached before Start.
	EventSink core.EventSink
	// Monitor, when non-nil, attaches a streaming observation pipeline
	// with this configuration; the running monitor is returned on Run.
	Monitor *monitor.Config
	// OnMonitor, when non-nil (and Monitor asked for a pipeline), receives
	// the live monitor right after it starts — the hook long-running front
	// ends (exp.RunServed, embera-serve) use to apply sampling-period,
	// window and pause control to a run already in flight.
	OnMonitor func(m *monitor.Monitor)
	// Customize runs after the observer is attached and before Start —
	// extra drivers, probes, sinks.
	Customize func(a *core.App, obs *core.Observer)
}

// distributor is the structural seam a machine exposes when it shards the
// built assembly across processes (the cluster platform). The runner calls
// it between workload build and monitor creation.
type distributor interface {
	Distribute(workload string, opts platform.Options, inst platform.Instance) error
}

// monitorTaker is the companion seam: the machine receives the run's live
// monitor (for central window ingestion, its policy mirrored to every
// shard) and its configuration right after the monitor starts.
type monitorTaker interface {
	TakeMonitor(mon *monitor.Monitor, cfg *monitor.Config)
}

// validate rejects malformed options before any machinery is built, so a
// bad sweep parameter surfaces as an error at the harness boundary instead
// of a panic deep inside monitor or workload setup.
func (o *Options) validate() error {
	if o.Scale < 0 {
		return fmt.Errorf("exp: negative scale %d", o.Scale)
	}
	if o.MessageBytes < 0 {
		return fmt.Errorf("exp: negative message size %d", o.MessageBytes)
	}
	if o.Monitor != nil {
		for _, lp := range o.Monitor.Levels {
			if lp.PeriodUS <= 0 {
				return fmt.Errorf("exp: monitor level %s has non-positive period %d µs",
					lp.Level, lp.PeriodUS)
			}
		}
		if o.Monitor.WindowUS < 0 {
			return fmt.Errorf("exp: negative monitor window %d µs", o.Monitor.WindowUS)
		}
		for i, s := range o.Monitor.Sinks {
			if s == nil {
				return fmt.Errorf("exp: monitor sink %d is nil", i)
			}
		}
	}
	return nil
}

// Result is a completed run with its observation reports.
type Result struct {
	Platform platform.Platform
	// Machine is the platform instance that executed the run.
	Machine platform.Machine
	// Kernel is the discrete-event kernel on simulated platforms, nil on
	// wall-clock ones (it is Machine.Kernel(), kept for convenience).
	Kernel *sim.Kernel
	App    *core.App
	// Instance is the workload's result tracker (units, checksum).
	Instance platform.Instance
	// Monitor is the streaming pipeline, when Options.Monitor asked for one.
	Monitor *monitor.Monitor
	Reports map[string]core.ObsReport
	// MakespanUS is the platform time at which the last component finished:
	// virtual µs on simulated platforms, wall-clock µs on native.
	MakespanUS int64
}

// cell is one execution of a workload on a fresh machine: what the run
// lifecycle builds and hands to its caller's hooks.
type cell struct {
	m    platform.Machine
	a    *core.App
	inst platform.Instance
	mon  *monitor.Monitor // nil when the options ask for no monitor
	obs  *core.Observer
}

// hooks are a lifecycle caller's own steps, each run at a fixed point of
// the sequence.
type hooks struct {
	// live, when non-nil, runs once the monitor is started and handed to
	// the machine.
	live func(c *cell)
	// beforeStart and afterStart, when non-nil, spawn the caller's driver
	// on either side of Start. On the simulators spawn order breaks ties
	// between events at the same virtual time, so a driver keeps its side.
	beforeStart, afterStart func(c *cell)
	// finish runs once the application finished within the horizon; its
	// error fails the run.
	finish func(c *cell) error
}

// lifecycle runs workload w once on a fresh machine of p: build,
// distribute where the machine shards, attach the event sink, start the
// monitor, attach the observer, Customize, start, and run the machine to
// the platform horizon. It is the one run sequence behind Run and every
// served generation. The cell comes back even on failure once the machine
// exists, and any failure, finish's included, stops a started monitor: on
// wall-clock platforms its timers would otherwise keep re-arming on a run
// that may never quiesce.
func lifecycle(p platform.Platform, w platform.Workload, opts Options, h hooks) (c *cell, err error) {
	c = &cell{}
	c.m, c.a = p.New(w.Name())
	defer func() {
		if err != nil && c.mon != nil {
			c.mon.Stop()
		}
	}()
	if c.inst, err = w.Build(c.a, p, opts.Options); err != nil {
		return c, err
	}
	// Machines that shard the assembly across processes (cluster) take the
	// distribution seam here — after the workload is built, before the
	// monitor exists, so every component is marked external before the
	// first sampling tick.
	if d, ok := c.m.(distributor); ok {
		if err = d.Distribute(w.Name(), opts.Options, c.inst); err != nil {
			return c, err
		}
	}
	if opts.EventSink != nil {
		c.a.SetEventSink(opts.EventSink)
	}
	if opts.Monitor != nil {
		var mon *monitor.Monitor
		if mon, err = monitor.New(c.a, *opts.Monitor); err != nil {
			return c, err
		}
		if err = mon.Start(); err != nil {
			return c, err
		}
		c.mon = mon
		if opts.OnMonitor != nil {
			opts.OnMonitor(mon)
		}
		// Sharding machines also take the live monitor: worker windows are
		// ingested into it centrally, and its live policy mirrors into
		// every shard.
		if mt, ok := c.m.(monitorTaker); ok {
			mt.TakeMonitor(mon, opts.Monitor)
		}
	}
	if h.live != nil {
		h.live(c)
	}
	if c.obs, err = c.a.AttachObserver(); err != nil {
		return c, err
	}
	if opts.Customize != nil {
		opts.Customize(c.a, c.obs)
	}
	if h.beforeStart != nil {
		h.beforeStart(c)
	}
	if err = c.a.Start(); err != nil {
		return c, err
	}
	if h.afterStart != nil {
		h.afterStart(c)
	}
	horizonUS := int64(horizon) / int64(sim.Microsecond)
	if !p.Deterministic() {
		horizonUS = wallHorizonUS
	}
	if err = c.m.Run(horizonUS); err != nil {
		return c, err
	}
	if !c.a.Done() {
		return c, fmt.Errorf("exp: application did not finish before the horizon")
	}
	return c, h.finish(c)
}

// check runs the workload's self-check on a finished cell.
func (c *cell) check() error {
	if err := c.inst.Check(); err != nil {
		return fmt.Errorf("exp: workload self-check: %w", err)
	}
	return nil
}

// Run executes workload w on platform p to completion and collects
// observations through the in-application observer. It is the single
// harness path: every binary, experiment, benchmark and conformance cell
// funnels through here, on simulated and wall-clock platforms alike.
func Run(p platform.Platform, w platform.Workload, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	r := &Result{Platform: p}
	var qErr error
	c, err := lifecycle(p, w, opts, hooks{
		afterStart: func(c *cell) {
			c.a.SpawnDriver("exp-driver", func(f core.Flow) {
				c.a.AwaitQuiescence(f)
				r.MakespanUS = c.m.NowUS()
				r.Reports, qErr = c.obs.QueryAll(f, core.LevelAll)
			})
		},
		finish: func(c *cell) error {
			if qErr != nil {
				return qErr
			}
			if r.Reports == nil {
				return fmt.Errorf("exp: observer queries never ran")
			}
			return c.check()
		},
	})
	if err != nil {
		return nil, err
	}
	r.Machine, r.Kernel, r.App, r.Instance, r.Monitor = c.m, c.m.Kernel(), c.a, c.inst, c.mon
	return r, nil
}

// HostCost is the host-side price of one Run: wall-clock time and heap
// allocation between entry and exit, as read from runtime.MemStats. It is
// what the perfstat harness records per platform×workload cell to quantify
// observation overhead.
type HostCost struct {
	WallNs int64
	Allocs uint64
	Bytes  uint64
}

// MeasuredRun is Run bracketed by host-cost accounting. The memory-stats
// read pairs are cheap relative to any run, but callers comparing cells
// should still run cells back-to-back on an otherwise idle process so GC
// timing noise stays small relative to the measured work.
func MeasuredRun(p platform.Platform, w platform.Workload, opts Options) (*Result, HostCost, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	r, err := Run(p, w, opts)
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return r, HostCost{
		WallNs: wall.Nanoseconds(),
		Allocs: m1.Mallocs - m0.Mallocs,
		Bytes:  m1.TotalAlloc - m0.TotalAlloc,
	}, err
}

// RunNamed resolves both registries and runs. Unknown names return the
// registry errors, which list the valid choices.
func RunNamed(platformName, workloadName string, opts Options) (*Result, error) {
	p, err := platform.Get(platformName)
	if err != nil {
		return nil, err
	}
	w, err := platform.GetWorkload(workloadName)
	if err != nil {
		return nil, err
	}
	return Run(p, w, opts)
}

// SMP and STi7200 return the two registered paper platforms, the fixed
// points the paper's tables and figures are defined on.
func SMP() platform.Platform { return platform.MustGet("smp") }

// STi7200 returns the registered STi7200 platform.
func STi7200() platform.Platform { return platform.MustGet("sti7200") }

// mjpegCfg is shorthand for the paper's deployment of the decoder on p.
func mjpegCfg(stream []byte, p platform.Platform) mjpegapp.Config {
	return mjpegapp.ConfigFor(stream, p.Topology())
}

// runMJPEG runs an explicit decoder configuration on p.
func runMJPEG(p platform.Platform, cfg mjpegapp.Config, opts Options) (*Result, error) {
	return Run(p, mjpegapp.NewWorkload(cfg), opts)
}
