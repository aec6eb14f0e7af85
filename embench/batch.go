package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"embera/internal/core"
	"embera/internal/exp"
	"embera/internal/monitor"
	"embera/internal/platform"
	"embera/internal/trace"
)

// clockBase anchors every wall-clock stamp the benchmark takes.
var clockBase = time.Now()

func nowNS() int64 { return time.Since(clockBase).Nanoseconds() }

func at(ns int64) time.Time { return clockBase.Add(time.Duration(ns)) }

// Sampling configuration of every observed run: application-level sampling
// every 1 ms of platform time into 10 ms windows.
const (
	samplePeriodUS = 1000
	windowUS       = 10_000
)

// cell is one platform × workload × input combination.
type cell struct {
	p    platform.Platform
	w    platform.Workload
	opts platform.Options
}

// cellRun is one timed exp.Run and what the benchmark saw of it, reduced
// to the numbers the metrics need so a long run does not hold every run's
// assembly and windows in memory.
type cellRun struct {
	// total spans exp.Run entry to return. prepare ends at the Customize
	// hook, run at the quiescence seen by the benchmark's own flow,
	// finish at exp.Run's return.
	total, prepare, run, finish time.Duration

	units      int
	checksum   uint64
	makespanUS int64
	msgs       uint64 // send operations over the final observation reports
	bytes      uint64 // modelled bytes of those sends
	wireFrames uint64 // data frames relayed across shards (cluster)
	lostFrames uint64

	samples, windows, ringDropped, sinkErrors uint64
	traceEvents                               uint64

	// res is kept only for a run whose data a replay needs.
	res *exp.Result
}

// runCell executes one exp.Run of c, observed (the monitor sampling into
// memory) or bare, optionally traced, and checks everything that can be
// checked from outside: the run's error, the workload self-check, ring
// drops, sink errors, lost frames, leaked goroutines and surviving cluster
// workers. A non-nil error means the run failed. With keep, the full
// result stays attached.
func (b *bench) runCell(c cell, observed, traced, keep bool, parent int) (*cellRun, error) {
	goroutines := runtime.NumGoroutine()
	runID := b.spans.newRun()

	opts := exp.Options{Options: c.opts}
	var windows atomic.Uint64
	if observed {
		opts.Monitor = &monitor.Config{
			Levels:   []monitor.LevelPeriod{{Level: core.LevelApplication, PeriodUS: samplePeriodUS}},
			WindowUS: windowUS,
			Sinks: []monitor.Sink{monitor.SinkFunc(func(monitor.WindowStats) error {
				windows.Add(1)
				return nil
			})},
		}
	}
	var rec *trace.Recorder
	if traced {
		rec = trace.NewRecorder(1 << 16)
		opts.EventSink = rec
	}
	var tCustom, tQuiet atomic.Int64
	opts.Customize = func(a *core.App, _ *core.Observer) {
		tCustom.Store(nowNS())
		a.SpawnDriver("embench/quiescence", func(f core.Flow) {
			a.AwaitQuiescence(f)
			tQuiet.Store(nowNS())
		})
	}

	t0 := nowNS()
	res, err := exp.Run(c.p, c.w, opts)
	t3 := nowNS()
	cr := &cellRun{
		total:   time.Duration(t3 - t0),
		prepare: time.Duration(tCustom.Load() - t0),
		run:     time.Duration(tQuiet.Load() - tCustom.Load()),
		finish:  time.Duration(t3 - tQuiet.Load()),
		windows: windows.Load(),
	}
	if rec != nil {
		cr.traceEvents, _ = rec.Stats()
	}
	if b.spans.on {
		id := b.spans.add("exp.Run", parent, runID, at(t0), at(t3))
		b.spans.add("exp.prepare", id, runID, at(t0), at(tCustom.Load()))
		b.spans.add("exp.run", id, runID, at(tCustom.Load()), at(tQuiet.Load()))
		b.spans.add("exp.finish", id, runID, at(tQuiet.Load()), at(t3))
	}

	var errs []error
	if err != nil {
		errs = append(errs, err)
	}
	// A simulated run's observation services are daemon processes the
	// kernel leaves parked, one goroutine each, when the run ends; the
	// kernel counts them as live. Every other goroutine must be gone.
	parked := 0
	if res != nil {
		if keep {
			cr.res = res
		}
		if res.Kernel != nil {
			parked = res.Kernel.Live()
		}
		cr.units, cr.checksum, cr.makespanUS = res.Instance.Units(), res.Instance.Checksum(), res.MakespanUS
		cr.msgs, cr.bytes = sends(res.Reports)
		cr.wireFrames = wireFrames(res)
		if cerr := res.Instance.Check(); cerr != nil {
			errs = append(errs, cerr)
		}
		if res.Monitor != nil {
			cr.samples = res.Monitor.Samples()
			cr.ringDropped, cr.sinkErrors = res.Monitor.Dropped(), res.Monitor.SinkErrors()
			if cr.ringDropped != 0 {
				errs = append(errs, fmt.Errorf("monitor ring dropped %d samples", cr.ringDropped))
			}
			if cr.sinkErrors != 0 {
				errs = append(errs, fmt.Errorf("%d monitor sink errors", cr.sinkErrors))
			}
		}
		if lf, ok := res.Machine.(interface{ LostFrames() uint64 }); ok {
			if cr.lostFrames = lf.LostFrames(); cr.lostFrames != 0 {
				errs = append(errs, fmt.Errorf("cluster lost %d frames", cr.lostFrames))
			}
		}
		if wp, ok := res.Machine.(interface{ WorkerPIDs() []int }); ok {
			if err := checkWorkersGone(wp.WorkerPIDs()); err != nil {
				errs = append(errs, err)
			}
		}
	}
	if err := checkGoroutines(goroutines + parked); err != nil {
		errs = append(errs, err)
	}
	if len(errs) > 0 {
		return cr, fmt.Errorf("%s × %s: %w", c.p.Name(), c.w.Name(), errors.Join(errs...))
	}
	return cr, nil
}

// pair runs c observed and bare in the given order, each from a collected
// heap, holding each run to check as well; ok reports that both passed.
func (b *bench) pair(c cell, observedFirst, traced bool, parent int,
	check func(cr *cellRun, observed bool) error) (obs, bare *cellRun, ok bool) {
	ok = true
	for k := 0; k < 2; k++ {
		observed := (k == 0) == observedFirst
		runtime.GC()
		cr, err := b.runCell(c, observed, traced, traced && observed, parent)
		if err == nil {
			err = check(cr, observed)
		}
		b.op(err)
		ok = ok && err == nil
		if observed {
			obs = cr
		} else {
			bare = cr
		}
	}
	return obs, bare, ok
}

// measureRounds calls round until the measured interval is over, and at
// least twice. Traced invocations alternate traced and untraced rounds, so
// the tracing overhead is measured within one process; the order of the
// observed and bare runs alternates either way. It returns each round's
// resident-memory high-water mark.
func (b *bench) measureRounds(round func(traced, observedFirst bool, parent int)) []float64 {
	var rss []float64
	deadline := b.deadline()
	for r := 0; r < 2 || time.Now().Before(deadline); r++ {
		traced := b.cfg.trace && r%2 == 0
		observedFirst := r%2 == 0
		if b.cfg.trace {
			observedFirst = (r/2)%2 == 0
		}
		beginRSSRound()
		parent := 0
		if traced {
			parent = b.spans.open("round", 0, b.spans.newRun())
		}
		round(traced, observedFirst, parent)
		b.spans.close(parent)
		rss = append(rss, endRSSRound())
	}
	return rss
}

// wireFrames sums the coordinator's relayed data frames over every edge
// that crosses shards (0 on unsharded platforms).
func wireFrames(res *exp.Result) uint64 {
	wf, ok := res.Machine.(interface {
		WireFrames(from, iface string) (uint64, bool)
	})
	if !ok {
		return 0
	}
	var n uint64
	for _, comp := range res.App.Components() {
		for _, conn := range comp.Connections() {
			if f, cross := wf.WireFrames(comp.Name(), conn.FromIface); cross {
				n += f
			}
		}
	}
	return n
}

// checkGoroutines is the leak guard: the goroutine count must fall back to
// its level before the run within a deadline.
func checkGoroutines(before int) error {
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= before {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("goroutine leak: %d running after the run, %d before", n, before)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// checkWorkersGone probes every cluster worker pid with signal 0: a worker
// process that still exists after its run has leaked.
func checkWorkersGone(pids []int) error {
	deadline := time.Now().Add(3 * time.Second)
	for _, pid := range pids {
		for syscall.Kill(pid, 0) == nil {
			if time.Now().After(deadline) {
				return fmt.Errorf("cluster worker pid %d outlived its run", pid)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// sends sums send operations and modelled bytes over a run's final
// observation reports.
func sends(reports map[string]core.ObsReport) (msgs, bytes uint64) {
	for _, rep := range reports {
		if rep.Middleware == nil {
			continue
		}
		for _, st := range rep.Middleware.Send {
			msgs += st.Ops
			bytes += st.Bytes
		}
	}
	return msgs, bytes
}

func seconds(d time.Duration) float64 { return d.Seconds() }
