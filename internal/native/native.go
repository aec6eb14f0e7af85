// Package native implements the EMBera platform binding on the host Go
// runtime itself: a component is a data structure and a goroutine, exactly
// the paper's "a data structure and a POSIX thread" (§4) with the Go
// scheduler standing in for the pthread library. Provided interfaces are
// bounded, byte-accounted FIFO mailboxes whose blocked flows queue in FIFO
// order and are served directly, each parked on its own reusable waiter.
// A kill sets one flag that every primitive of the component's flow reads,
// so a parked flow waits only on its own waiter and a sleeping flow only on
// its own timer; Kill finds where the flow waits and wakes it there.
// Middleware timestamps come from the wall clock behind the same
// core.Binding.NowUS seam the simulated platforms use; OS-level observation
// reports real elapsed execution time and the component's structural memory
// (goroutine stack estimate plus interface buffers plus live buffered
// bytes).
//
// Unlike internal/smpbind and internal/os21bind this binding is not backed
// by the discrete-event kernel: component bodies run concurrently on real
// cores and all timing is wall-clock, so runs are fast and non-reproducible
// in their timings while remaining bit-identical in their results (the
// conformance matrix asserts workload checksums across all three
// platforms). It is the harness's vehicle for real-throughput experiments:
// the same assembly, the same observation interfaces, but executed as fast
// as the hardware allows.
package native

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"embera/internal/core"
)

// DefaultMailboxBytes is the default provided-interface buffer capacity
// when the assembly does not size it explicitly.
const DefaultMailboxBytes int64 = 1 << 20

// GoroutineStackBytes is the per-component stack charge reported in the
// OS-level memory view. Goroutine stacks grow dynamically; this is the
// steady-state figure charged uniformly so memory reports stay comparable
// across components.
const GoroutineStackBytes int64 = 8 * 1024

// killedPanic is the sentinel the binding throws through a killed
// component's flow. core.Component.run recovers it, performs the framework
// cleanup and re-panics; the spawn wrapper absorbs it.
type killedPanic struct{ comp string }

// Binding maps EMBera onto goroutines and channels.
type Binding struct {
	epoch time.Time

	locations int

	comps    sync.WaitGroup // component goroutines
	drivers  sync.WaitGroup // harness driver goroutines (waited on by Run)
	services sync.WaitGroup // daemon service goroutines (stopped at teardown)

	mu     sync.Mutex
	queues []*queue // service queues, closed at teardown
}

// NewBinding creates a binding whose placement topology has the given
// number of locations (callers typically pass runtime.NumCPU()). Placement
// is advisory on this platform: the Go scheduler owns core assignment.
func NewBinding(locations int) *Binding {
	if locations < 1 {
		locations = 1
	}
	return &Binding{epoch: time.Now(), locations: locations}
}

// platData is the per-component platform state.
type platData struct {
	// killed is the kill flag every primitive of the component's flow
	// reads; flow is that flow, published at spawn so a kill can find
	// where it waits.
	killed atomic.Bool
	flow   atomic.Pointer[flow]

	startNS atomic.Int64 // wall ns since epoch at spawn; 0 = not spawned
	endNS   atomic.Int64 // wall ns since epoch at exit; 0 = still running

	memBytes atomic.Int64 // stack estimate + provided-interface capacities
	// mailboxes is the provided-mailbox list for live-occupancy memory,
	// copy-on-write: NewMailbox publishes a fresh slice under the binding
	// lock, OSView readers (the monitor's per-tick sweep) load it lock-free.
	mailboxes atomic.Pointer[[]*mailbox]
}

// PlatformName implements core.Binding.
func (b *Binding) PlatformName() string {
	return fmt.Sprintf("native Go runtime (%d-location topology, goroutines + channel mailboxes)",
		b.locations)
}

// data returns (creating on first use) the component's platform state.
// The fast path is a lock-free atomic load: on this platform the monitor's
// sampler calls data for every component on every tick, and taking the
// binding lock here made each OS-level sample contend with every other
// observation and spawn in the process. Creation is double-checked under
// the lock and published atomically.
func (b *Binding) data(c *core.Component) *platData {
	if d, ok := c.PlatformData().(*platData); ok {
		return d
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if d, ok := c.PlatformData().(*platData); ok {
		return d
	}
	d := &platData{}
	d.memBytes.Store(GoroutineStackBytes)
	c.SetPlatformData(d)
	return d
}

// nowNS is the wall clock in nanoseconds since the binding's epoch.
func (b *Binding) nowNS() int64 { return int64(time.Since(b.epoch)) }

// Spawn implements core.Binding: the component body runs on its own
// goroutine. A kill unwinds the flow with the sentinel panic, which the
// wrapper absorbs after core's framework cleanup has run; any other panic
// is a genuine application bug and propagates.
func (b *Binding) Spawn(c *core.Component, run func(f core.Flow)) error {
	d := b.data(c)
	d.startNS.Store(b.nowNS())
	f := &flow{b: b, comp: d}
	d.flow.Store(f)
	b.comps.Add(1)
	go func() {
		defer b.comps.Done()
		defer func() {
			d.endNS.CompareAndSwap(0, b.nowNS())
			if r := recover(); r != nil {
				if _, isKill := r.(killedPanic); isKill {
					return
				}
				panic(r)
			}
		}()
		run(f)
	}()
	return nil
}

// SpawnService implements core.Binding: a daemon goroutine. Services exit
// when their queues close at teardown; the machine stops them, not the
// application.
func (b *Binding) SpawnService(name string, run func(f core.Flow)) {
	b.services.Add(1)
	go func() {
		defer b.services.Done()
		run(&flow{b: b})
	}()
}

// SpawnDriver implements core.Binding: a harness goroutine the machine
// waits for before declaring the run complete.
func (b *Binding) SpawnDriver(name string, run func(f core.Flow)) {
	b.drivers.Add(1)
	go func() {
		defer b.drivers.Done()
		run(&flow{b: b})
	}()
}

// NewMailbox implements core.Binding: a bounded, byte-accounted FIFO
// charged to the component's memory.
func (b *Binding) NewMailbox(c *core.Component, iface string, bufBytes int64) (core.Mailbox, error) {
	if bufBytes == 0 {
		bufBytes = DefaultMailboxBytes
	}
	d := b.data(c)
	mb := newMailbox(c.Name()+"."+iface, bufBytes)
	b.mu.Lock()
	var boxes []*mailbox
	if p := d.mailboxes.Load(); p != nil {
		boxes = append(boxes, *p...)
	}
	boxes = append(boxes, mb)
	d.mailboxes.Store(&boxes)
	b.mu.Unlock()
	d.memBytes.Add(bufBytes)
	return mb, nil
}

// NewServiceQueue implements core.Binding: an unbounded, unaccounted queue
// for observation traffic, closed at machine teardown so service flows
// terminate.
func (b *Binding) NewServiceQueue(name string) core.Mailbox {
	q := newQueue(name)
	b.mu.Lock()
	b.queues = append(b.queues, q)
	b.mu.Unlock()
	return q
}

// NowUS implements core.Binding: one global wall clock at microsecond
// resolution (the gettimeofday of §4.2, for real this time).
func (b *Binding) NowUS(c *core.Component) int64 {
	return b.nowNS() / int64(time.Microsecond)
}

// OSView implements core.Binding. Execution time is real elapsed wall time
// between spawn and exit; memory is the goroutine stack charge plus the
// provided-interface buffer capacities plus the bytes currently buffered in
// them — so sampling MemBytes over a run shows the pipeline filling and
// draining.
func (b *Binding) OSView(c *core.Component) core.OSReport {
	return b.osView(c, b.nowNS())
}

// BeginSweep implements core.SweepViewer: one wall-clock read covering a
// whole SampleAll sweep.
func (b *Binding) BeginSweep() int64 { return b.nowNS() }

// OSViewAt implements core.SweepViewer: OSView against the sweep's shared
// clock reading instead of a fresh time.Now per component.
func (b *Binding) OSViewAt(c *core.Component, cookie int64) core.OSReport {
	return b.osView(c, cookie)
}

// osView builds the OS-level report against the given wall-clock reading,
// entirely from atomics — the per-tick observation sweep takes no lock.
func (b *Binding) osView(c *core.Component, nowNS int64) core.OSReport {
	d := b.data(c)
	rep := core.OSReport{}
	start := d.startNS.Load()
	if start == 0 {
		return rep // not spawned yet
	}
	end := d.endNS.Load()
	if end == 0 && c.State() == core.StateDone {
		// Core publishes done from inside the flow, before the spawn
		// wrapper stamps the end: stamp it here, so a report taken once
		// App.Done holds never reads a finished component as running.
		d.endNS.CompareAndSwap(0, b.nowNS())
		end = d.endNS.Load()
	}
	if end != 0 {
		rep.ExecTimeUS = (end - start) / int64(time.Microsecond)
	} else {
		rep.Running = true
		if nowNS > start {
			// A sweep cookie predating this component's spawn reads as
			// zero elapsed time, never negative.
			rep.ExecTimeUS = (nowNS - start) / int64(time.Microsecond)
		}
	}
	mem := d.memBytes.Load()
	if p := d.mailboxes.Load(); p != nil {
		for _, mb := range *p {
			mem += mb.PendingBytes()
		}
	}
	rep.MemBytes = mem
	return rep
}

// WallClock implements core.WallClocked: all timing on this platform is
// host wall-clock time.
func (b *Binding) WallClock() bool { return true }

// Kill implements core.Binding: the component's flow unwinds with the
// sentinel panic where it waits, or the next time it computes, sleeps or
// parks.
func (b *Binding) Kill(c *core.Component) { b.data(c).kill() }

// kill sets the component's kill flag, once, then wakes its flow wherever
// it waits. The flag is set before the flow's waiting place is read; a
// flow publishes its waiting place before it reads the flag.
func (d *platData) kill() {
	if d.killed.Swap(true) {
		return
	}
	if f := d.flow.Load(); f != nil {
		f.interrupt()
	}
}

var _ core.Binding = (*Binding)(nil)

// flow adapts a goroutine to core.Flow. Component flows carry their
// component's platform state and its kill flag; service and driver flows
// have none (nil) and can never unwind. The flow reuses w for every park
// and timer for every sleep; only its own goroutine touches them, apart
// from whoever unlinks w while it is parked and a kill firing the timer.
type flow struct {
	b    *Binding
	comp *platData

	w     waiter
	timer *time.Timer
	// parkedOn is the queue a component flow is parked on, and sleeping is
	// set while it waits on its timer: each is published before the flow
	// reads its kill flag, so a kill that the flow misses finds it.
	parkedOn atomic.Pointer[waitq]
	sleeping atomic.Bool
}

// waiter returns the flow's reusable waiter, making its ready channel on
// the first park.
func (f *flow) waiter() *waiter {
	if f.w.ready == nil {
		f.w.ready = make(chan struct{}, 1)
	}
	return &f.w
}

// Compute implements core.Flow. Modelled cycles cost no wall time: on the
// native platform the body's real computation is the work, and the
// platform's job is to run it as fast as the hardware allows.
func (f *flow) Compute(int64) { f.checkKilled() }

// SleepUS implements core.Flow with a real wall-clock sleep. A component
// flow waits on its own timer only; a kill fires it early.
func (f *flow) SleepUS(us int64) {
	f.checkKilled()
	if us <= 0 {
		// Yield the processor, as the simulated flows do for zero sleeps.
		runtime.Gosched()
		return
	}
	d := time.Duration(us) * time.Microsecond
	if f.comp == nil {
		time.Sleep(d)
		return
	}
	if f.timer == nil {
		f.timer = time.NewTimer(d)
	} else {
		f.timer.Reset(d) // no stale tick survives a Reset since Go 1.23
	}
	f.sleeping.Store(true)
	if f.comp.killed.Load() {
		f.interrupt()
	}
	<-f.timer.C
	f.sleeping.Store(false)
	f.checkKilled()
}

// checkKilled unwinds the flow if the component has been killed.
func (f *flow) checkKilled() {
	if f.comp != nil && f.comp.killed.Load() {
		panic(killedPanic{})
	}
}

// interrupt wakes a killed component flow wherever it waits: it unlinks
// the flow's waiter from the queue it is parked on, under that mailbox's
// lock, and signals it, or it fires the flow's sleep timer now. A flow that
// is not waiting finds the flag at its next primitive. Both the kill and
// the flow itself, when it finds the flag right after publishing where it
// waits, call it; only one of them unlinks the waiter.
func (f *flow) interrupt() {
	if q := f.parkedOn.Load(); q != nil {
		q.mu.Lock()
		if q.remove(&f.w) {
			f.w.killed = true
			q.mu.Unlock()
			f.w.ready <- struct{}{}
			return
		}
		q.mu.Unlock()
	}
	if f.sleeping.Load() {
		f.timer.Reset(0)
	}
}
