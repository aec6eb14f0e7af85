// Package smpbind implements the EMBera platform binding of §4 of the
// paper: "An EMBera application is a Linux user process. A component is a
// data structure and a POSIX thread. ... A provided interface receives
// messages ... implemented as a FIFO data structure, we have named mailbox.
// A required interface corresponds to a pointer towards a provided interface
// (mailbox)."
//
// Components become threads of one Linux process on the modelled 16-core
// NUMA machine; provided interfaces become byte-bounded FIFO mailboxes whose
// send cost is the NUMA copy cost between the sender's and the receiver's
// nodes. OS-level observation uses gettimeofday, thread stack sizes and the
// process's tagged memory accounting, exactly the three facilities §4.2
// names.
package smpbind

import (
	"fmt"

	"embera/internal/core"
	"embera/internal/linux"
	"embera/internal/ringbuf"
	"embera/internal/sim"
	"embera/internal/smp"
	"embera/internal/svc"
)

// DefaultMailboxBytes is the default provided-interface buffer size,
// calibrated so the paper's Table 1 memory column reproduces exactly:
// IDCT memory = 8392 kB stack + 2458 kB mailbox = 10850 kB.
const DefaultMailboxBytes int64 = 2458 * 1024

// receivePopCost is the fixed mailbox-pop cost charged to a receiver when a
// message is already waiting (a local dequeue, no cross-node copy).
const receivePopCost = 500 * sim.Nanosecond

// Binding maps EMBera onto the SMP/Linux platform.
type Binding struct {
	Sys  *linux.System
	Proc *linux.Process

	nextAddr uint64
}

// New creates the binding: one Linux user process hosting the application.
func New(sys *linux.System, appName string) *Binding {
	return &Binding{
		Sys:      sys,
		Proc:     sys.NewProcess(appName),
		nextAddr: 0x1000_0000,
	}
}

// platData is the per-component platform state.
type platData struct {
	core   *smp.Core
	thread *linux.Thread
}

// PlatformName implements core.Binding.
func (b *Binding) PlatformName() string {
	return fmt.Sprintf("%d-core SMP / Linux", b.Sys.M.NumCores())
}

// data returns (creating on first use) the component's platform state; core
// assignment happens here so mailboxes created before Spawn know their node.
func (b *Binding) data(c *core.Component) *platData {
	if d, ok := c.PlatformData().(*platData); ok {
		return d
	}
	var cr *smp.Core
	if p := c.Placement(); p >= 0 {
		cr = b.Sys.M.Core(p)
	} else {
		cr = b.Sys.M.NextCore()
	}
	d := &platData{core: cr}
	c.SetPlatformData(d)
	return d
}

// Spawn implements core.Binding: the component becomes a POSIX thread with
// the platform-default stack, pinned to its assigned core.
func (b *Binding) Spawn(c *core.Component, run func(f core.Flow)) error {
	d := b.data(c)
	th, err := b.Proc.CreateThread(c.Name(), linux.ThreadAttr{Core: d.core.ID}, func(t *linux.Thread) {
		run(&flow{t: t})
	})
	if err != nil {
		return err
	}
	d.thread = th
	return nil
}

// SpawnService implements core.Binding via the shared service machinery.
func (b *Binding) SpawnService(name string, run func(f core.Flow)) {
	svc.Spawn(b.Sys.K, name, func(f *svc.Flow) { run(f) })
}

// SpawnDriver implements core.Binding. On the simulated platforms drivers
// share the daemon service machinery unchanged: the kernel already knows
// when the run is over (the event queue drains or the horizon cuts it
// short), so there is nothing extra to wait for.
func (b *Binding) SpawnDriver(name string, run func(f core.Flow)) {
	b.SpawnService(name, run)
}

// NewTimer implements core.Binding with a kernel callback.
func (b *Binding) NewTimer(fn func()) core.Timer { return svc.NewTimer(b.Sys.K, fn) }

// NewServiceQueue implements core.Binding.
func (b *Binding) NewServiceQueue(name string) core.Mailbox {
	return svc.NewQueue(b.Sys.K, name)
}

// NewMailbox implements core.Binding: a byte-bounded FIFO allocated on the
// owner component's NUMA node and charged to the component's tagged memory.
func (b *Binding) NewMailbox(c *core.Component, iface string, bufBytes int64) (core.Mailbox, error) {
	if bufBytes == 0 {
		bufBytes = DefaultMailboxBytes
	}
	d := b.data(c)
	if err := b.Sys.M.Alloc(d.core.Node, bufBytes); err != nil {
		return nil, err
	}
	b.Proc.Mem.Alloc("iface:"+c.Name()+":"+iface, bufBytes)
	mb := &mailbox{
		b:        b,
		node:     d.core.Node,
		capacity: bufBytes,
		addr:     b.nextAddr,
		data:     sim.NewSignal(b.Sys.K, c.Name()+"."+iface+".data"),
		space:    sim.NewSignal(b.Sys.K, c.Name()+"."+iface+".space"),
	}
	b.nextAddr += uint64(bufBytes)
	return mb, nil
}

// NowUS implements core.Binding with gettimeofday: one global wall clock at
// microsecond resolution.
func (b *Binding) NowUS(c *core.Component) int64 {
	return int64(b.Sys.GetTimeOfDay()) / int64(sim.Microsecond)
}

// OSView implements core.Binding. Execution time is "the time elapsed
// between the starting of a component and the termination of its code
// execution" measured with gettimeofday; memory is the thread stack
// (pthread_attr_getstacksize) plus all provided-interface structures.
func (b *Binding) OSView(c *core.Component) core.OSReport {
	d := b.data(c)
	rep := core.OSReport{}
	if th := d.thread; th != nil {
		switch {
		case th.Done():
			rep.ExecTimeUS = int64(th.FinishedAt()-th.StartedAt()) / int64(sim.Microsecond)
		default:
			rep.Running = true
			rep.ExecTimeUS = (int64(b.Sys.K.Now()) - int64(th.StartedAt())) / int64(sim.Microsecond)
		}
		rep.MemBytes = th.StackSize() + b.Proc.Mem.TotalPrefix("iface:"+c.Name()+":")
	}
	if d.core.Cache != nil {
		rep.CacheHits, rep.CacheMisses = d.core.Cache.Stats()
	}
	return rep
}

// Kill implements core.Binding by killing the component's thread process.
func (b *Binding) Kill(c *core.Component) {
	if th := b.data(c).thread; th != nil {
		b.Sys.K.Kill(th.SimProc)
	}
}

// Core returns the core a component was placed on (for tests and reports).
func (b *Binding) Core(c *core.Component) *smp.Core { return b.data(c).core }

var _ core.Binding = (*Binding)(nil)

// flow adapts a Linux thread to core.Flow.
type flow struct {
	t *linux.Thread
}

func (f *flow) Compute(cycles int64) { f.t.Compute(cycles) }

func (f *flow) SleepUS(us int64) {
	if us <= 0 {
		f.t.SimProc.YieldTurn()
		return
	}
	f.t.SimProc.Advance(sim.Duration(us) * sim.Microsecond)
}

// Proc implements svc.ProcHolder so service queues can park this flow.
func (f *flow) Proc() *sim.Proc { return f.t.SimProc }

// mailbox is the §4.1 FIFO: byte-bounded, with NUMA-aware send cost.
type mailbox struct {
	b        *Binding
	node     int // owner's NUMA node
	capacity int64
	addr     uint64

	// buf is head-indexed and resets to its start when drained, so a
	// steady-state sender/receiver pair reuses one backing array instead of
	// re-allocating as the slice window crawls forward.
	buf     []core.Message
	head    int
	pending int64
	closed  bool

	data  *sim.Signal
	space *sim.Signal
}

// Send implements core.Mailbox. The sender pays the copy cost from its node
// to the mailbox's node; it blocks while the buffer lacks room.
func (m *mailbox) Send(sender core.Flow, msg core.Message) bool {
	f, ok := sender.(*flow)
	if !ok {
		// Service flows may inject control traffic at zero cost.
		if m.closed {
			return false
		}
		m.buf = append(m.buf, msg)
		m.pending += int64(msg.Bytes)
		m.data.Fire()
		return true
	}
	if int64(msg.Bytes) > m.capacity {
		panic(fmt.Sprintf("smpbind: message of %d bytes can never fit mailbox of %d bytes",
			msg.Bytes, m.capacity))
	}
	m.space.AwaitWhile(f.t.SimProc, (*lacksRoom)(m), int64(msg.Bytes))
	if m.closed {
		return false
	}
	f.t.CopyTo(m.node, msg.Bytes, m.addr)
	m.buf = append(m.buf, msg)
	m.pending += int64(msg.Bytes)
	m.data.Fire()
	return true
}

// Receive implements core.Mailbox.
func (m *mailbox) Receive(receiver core.Flow) (core.Message, bool) {
	h, ok := receiver.(svc.ProcHolder)
	if !ok {
		panic("smpbind: receive from foreign flow type")
	}
	p := h.Proc()
	m.data.AwaitWhile(p, (*isEmpty)(m), 0)
	if len(m.buf) == m.head {
		return core.Message{}, false // closed and drained
	}
	msg, buf, head := ringbuf.PopFront(m.buf, m.head)
	m.buf, m.head = buf, head
	m.pending -= int64(msg.Bytes)
	p.Advance(receivePopCost)
	m.space.Fire()
	return msg, true
}

// lacksRoom is the Blocker of a blocked Send: the open mailbox has no room
// for the sender's need bytes.
type lacksRoom mailbox

func (m *lacksRoom) Blocked(need int64) bool { return !m.closed && m.pending+need > m.capacity }

// isEmpty is the Blocker of a blocked Receive: the open mailbox is empty.
type isEmpty mailbox

func (m *isEmpty) Blocked(int64) bool { return !m.closed && len(m.buf) == m.head }

// Close implements core.Mailbox.
func (m *mailbox) Close() {
	if m.closed {
		return
	}
	m.closed = true
	m.data.Fire()
	m.space.Fire()
}

// BufBytes implements core.Mailbox.
func (m *mailbox) BufBytes() int64 { return m.capacity }

// Depth implements core.Mailbox.
func (m *mailbox) Depth() int { return len(m.buf) - m.head }

var _ core.Mailbox = (*mailbox)(nil)
