// Package os21bind implements the EMBera platform binding of §5 of the
// paper: "An EMBera application is a set of OS21 tasks, each task
// representing a component. ... The component provided interface is
// represented by a distributed object. The component required interface
// corresponds to pointers towards a distributed object. A connection between
// both interfaces is established using EMBX primitives."
//
// Each component becomes one OS21 task on its assigned STi7200 CPU ("the
// current implementation supports one component per CPU"); provided
// interfaces become EMBX distributed objects in shared SDRAM. Middleware
// timestamps come from the per-CPU time_now clock and OS-level execution
// time from task_time, exactly as §5.2 describes.
package os21bind

import (
	"fmt"

	"embera/internal/core"
	"embera/internal/embx"
	"embera/internal/os21"
	"embera/internal/sim"
	"embera/internal/sti7200"
	"embera/internal/svc"
)

// Binding maps EMBera onto the STi7200/OS21 platform.
type Binding struct {
	Chip *sti7200.Chip
	Tr   *embx.Transport

	rtos    map[int]*os21.RTOS
	nextCPU int
	used    map[int]bool
}

// New creates the binding over a chip, with an EMBX transport for the
// distributed objects.
func New(chip *sti7200.Chip) *Binding {
	return &Binding{
		Chip: chip,
		Tr:   embx.NewTransport(chip),
		rtos: make(map[int]*os21.RTOS),
		used: make(map[int]bool),
	}
}

// platData is the per-component platform state.
type platData struct {
	cpu      int
	rtos     *os21.RTOS
	task     *os21.Task
	objBytes int64 // distributed objects owned by this component
}

// PlatformName implements core.Binding.
func (b *Binding) PlatformName() string {
	return fmt.Sprintf("STi7200 (1×ST40 + %d×ST231) / OS21", b.Chip.NumCPUs()-1)
}

// RTOSFor boots (once) and returns the OS21 instance on cpu.
func (b *Binding) RTOSFor(cpu int) *os21.RTOS {
	if o, ok := b.rtos[cpu]; ok {
		return o
	}
	o := os21.Boot(b.Chip, cpu)
	b.rtos[cpu] = o
	return o
}

// data returns the component's platform state. The first time the binding
// needs any component's, it places every component of the application, in
// declaration order, so no read — a monitor's first clock reading, say —
// decides where a component runs.
func (b *Binding) data(c *core.Component) *platData {
	if d, ok := c.PlatformData().(*platData); ok {
		return d
	}
	for _, o := range c.App().Components() {
		if o.PlatformData() == nil {
			b.place(o)
		}
	}
	return c.PlatformData().(*platData)
}

// place assigns c a CPU: the placement hint if given, otherwise the next
// unused CPU ("one component per CPU").
func (b *Binding) place(c *core.Component) {
	cpu := c.Placement()
	if cpu < 0 {
		for b.nextCPU < b.Chip.NumCPUs() && b.used[b.nextCPU] {
			b.nextCPU++
		}
		cpu = b.nextCPU % b.Chip.NumCPUs()
		b.nextCPU++
	}
	if cpu >= b.Chip.NumCPUs() {
		cpu = cpu % b.Chip.NumCPUs()
	}
	b.used[cpu] = true
	c.SetPlatformData(&platData{cpu: cpu, rtos: b.RTOSFor(cpu)})
}

// Spawn implements core.Binding: the component becomes one OS21 task.
func (b *Binding) Spawn(c *core.Component, run func(f core.Flow)) error {
	d := b.data(c)
	task, err := d.rtos.CreateTask(c.Name(), os21.TaskAttr{}, func(t *os21.Task) {
		run(&flow{t: t})
	})
	if err != nil {
		return err
	}
	d.task = task
	return nil
}

// SpawnService implements core.Binding.
func (b *Binding) SpawnService(name string, run func(f core.Flow)) {
	svc.Spawn(b.Chip.K, name, func(f *svc.Flow) { run(f) })
}

// SpawnDriver implements core.Binding; like the SMP binding, simulated
// drivers ride the daemon service machinery because the kernel's event
// loop already bounds the run.
func (b *Binding) SpawnDriver(name string, run func(f core.Flow)) {
	b.SpawnService(name, run)
}

// NewTimer implements core.Binding with a kernel callback.
func (b *Binding) NewTimer(fn func()) core.Timer { return svc.NewTimer(b.Chip.K, fn) }

// NewServiceQueue implements core.Binding.
func (b *Binding) NewServiceQueue(name string) core.Mailbox {
	return svc.NewQueue(b.Chip.K, name)
}

// NewMailbox implements core.Binding: an EMBX distributed object of the
// requested size (default 25 kB) owned by the component's CPU and counted
// into the component's memory, as Table 3 does.
func (b *Binding) NewMailbox(c *core.Component, iface string, bufBytes int64) (core.Mailbox, error) {
	d := b.data(c)
	if bufBytes == 0 {
		bufBytes = embx.DefaultObjectBytes
	}
	obj, err := b.Tr.CreateObject(c.Name()+"."+iface, d.cpu, bufBytes)
	if err != nil {
		return nil, err
	}
	d.objBytes += bufBytes
	return &mailbox{obj: obj}, nil
}

// NowUS implements core.Binding: time_now's per-CPU local clock, converted
// to microseconds. Timestamps from components on different CPUs are skewed
// relative to each other, as on the real chip.
func (b *Binding) NowUS(c *core.Component) int64 {
	d := b.data(c)
	ticks := d.rtos.TimeNow()
	return ticks * 1_000_000 / d.rtos.CPU.Clock.Hz()
}

// OSView implements core.Binding. Execution time is task_time (the OS21
// function §5.2 names); memory is the task footprint plus the distributed
// objects backing the component's provided interfaces.
func (b *Binding) OSView(c *core.Component) core.OSReport {
	d := b.data(c)
	rep := core.OSReport{}
	if t := d.task; t != nil {
		rep.ExecTimeUS = int64(t.TaskTime()) / int64(sim.Microsecond)
		rep.Running = !t.Done()
		rep.MemBytes = t.MemUsed() + d.objBytes
	}
	return rep
}

// Kill implements core.Binding by deleting the component's task
// (OS21 task_delete).
func (b *Binding) Kill(c *core.Component) {
	if t := b.data(c).task; t != nil {
		b.Chip.K.Kill(t.P)
	}
}

// CPU returns the CPU a component was placed on (for tests and reports).
func (b *Binding) CPU(c *core.Component) *sti7200.CPU {
	return b.Chip.CPU(b.data(c).cpu)
}

var _ core.Binding = (*Binding)(nil)

// flow adapts an OS21 task to core.Flow.
type flow struct {
	t *os21.Task
}

func (f *flow) Compute(cycles int64) { f.t.Compute(cycles) }

func (f *flow) SleepUS(us int64) {
	if us <= 0 {
		f.t.P.YieldTurn()
		return
	}
	f.t.P.Advance(sim.Duration(us) * sim.Microsecond)
}

// Proc implements svc.ProcHolder.
func (f *flow) Proc() *sim.Proc { return f.t.P }

// mailbox adapts an EMBX distributed object to core.Mailbox.
type mailbox struct {
	obj *embx.Object
}

// Send implements core.Mailbox: an EMBX_Send of the message's modelled size.
func (m *mailbox) Send(sender core.Flow, msg core.Message) bool {
	f, ok := sender.(*flow)
	if !ok {
		panic("os21bind: send from foreign flow type (service flows do not reach EMBX)")
	}
	_, err := m.obj.SendOpaque(f.t, msg.Bytes, msg)
	if err == embx.ErrClosed {
		return false
	}
	if err != nil {
		panic(fmt.Sprintf("os21bind: EMBX send failed: %v", err))
	}
	return true
}

// Receive implements core.Mailbox: an EMBX_Receive on the owning CPU.
func (m *mailbox) Receive(receiver core.Flow) (core.Message, bool) {
	f, ok := receiver.(*flow)
	if !ok {
		panic("os21bind: receive from foreign flow type")
	}
	_, meta, _, _, err := m.obj.ReceiveMeta(f.t)
	if err == embx.ErrClosed {
		return core.Message{}, false
	}
	if err != nil {
		panic(fmt.Sprintf("os21bind: EMBX receive failed: %v", err))
	}
	msg, isMsg := meta.(core.Message)
	if !isMsg {
		panic("os21bind: non-EMBera payload in distributed object")
	}
	return msg, true
}

// Close implements core.Mailbox.
func (m *mailbox) Close() { m.obj.Close() }

// BufBytes implements core.Mailbox.
func (m *mailbox) BufBytes() int64 { return m.obj.Size() }

// Depth implements core.Mailbox: pending messages cannot be counted exactly
// (EMBX exposes pending bytes), so this reports 0 when empty and >=1
// otherwise.
func (m *mailbox) Depth() int {
	if m.obj.Pending() > 0 {
		return 1
	}
	return 0
}

var _ core.Mailbox = (*mailbox)(nil)
