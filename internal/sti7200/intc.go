package sti7200

import (
	"fmt"

	"embera/internal/sim"
)

// InterruptController routes inter-CPU interrupts. The STi7200 pairs its
// shared memory block with "one interruption controller"; EMBX uses it to
// notify a CPU that a distributed object it is reading from has been
// written.
//
// Handlers run in kernel context after the configured delivery latency, so
// they must not block; they typically signal a semaphore to wake a task.
type InterruptController struct {
	k       *sim.Kernel
	latency sim.Duration
	lines   []map[int]*irqLine // per CPU: irq -> line
	raised  []uint64           // per CPU: delivered interrupt count
	dropped []uint64           // per CPU: raised with no handler installed
}

// irqLine is one (CPU, irq) pair: its installed handler, nil when none, and
// the delivery callback every Raise of it schedules, built once so raising
// an interrupt allocates nothing.
type irqLine struct {
	handler func()
	deliver func()
}

// NewInterruptController creates a controller for numCPUs processors.
func NewInterruptController(k *sim.Kernel, numCPUs int, latency sim.Duration) *InterruptController {
	if numCPUs <= 0 {
		panic("sti7200: interrupt controller needs at least one CPU")
	}
	ic := &InterruptController{
		k:       k,
		latency: latency,
		lines:   make([]map[int]*irqLine, numCPUs),
		raised:  make([]uint64, numCPUs),
		dropped: make([]uint64, numCPUs),
	}
	for i := range ic.lines {
		ic.lines[i] = make(map[int]*irqLine)
	}
	return ic
}

// line returns the (cpu, irq) line, creating it on first use.
func (ic *InterruptController) line(cpu, irq int) *irqLine {
	ic.checkCPU(cpu)
	l := ic.lines[cpu][irq]
	if l == nil {
		l = &irqLine{}
		l.deliver = func() {
			// The handler is looked up at delivery time: one installed
			// or removed while the interrupt was in flight counts.
			if l.handler != nil {
				ic.raised[cpu]++
				l.handler()
			} else {
				ic.dropped[cpu]++
			}
		}
		ic.lines[cpu][irq] = l
	}
	return l
}

// Install registers a handler for irq on cpu, replacing any previous one.
func (ic *InterruptController) Install(cpu, irq int, handler func()) {
	ic.checkCPU(cpu)
	if handler == nil {
		panic("sti7200: nil interrupt handler")
	}
	ic.line(cpu, irq).handler = handler
}

// Uninstall removes the handler for irq on cpu.
func (ic *InterruptController) Uninstall(cpu, irq int) {
	ic.checkCPU(cpu)
	if l := ic.lines[cpu][irq]; l != nil {
		l.handler = nil
	}
}

// Raise delivers irq to cpu after the controller latency. If no handler is
// installed at delivery time the interrupt is counted as dropped.
func (ic *InterruptController) Raise(cpu, irq int) {
	ic.k.At(ic.latency, ic.line(cpu, irq).deliver)
}

// Stats reports delivered and dropped interrupt counts for cpu.
func (ic *InterruptController) Stats(cpu int) (delivered, dropped uint64) {
	ic.checkCPU(cpu)
	return ic.raised[cpu], ic.dropped[cpu]
}

func (ic *InterruptController) checkCPU(cpu int) {
	if cpu < 0 || cpu >= len(ic.lines) {
		panic(fmt.Sprintf("sti7200: CPU %d out of range [0,%d)", cpu, len(ic.lines)))
	}
}
