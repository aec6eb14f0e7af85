// Package os21 simulates the subset of STMicroelectronics' OS21 real-time
// operating system that the paper's EMBera/MPSoC implementation relies on.
// OS21 is "a lightweight, real-time multitasking operating system" whose
// tasks "behave like processes"; one OS21 instance runs per CPU.
//
// The observation functions of §5.2 use:
//
//   - task creation and termination      -> RTOS.CreateTask / Task.Done
//   - task_time (task execution time)    -> Task.TaskTime
//   - time_now (per-CPU local time)      -> RTOS.TimeNow
//   - task/heap memory introspection     -> Task.MemUsed, RTOS.HeapUsed
//
// plus semaphores and message queues, provided as thin wrappers over the
// simulation kernel primitives with OS21-style names.
package os21

import (
	"fmt"

	"embera/internal/sim"
	"embera/internal/sti7200"
)

// DefaultTaskBytes is the default memory footprint of a task: stack, task
// control block and attached component structure. Calibrated to the paper's
// Table 3, where an IDCT component consumes "60 kB for the task data and
// component structure".
const DefaultTaskBytes int64 = 60 * 1024

// TaskSpawnCost is the virtual time charged when a task is created.
const TaskSpawnCost = 40 * sim.Microsecond

// RTOS is one OS21 instance, bound to a single CPU of the chip.
type RTOS struct {
	Chip *sti7200.Chip
	CPU  *sti7200.CPU

	tasks []*Task
	heap  *sti7200.MemRegion // local memory on ST231, SDRAM view on ST40
}

// Boot starts an OS21 instance on CPU cpuIndex of the chip.
func Boot(chip *sti7200.Chip, cpuIndex int) *RTOS {
	cpu := chip.CPU(cpuIndex)
	heap := cpu.Local
	if heap == nil {
		// The ST40 has no private local block; its task memory lives in
		// SDRAM, to which it has full access.
		heap = chip.SDRAM
	}
	return &RTOS{Chip: chip, CPU: cpu, heap: heap}
}

// TimeNow returns the local tick counter of this CPU's clock, mirroring
// OS21's time_now(): values from different CPUs are NOT comparable because
// each island has its own oscillator (and skew).
func (o *RTOS) TimeNow() int64 { return o.CPU.Clock.Ticks() }

// TicksToDuration converts local ticks into virtual time.
func (o *RTOS) TicksToDuration(ticks int64) sim.Duration {
	return o.CPU.Clock.ToDuration(ticks)
}

// HeapUsed reports the live allocation in this CPU's task memory.
func (o *RTOS) HeapUsed() int64 { return o.heap.Used() }

// Tasks returns the tasks created on this instance.
func (o *RTOS) Tasks() []*Task { return o.tasks }

// TaskAttr configures task creation.
type TaskAttr struct {
	// MemBytes is the task footprint (stack + TCB + component structure);
	// 0 selects DefaultTaskBytes.
	MemBytes int64
}

// Task is an OS21 task: an execution flow with tracked CPU time and memory.
type Task struct {
	rtos *RTOS
	// ID is the task identifier within its RTOS instance.
	ID   int
	Name string
	P    *sim.Proc

	memBytes int64
	extra    int64 // additional allocations via TaskAlloc
	cpuTime  sim.Duration
	started  sim.Time
	finished sim.Time
	done     bool
}

// CreateTask starts fn as a new task on this RTOS instance.
func (o *RTOS) CreateTask(name string, attr TaskAttr, fn func(t *Task)) (*Task, error) {
	mem := attr.MemBytes
	if mem == 0 {
		mem = DefaultTaskBytes
	}
	if mem < 1024 {
		return nil, fmt.Errorf("os21: task memory %d below minimum", mem)
	}
	if err := o.heap.Alloc(mem); err != nil {
		return nil, fmt.Errorf("os21: task %q: %w", name, err)
	}
	t := &Task{rtos: o, ID: len(o.tasks) + 1, Name: name, memBytes: mem}
	t.P = o.Chip.K.SpawnAt(TaskSpawnCost, o.CPU.Name()+"/"+name, func(p *sim.Proc) {
		t.started = p.Now()
		// Record termination even when the task is killed (task_delete).
		defer func() {
			t.finished = p.Now()
			t.done = true
			if r := recover(); r != nil {
				panic(r)
			}
		}()
		fn(t)
	})
	o.tasks = append(o.tasks, t)
	return t, nil
}

// RTOS returns the instance this task runs on.
func (t *Task) RTOS() *RTOS { return t.rtos }

// Compute charges cycles of work on the task's CPU and accrues task_time.
func (t *Task) Compute(cycles int64) {
	d := t.rtos.CPU.CycleCost(cycles)
	t.ComputeFor(d)
}

// ComputeFor charges a fixed duration of work. Tasks sharing a CPU
// serialize on its Exec resource.
func (t *Task) ComputeFor(d sim.Duration) {
	t.rtos.CPU.Busy += d
	t.cpuTime += d
	t.rtos.CPU.Exec.Use(t.P, d)
}

// ChargeTransfer advances the task through an SDRAM transfer of n bytes at
// the task CPU's cost, serialized on the shared bus, and accrues task_time.
func (t *Task) ChargeTransfer(n int) sim.Duration {
	d := t.rtos.Chip.TransferCost(t.rtos.CPU, n)
	// The transfer occupies the CPU for its whole duration while the bytes
	// move over the shared bus: claim the CPU slot across the bus use. The
	// deferred release keeps the CPU usable if the task is killed mid-way.
	t.rtos.CPU.Exec.Acquire(t.P)
	defer t.rtos.CPU.Exec.Release(d)
	t.rtos.Chip.Bus().Use(t.P, d)
	t.rtos.CPU.Busy += d
	t.cpuTime += d
	return d
}

// TaskTime returns the accumulated execution time of the task, mirroring
// OS21's task_time().
func (t *Task) TaskTime() sim.Duration { return t.cpuTime }

// MemUsed reports the task's memory footprint: base allocation plus any
// TaskAlloc extras.
func (t *Task) MemUsed() int64 { return t.memBytes + t.extra }

// TaskAlloc grabs additional heap memory on the task's CPU.
func (t *Task) TaskAlloc(n int64) error {
	if err := t.rtos.heap.Alloc(n); err != nil {
		return err
	}
	t.extra += n
	return nil
}

// StartedAt returns when the task began executing.
func (t *Task) StartedAt() sim.Time { return t.started }

// FinishedAt returns when the task function returned (valid once Done).
func (t *Task) FinishedAt() sim.Time { return t.finished }

// Done reports whether the task function has returned.
func (t *Task) Done() bool { return t.done }

// Elapsed returns wall-clock task lifetime (finish - start) once done.
func (t *Task) Elapsed() sim.Duration {
	if !t.done {
		return 0
	}
	return sim.Duration(t.finished - t.started)
}

// Semaphore is an OS21 counting semaphore (semaphore_create_fifo).
type Semaphore struct{ s *sim.Semaphore }

// NewSemaphore creates a FIFO semaphore with the given initial count.
func (o *RTOS) NewSemaphore(name string, initial int) *Semaphore {
	return &Semaphore{s: sim.NewSemaphore(o.Chip.K, o.CPU.Name()+"/"+name, initial)}
}

// Wait is semaphore_wait: P operation.
func (s *Semaphore) Wait(t *Task) { s.s.Wait(t.P) }

// Signal is semaphore_signal: V operation; callable from interrupt context.
func (s *Semaphore) Signal() { s.s.Signal() }

// Count returns the current value.
func (s *Semaphore) Count() int { return s.s.Count() }

// MessageQueue is an OS21 message queue carrying opaque byte payloads.
type MessageQueue struct{ q *sim.Queue[[]byte] }

// NewMessageQueue creates a queue with room for capacity messages
// (0 = unbounded).
func (o *RTOS) NewMessageQueue(name string, capacity int) *MessageQueue {
	return &MessageQueue{q: sim.NewQueue[[]byte](o.Chip.K, o.CPU.Name()+"/"+name, capacity)}
}

// Send enqueues msg, blocking while full (message_send).
func (q *MessageQueue) Send(t *Task, msg []byte) { q.q.Put(t.P, msg) }

// Receive dequeues the oldest message, blocking while empty
// (message_receive).
func (q *MessageQueue) Receive(t *Task) []byte {
	msg, _ := q.q.Get(t.P)
	return msg
}

// Len returns the number of queued messages.
func (q *MessageQueue) Len() int { return q.q.Len() }
