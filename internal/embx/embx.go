// Package embx simulates the EMBX middleware of the STi7200 software stack.
// EMBX "manages shared memory regions accessible by several or by all the
// CPUs. These memory regions are called distributed objects and are accessed
// by dedicated EMBX_Send and EMBX_Receive functions. EMBX_Send is an
// asynchronous operation corresponding to a write operation on the
// distributed object. EMBX_Receive is a synchronous operation corresponding
// to a read operation on the distributed object."
//
// A distributed object lives in the shared SDRAM; a write streams the
// payload over the shared bus at the sender CPU's transfer cost and raises
// an interrupt toward the owning (reading) CPU, whose handler signals a
// semaphore the reader waits on. A read streams the payload back out at the
// reader CPU's cost.
package embx

import (
	"errors"
	"fmt"

	"embera/internal/os21"
	"embera/internal/ringbuf"
	"embera/internal/sim"
	"embera/internal/sti7200"
)

// DefaultObjectBytes is the default distributed-object buffer size,
// calibrated to the paper's Table 3 accounting: "25 kB for one distributed
// object".
const DefaultObjectBytes int64 = 25 * 1024

// Transport is an EMBX transport instance managing the distributed objects
// of one chip.
type Transport struct {
	chip    *sti7200.Chip
	nextIRQ int
	objects map[string]*Object
}

// NewTransport creates a transport over chip.
func NewTransport(chip *sti7200.Chip) *Transport {
	return &Transport{chip: chip, nextIRQ: 32, objects: make(map[string]*Object)}
}

// message is one pending write inside a distributed object.
type message struct {
	data []byte
	meta any // opaque companion value (not modelled on the wire)
	size int // modelled wire size (== len(data) for real payloads)
	from int // sender CPU ID
}

// ErrClosed is returned by Receive once the object is closed and drained,
// and by Send after Close.
var ErrClosed = errors.New("embx: object closed")

// Object is an EMBX distributed object: a named shared-memory region owned
// (read) by one CPU and writable by any CPU.
type Object struct {
	tr    *Transport
	name  string
	size  int64
	owner int // CPU index whose tasks Receive from this object
	irq   int

	// buf is head-indexed and resets to its start when drained, like the
	// sim queues and the smpbind mailbox, so steady traffic reuses one
	// backing array.
	buf          []message
	head         int
	pendingBytes int64
	avail        *sim.Semaphore // counts interrupt-delivered messages
	space        *sim.Signal    // fired when Receive frees buffer room

	sends, receives uint64
	deleted         bool
	closed          bool
}

// CreateObject allocates a distributed object of the given buffer size in
// shared SDRAM, owned by CPU ownerCPU. A size of 0 selects
// DefaultObjectBytes. Names must be unique per transport.
func (tr *Transport) CreateObject(name string, ownerCPU int, size int64) (*Object, error) {
	if _, exists := tr.objects[name]; exists {
		return nil, fmt.Errorf("embx: object %q already exists", name)
	}
	if ownerCPU < 0 || ownerCPU >= tr.chip.NumCPUs() {
		return nil, fmt.Errorf("embx: owner CPU %d out of range", ownerCPU)
	}
	if size == 0 {
		size = DefaultObjectBytes
	}
	if size < 0 {
		return nil, fmt.Errorf("embx: negative object size %d", size)
	}
	if err := tr.chip.SDRAM.Alloc(size); err != nil {
		return nil, fmt.Errorf("embx: object %q: %w", name, err)
	}
	o := &Object{
		tr:    tr,
		name:  name,
		size:  size,
		owner: ownerCPU,
		irq:   tr.nextIRQ,
		avail: sim.NewSemaphore(tr.chip.K, "embx:"+name, 0),
		space: sim.NewSignal(tr.chip.K, "embx-space:"+name),
	}
	tr.nextIRQ++
	tr.chip.Intc.Install(ownerCPU, o.irq, func() { o.avail.Signal() })
	tr.objects[name] = o
	return o, nil
}

// Object looks up a distributed object by name.
func (tr *Transport) Object(name string) (*Object, bool) {
	o, ok := tr.objects[name]
	return o, ok
}

// Objects returns the number of live objects.
func (tr *Transport) Objects() int { return len(tr.objects) }

// Name returns the object name.
func (o *Object) Name() string { return o.name }

// Size returns the buffer capacity in bytes.
func (o *Object) Size() int64 { return o.size }

// Owner returns the owning (reading) CPU index.
func (o *Object) Owner() int { return o.owner }

// Stats reports lifetime send and receive counts.
func (o *Object) Stats() (sends, receives uint64) { return o.sends, o.receives }

// Pending reports buffered, not-yet-received bytes.
func (o *Object) Pending() int64 { return o.pendingBytes }

// Send writes data into the distributed object (EMBX_Send). The operation
// is asynchronous with respect to the reader — it returns once the write
// completes — but blocks while the object buffer lacks room. It returns the
// time the write itself took.
func (o *Object) Send(t *os21.Task, data []byte) (sim.Duration, error) {
	owned := make([]byte, len(data))
	copy(owned, data)
	return o.send(t.P, t, owned, len(data), nil)
}

// SendOpaque writes a message of the given modelled size whose content is an
// opaque Go value rather than real bytes: the transfer cost and buffer
// accounting use size, while meta rides along for the EMBera binding. The
// returned data from ReceiveMeta is nil for such messages. A nil t sends
// from p, a process that is no task (a harness driver): from CPU -1, at
// zero transfer cost, still waiting for room.
func (o *Object) SendOpaque(p *sim.Proc, t *os21.Task, size int, meta any) (sim.Duration, error) {
	if size < 0 {
		return 0, fmt.Errorf("embx: negative opaque size %d", size)
	}
	return o.send(p, t, nil, size, meta)
}

func (o *Object) send(p *sim.Proc, t *os21.Task, data []byte, size int, meta any) (sim.Duration, error) {
	if o.deleted {
		return 0, fmt.Errorf("embx: send on deleted object %q", o.name)
	}
	if o.closed {
		return 0, ErrClosed
	}
	if int64(size) > o.size {
		return 0, fmt.Errorf("embx: message of %d bytes exceeds object %q size %d",
			size, o.name, o.size)
	}
	o.space.AwaitWhile(p, (*lacksRoom)(o), int64(size))
	if o.deleted {
		return 0, fmt.Errorf("embx: object %q deleted while blocked in send", o.name)
	}
	if o.closed {
		return 0, ErrClosed
	}
	start, from := p.Now(), -1
	if t != nil {
		t.ChargeTransfer(size)
		from = t.RTOS().CPU.ID
	}
	o.buf = append(o.buf, message{data: data, meta: meta, size: size, from: from})
	o.pendingBytes += int64(size)
	o.sends++
	o.tr.chip.Intc.Raise(o.owner, o.irq)
	return sim.Duration(p.Now() - start), nil
}

// lacksRoom is the Blocker of a blocked send: the live, open object has no
// room for the sender's need bytes.
type lacksRoom Object

func (o *lacksRoom) Blocked(need int64) bool {
	return !o.deleted && !o.closed && o.pendingBytes+need > o.size
}

// Receive reads the oldest write from the distributed object (EMBX_Receive),
// blocking until one is available. It must be called by a task on the owning
// CPU. It returns the payload, the sender CPU ID and the time the read took
// (excluding the wait).
func (o *Object) Receive(t *os21.Task) (data []byte, fromCPU int, cost sim.Duration, err error) {
	data, _, fromCPU, cost, err = o.ReceiveMeta(t.P, t)
	return data, fromCPU, cost, err
}

// ReceiveMeta is Receive that also returns the opaque companion value
// attached by SendOpaque (nil for plain Sends). A nil t receives on p, a
// process that is no task (a harness driver), from any CPU at zero
// transfer cost, still waiting on the object's message interrupts.
func (o *Object) ReceiveMeta(p *sim.Proc, t *os21.Task) (data []byte, meta any, fromCPU int, cost sim.Duration, err error) {
	if t != nil && t.RTOS().CPU.ID != o.owner {
		return nil, nil, 0, 0, fmt.Errorf("embx: receive on object %q owned by CPU %d from CPU %d",
			o.name, o.owner, t.RTOS().CPU.ID)
	}
	for {
		if o.deleted {
			return nil, nil, 0, 0, fmt.Errorf("embx: receive on deleted object %q", o.name)
		}
		if o.buffered() && o.avail.TryWait() {
			break
		}
		if o.closed && !o.buffered() {
			return nil, nil, 0, 0, ErrClosed
		}
		o.avail.Wait(p)
		if o.buffered() {
			break
		}
		if o.closed || o.deleted {
			if o.deleted {
				return nil, nil, 0, 0, fmt.Errorf("embx: object %q deleted while blocked in receive", o.name)
			}
			return nil, nil, 0, 0, ErrClosed
		}
		// Counts only originate from message interrupts (message already
		// buffered) or Close/Delete (handled above); anything else is a
		// bookkeeping bug.
		panic(fmt.Sprintf("embx: object %q woke with no message and not closed", o.name))
	}
	msg, buf, head := ringbuf.PopFront(o.buf, o.head)
	o.buf, o.head = buf, head
	o.pendingBytes -= int64(msg.size)
	o.receives++
	start := p.Now()
	if t != nil {
		t.ChargeTransfer(msg.size)
	}
	o.space.Fire()
	return msg.data, msg.meta, msg.from, sim.Duration(p.Now() - start), nil
}

// buffered reports whether a written message awaits its reader.
func (o *Object) buffered() bool { return len(o.buf) > o.head }

// Close marks the object closed: senders get ErrClosed, and receivers drain
// buffered messages then get ErrClosed. Used by the EMBera binding when the
// last producer of an interface terminates.
func (o *Object) Close() {
	if o.closed {
		return
	}
	o.closed = true
	o.avail.Signal() // wake a blocked receiver so it observes the close
	o.space.Fire()   // wake blocked senders
}

// Delete tears the object down: frees its SDRAM, uninstalls the interrupt
// handler and wakes any blocked senders/receivers with an error.
func (tr *Transport) Delete(name string) error {
	o, ok := tr.objects[name]
	if !ok {
		return fmt.Errorf("embx: delete of unknown object %q", name)
	}
	o.deleted = true
	tr.chip.Intc.Uninstall(o.owner, o.irq)
	tr.chip.SDRAM.Free(o.size)
	delete(tr.objects, name)
	o.space.Fire()
	// Wake a potential blocked receiver; it will observe deleted=true.
	o.avail.Signal()
	return nil
}
