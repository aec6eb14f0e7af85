// Package ringbuf holds the one FIFO idiom every hot queue in this
// repository shares: a head-indexed slice that appends at the tail, pops by
// advancing the head, resets to its start when drained, and compacts when
// the dead prefix dominates. The sim kernel's same-instant event queue,
// queues and waiter lists, the native mailboxes, the smpbind mailbox and
// the EMBX objects all pop through PopFront, so the
// amortized-O(1), O(depth)-memory guarantee (and any future fix to it)
// lives in exactly one place.
package ringbuf

// compactAt is the head index below which PopFront skips compaction: tiny
// queues just wait for the natural reset-on-empty.
const compactAt = 32

// PopFront removes and returns the element at head of a head-indexed FIFO
// built on buf (live elements are buf[head:]). Callers must have checked
// len(buf) > head. The vacated slot is zeroed so payload references are
// released. The returned buf/head replace the caller's: when the pop
// drains the buffer the slice resets to its start, and when the dead
// prefix reaches both the compactAt threshold and half the slice the live
// tail is copied to the front — copying at most the live half after at
// least as many pops, so the backing array stays O(live depth) instead of
// growing with total throughput, at amortized O(1) per operation.
func PopFront[T any](buf []T, head int) (v T, bufOut []T, headOut int) {
	v = buf[head]
	var zero T
	buf[head] = zero
	head++
	switch {
	case head == len(buf):
		return v, buf[:0], 0
	case head > compactAt && head*2 >= len(buf):
		n := copy(buf, buf[head:])
		clear(buf[n:])
		return v, buf[:n], 0
	}
	return v, buf, head
}
