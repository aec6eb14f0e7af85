package monitor

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Ring is a sharded, fixed-capacity sample buffer: the lossy-but-bounded
// stage between the samplers and the windowed aggregation. Each shard is a
// lock-free single-producer/single-consumer ring: the producer advances an
// atomic tail, the consumer an atomic head, and neither ever blocks the
// other. A full shard rejects the incoming sample and counts it as dropped
// (oldest-wins: buffered samples are never evicted by newer ones, mirroring
// a hardware trace unit in fill mode). Memory never grows past the
// configured capacity and loss is never silent — Dropped reports exactly
// how many samples were shed.
//
// Contract: at most one producer may push into a given shard at a time, and
// at most one consumer may drain the ring at a time. The monitor satisfies
// the producer side by partitioning shard ownership across its sampler
// flows (see Writer) and the consumer side with its single pump flow.
// Concurrent producers on the same shard — or concurrent drains — are a
// data race, exactly like two goroutines sharing an SPSC queue end.
type Ring struct {
	shards   []spscShard
	sole     Writer // prebuilt all-shard writer backing PushBatch
	capacity int
}

// spscShard is one single-producer/single-consumer segment of the ring.
// head and tail are monotonic cursors (slot = cursor mod len(buf)); the
// padding keeps the producer-written and consumer-written words on separate
// cache lines so the two sides do not false-share.
type spscShard struct {
	buf []Sample

	_    [40]byte
	head atomic.Uint64 // consumer cursor: next slot to drain
	_    [56]byte
	tail atomic.Uint64 // producer cursor: next slot to fill
	// dropped is producer-written (same flow as tail), reader-aggregated.
	dropped atomic.Uint64
	_       [48]byte
}

// NewRing creates a ring of the given total capacity split across shards.
// Each shard holds at least one sample.
func NewRing(capacity, shards int) *Ring {
	if capacity <= 0 {
		panic(fmt.Sprintf("monitor: ring capacity %d must be positive", capacity))
	}
	if shards <= 0 {
		panic(fmt.Sprintf("monitor: shard count %d must be positive", shards))
	}
	if shards > capacity {
		shards = capacity
	}
	r := &Ring{shards: make([]spscShard, shards), capacity: capacity}
	per := capacity / shards
	extra := capacity % shards
	for i := range r.shards {
		c := per
		if i < extra {
			c++
		}
		r.shards[i].buf = newShardBuf(c)
	}
	r.sole = Writer{ring: r, shards: make([]int, shards)}
	for i := range r.sole.shards {
		r.sole.shards[i] = i
	}
	return r
}

// shardBufs recycles shard buffers between rings. A monitor's ring lives
// for one run, and on a short simulated run allocating a fresh
// default-capacity buffer, and faulting its pages in, would be the largest
// fixed cost of leaving the monitor on. A pooled buffer is all zero:
// release takes it only from an empty ring, whose drains have cleared
// every slot they read.
var shardBufs sync.Pool

// newShardBuf returns a zeroed shard buffer of n samples.
func newShardBuf(n int) []Sample {
	if p, ok := shardBufs.Get().(*[]Sample); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]Sample, n)
}

// release hands the shard buffers to the next ring. Call it once the ring
// is empty and no producer or consumer will touch it again; afterwards a
// push counts as dropped and Capacity still reports the configured size.
func (r *Ring) release() {
	for i := range r.shards {
		if buf := r.shards[i].buf; buf != nil {
			r.shards[i].buf = nil
			shardBufs.Put(&buf)
		}
	}
}

// push is the single-producer push: one acquire (head), one release (tail).
func (sh *spscShard) push(s Sample) bool {
	t := sh.tail.Load()
	if t-sh.head.Load() >= uint64(len(sh.buf)) {
		sh.dropped.Add(1)
		return false
	}
	sh.buf[t%uint64(len(sh.buf))] = s
	sh.tail.Store(t + 1)
	return true
}

// Push offers s to the shard selected by key (callers use a stable
// per-component key so one component's samples stay ordered within a single
// shard). It returns false — and increments the shard's drop counter — when
// the shard is full. The caller must be the shard's sole producer.
func (r *Ring) Push(key int, s Sample) bool {
	idx := key % len(r.shards)
	if idx < 0 {
		// Euclidean wrap: correct for any negative key, including the
		// minimum int, where negating would overflow.
		idx += len(r.shards)
	}
	return r.shards[idx].push(s)
}

// PushBatch offers one tick's worth of samples, where s[i] carries the key
// i (the component index, exactly as the samplers produce them), across
// every shard: the whole-ring Writer's batch push. The caller must be the
// sole producer of the entire ring; producers sharing a ring use Writer
// partitions instead. It returns how many samples were accepted.
func (r *Ring) PushBatch(s []Sample) int {
	return r.sole.PushBatch(s)
}

// Writer is the producer handle over a subset of the ring's shards. The
// monitor gives each sampler flow its own Writer over a disjoint shard set,
// which is what upholds the single-producer contract without any lock on
// the push path.
type Writer struct {
	ring   *Ring
	shards []int // owned shard indices, ascending
}

// Writer returns the producer handle owning the shard subset
// {s : s ≡ idx (mod of)} — partition the ring across `of` producers by
// giving producer i Writer(i, of). A partition may own no shards when there
// are more producers than shards; its pushes all count as drops, so size
// the ring with at least one shard per producer.
func (r *Ring) Writer(idx, of int) *Writer {
	if of <= 0 || idx < 0 || idx >= of {
		panic(fmt.Sprintf("monitor: writer partition %d of %d", idx, of))
	}
	w := &Writer{ring: r}
	for s := idx; s < len(r.shards); s += of {
		w.shards = append(w.shards, s)
	}
	return w
}

// SoleWriter returns the producer handle owning every shard, for callers
// with a single sampling flow (benchmarks, tests, single-level monitors).
func (r *Ring) SoleWriter() *Writer { return &r.sole }

// PushBatch distributes one tick's samples across the writer's owned
// shards (sample i lands in owned shard i mod the partition size, so a
// whole-ring writer reproduces Ring.PushBatch's layout exactly). Each shard
// costs one acquire of the consumer cursor and one release of the producer
// cursor for its entire share of the batch; full shards count their
// rejected samples as dropped. It returns how many samples were accepted.
func (w *Writer) PushBatch(s []Sample) int {
	accepted := 0
	np := len(w.shards)
	if np == 0 {
		if len(s) > 0 && len(w.ring.shards) > 0 {
			// An ownerless partition can push nowhere: account the loss on
			// shard 0 rather than losing samples silently.
			w.ring.shards[0].dropped.Add(uint64(len(s)))
		}
		return 0
	}
	for start := 0; start < np && start < len(s); start++ {
		sh := &w.ring.shards[w.shards[start]]
		t := sh.tail.Load()
		n := uint64(len(sh.buf))
		free := n - (t - sh.head.Load())
		// One division per shard, not one per sample: the slot index
		// wraps by comparison. (A released ring has no buffer and no room.)
		var slot uint64
		if free > 0 {
			slot = t % n
		}
		var drops uint64
		for i := start; i < len(s); i += np {
			if free == 0 {
				drops++
				continue
			}
			sh.buf[slot] = s[i]
			if slot++; slot == n {
				slot = 0
			}
			t++
			free--
			accepted++
		}
		sh.tail.Store(t)
		if drops > 0 {
			sh.dropped.Add(drops)
		}
	}
	return accepted
}

// DrainInto removes every buffered sample, appending them in shard order
// (FIFO within a shard) to dst, and returns the extended slice. Each shard
// costs one acquire of the producer cursor and one release of the consumer
// cursor for the whole window; pass dst[:0] to reuse a scratch buffer
// across drains. The caller must be the ring's sole consumer.
func (r *Ring) DrainInto(dst []Sample) []Sample {
	for i := range r.shards {
		r.shards[i].consume(func(seg []Sample) { dst = append(dst, seg...) })
	}
	return dst
}

// fold folds every buffered sample into ag in shard order (FIFO within a
// shard), reading each where it lies in its ring slot, and returns how
// many it folded: the pump's drain, which copies no sample out of the
// ring. The caller must be the ring's sole consumer.
func (r *Ring) fold(ag *Aggregator) int {
	total := 0
	for i := range r.shards {
		total += r.shards[i].consume(func(seg []Sample) {
			for j := range seg {
				ag.add(&seg[j])
			}
		})
	}
	return total
}

// consume hands the shard's buffered samples to use, as at most two
// contiguous runs of slots (the second when the run wraps past the end of
// the buffer), then clears the slots, so they hold no payload references
// and a released buffer goes back to the pool all zero, and gives them
// back to the producer with one release of the consumer cursor. It returns
// how many samples it consumed.
func (sh *spscShard) consume(use func(seg []Sample)) int {
	t := sh.tail.Load()
	h := sh.head.Load()
	if h == t {
		return 0
	}
	n := uint64(len(sh.buf))
	start, count := h%n, t-h
	first := sh.buf[start:min(n, start+count)]
	use(first)
	clear(first)
	if rest := count - uint64(len(first)); rest > 0 {
		wrapped := sh.buf[:rest]
		use(wrapped)
		clear(wrapped)
	}
	sh.head.Store(t)
	return int(count)
}

// Drain removes every buffered sample, invoking fn on each in shard order
// (FIFO within a shard), and returns the number drained. The consumer
// cursor advances before each fn call, so a slow fn costs ring space, not
// producer progress. The caller must be the ring's sole consumer.
func (r *Ring) Drain(fn func(Sample)) int {
	total := 0
	for i := range r.shards {
		sh := &r.shards[i]
		t := sh.tail.Load()
		n := uint64(len(sh.buf))
		for h := sh.head.Load(); h != t; h++ {
			s := sh.buf[h%n]
			sh.buf[h%n] = Sample{} // release payload references
			sh.head.Store(h + 1)
			fn(s)
			total++
		}
	}
	return total
}

// Len reports the number of currently buffered samples.
func (r *Ring) Len() int {
	n := uint64(0)
	for i := range r.shards {
		sh := &r.shards[i]
		n += sh.tail.Load() - sh.head.Load()
	}
	return int(n)
}

// Capacity reports the total sample capacity across shards.
func (r *Ring) Capacity() int { return r.capacity }

// Shards reports the shard count.
func (r *Ring) Shards() int { return len(r.shards) }

// Dropped reports the total samples rejected because their shard was full.
func (r *Ring) Dropped() uint64 {
	var n uint64
	for i := range r.shards {
		n += r.shards[i].dropped.Load()
	}
	return n
}
