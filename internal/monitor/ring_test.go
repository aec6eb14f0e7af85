package monitor

import (
	"runtime"
	"sync"
	"testing"
)

func sample(comp string, t int64) Sample {
	s := Sample{TimeUS: t}
	s.Component = comp
	return s
}

func TestRingCapacitySplit(t *testing.T) {
	r := NewRing(5, 2)
	if r.Capacity() != 5 {
		t.Fatalf("capacity = %d, want 5", r.Capacity())
	}
	if r.Shards() != 2 {
		t.Fatalf("shards = %d, want 2", r.Shards())
	}
	// More shards than capacity collapses to one slot per shard.
	r = NewRing(2, 8)
	if r.Shards() != 2 || r.Capacity() != 2 {
		t.Fatalf("shards/capacity = %d/%d, want 2/2", r.Shards(), r.Capacity())
	}
}

// TestRingOverflow checks the oldest-wins overflow contract: a full shard
// sheds the incoming (newest) sample, counts it, and keeps the buffered
// (oldest) ones intact.
func TestRingOverflow(t *testing.T) {
	r := NewRing(4, 1)
	for i := int64(0); i < 7; i++ {
		pushed := r.Push(0, sample("A", i))
		if want := i < 4; pushed != want {
			t.Fatalf("push %d: pushed=%v, want %v", i, pushed, want)
		}
	}
	if got := r.Dropped(); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("len = %d, want 4", got)
	}
	var times []int64
	r.Drain(func(s Sample) { times = append(times, s.TimeUS) })
	for i, tm := range times {
		if tm != int64(i) {
			t.Fatalf("drained[%d].TimeUS = %d, want %d (oldest retained, FIFO)", i, tm, i)
		}
	}
	// After a drain, the shard admits samples again and keeps counting
	// prior drops.
	if !r.Push(0, sample("A", 99)) {
		t.Fatal("push after drain rejected")
	}
	if got := r.Dropped(); got != 3 {
		t.Fatalf("dropped after drain = %d, want 3", got)
	}
}

func TestRingShardIsolation(t *testing.T) {
	r := NewRing(4, 2) // 2 slots per shard
	// Fill shard 0; shard 1 must still accept.
	if !r.Push(0, sample("A", 0)) || !r.Push(0, sample("A", 1)) {
		t.Fatal("shard 0 rejected while under capacity")
	}
	if r.Push(0, sample("A", 2)) {
		t.Fatal("shard 0 accepted past its slice of the capacity")
	}
	if !r.Push(1, sample("B", 0)) {
		t.Fatal("shard 1 rejected although empty")
	}
	if got := r.Dropped(); got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
}

// TestRingConcurrent hammers the ring under its SPSC contract — one
// producer goroutine per shard, pushing as fast as it can — while the
// single drainer runs concurrently, verifying the accounting identity
// pushed = drained + dropped and that buffered memory never exceeds
// capacity. Run with -race this also validates the lock-free cursor
// protocol: producer slot writes must be ordered by the tail release, and
// the drainer's slot reads and clears by the head release.
func TestRingConcurrent(t *testing.T) {
	const (
		producers = 4 // one per shard: the single-producer-per-shard contract
		perProd   = 2000
	)
	r := NewRing(64, producers)
	var wg sync.WaitGroup
	var mu sync.Mutex
	accepted := 0
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			for i := 0; i < perProd; i++ {
				if r.Push(p, sample("A", int64(i))) {
					n++
				}
			}
			mu.Lock()
			accepted += n
			mu.Unlock()
		}()
	}
	prodDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(prodDone)
	}()
	drained := 0
	drainerDone := make(chan struct{})
	go func() {
		defer close(drainerDone)
		for {
			if n := r.Len(); n > r.Capacity() {
				t.Errorf("ring over capacity: %d > %d", n, r.Capacity())
			}
			drained += r.Drain(func(Sample) {})
			select {
			case <-prodDone:
				drained += r.Drain(func(Sample) {})
				return
			default:
			}
		}
	}()
	<-drainerDone
	if accepted != drained {
		t.Fatalf("accepted %d != drained %d", accepted, drained)
	}
	if got := int(r.Dropped()) + accepted; got != producers*perProd {
		t.Fatalf("dropped+accepted = %d, want %d", got, producers*perProd)
	}
}

// TestRingReleaseRecyclesZeroedBuffers: a monitor releases its ring after
// the final drain. The released ring stays safe to query and push into
// (a push counts as dropped), and a ring built afterwards, which may reuse
// the released buffers, starts with every slot zero.
func TestRingReleaseRecyclesZeroedBuffers(t *testing.T) {
	r := NewRing(8, 2)
	for i := 0; i < 6; i++ {
		r.Push(i, sample("c", int64(i+1)))
	}
	if got := len(r.DrainInto(nil)); got != 6 {
		t.Fatalf("drained %d samples, want 6", got)
	}
	r.release()
	if r.Capacity() != 8 || r.Len() != 0 {
		t.Fatalf("released ring: capacity %d, len %d; want 8, 0", r.Capacity(), r.Len())
	}
	if r.Push(0, Sample{TimeUS: 9}) || r.Dropped() != 1 {
		t.Fatalf("push into a released ring: dropped = %d, want the push counted as 1 drop", r.Dropped())
	}
	if got := r.PushBatch(make([]Sample, 3)); got != 0 || r.Dropped() != 4 {
		t.Fatalf("batch into a released ring: accepted %d, dropped = %d; want 0 and 4", got, r.Dropped())
	}
	if got := r.fold(NewAggregator(0)); got != 0 {
		t.Fatalf("fold of a released ring moved %d samples", got)
	}
	assertZeroRing(t, NewRing(8, 2))

	// Released buffers outlive garbage collections, which a sync.Pool's do
	// not: the next ring of the same shape reuses them.
	r = NewRing(8, 2)
	released := map[*Sample]bool{}
	for i := range r.shards {
		released[&r.shards[i].buf[0]] = true
	}
	r.release()
	runtime.GC()
	runtime.GC()
	r = NewRing(8, 2)
	for i := range r.shards {
		if !released[&r.shards[i].buf[0]] {
			t.Fatalf("shard %d got a new buffer after two GCs; the released ones were dropped", i)
		}
	}
	assertZeroRing(t, r)
	r.release()

	// Monitors of concurrent runs trade buffers through the free list:
	// every ring still starts zeroed.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r := NewRing(8, 2)
				assertZeroRing(t, r)
				for k := 0; k < 8; k++ {
					r.Push(k, sample("c", int64(k+1)))
				}
				r.DrainInto(nil)
				r.release()
			}
		}()
	}
	wg.Wait()
}

// assertZeroRing fails unless every slot of every shard of r is zero.
func assertZeroRing(t *testing.T, r *Ring) {
	t.Helper()
	for i := range r.shards {
		for j, s := range r.shards[i].buf {
			if s != (Sample{}) {
				t.Errorf("new ring shard %d slot %d = %+v, want zero", i, j, s)
				return
			}
		}
	}
}

// TestFoldMatchesDrainAndAdd: the pump's in-place fold hands the aggregator
// the same samples in the same order as draining them out and adding each,
// also when a shard's buffered run wraps past the end of its buffer, and
// leaves every slot it read zero.
func TestFoldMatchesDrainAndAdd(t *testing.T) {
	folded, drained := NewRing(12, 3), NewRing(12, 3)
	inPlace, byValue := NewAggregator(0), NewAggregator(0)
	names := []string{"A", "B", "C", "D", "E"}
	tick := 0
	for round := 0; round < 7; round++ {
		// Uneven rounds move every shard's head around its buffer.
		for k := 0; k <= round%3; k++ {
			tick++
			batch := make([]Sample, len(names))
			for i, name := range names {
				batch[i] = mkSample(name, int64(tick*1000), uint64(tick*(i+1)), uint64(tick), int64(tick*i*3), (tick+i)%4)
			}
			folded.PushBatch(batch)
			drained.PushBatch(batch)
		}
		n := folded.fold(inPlace)
		out := drained.DrainInto(nil)
		if n != len(out) {
			t.Fatalf("round %d: fold moved %d samples, drain %d", round, n, len(out))
		}
		for _, s := range out {
			byValue.Add(s)
		}
		end := int64(tick*1000 + 500)
		got, want := inPlace.Flush(end), byValue.Flush(end)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d windows, want %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d window %d:\n got %+v\nwant %+v", round, i, got[i], want[i])
			}
		}
		for i := range folded.shards {
			for j, s := range folded.shards[i].buf {
				if s != (Sample{}) {
					t.Fatalf("round %d: shard %d slot %d holds %+v after the fold", round, i, j, s)
				}
			}
		}
	}
	if folded.Dropped() != drained.Dropped() {
		t.Fatalf("dropped %d vs %d", folded.Dropped(), drained.Dropped())
	}
}
