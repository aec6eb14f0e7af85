package sim

import (
	"testing"
	"testing/quick"
)

func TestQueueFIFO(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, "q", 0)
	var got []int
	k.Spawn("prod", func(p *Proc) {
		for i := 0; i < 100; i++ {
			q.Put(p, i)
		}
	})
	k.Spawn("cons", func(p *Proc) {
		for i := 0; i < 100; i++ {
			v, ok := q.Get(p)
			if !ok {
				t.Error("unexpected closed queue")
			}
			got = append(got, v)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: got[%d]=%d", i, v)
		}
	}
}

func TestQueueBoundedBlocksProducer(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, "q", 2)
	var putDone Time = -1
	k.Spawn("prod", func(p *Proc) {
		q.Put(p, 1)
		q.Put(p, 2)
		q.Put(p, 3) // must block until consumer drains one
		putDone = p.Now()
	})
	k.SpawnAt(100, "cons", func(p *Proc) {
		q.Get(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if putDone < 100 {
		t.Errorf("third Put completed at %d, want >= 100 (after consumer)", putDone)
	}
}

func TestQueueGetBlocksUntilPut(t *testing.T) {
	k := NewKernel()
	q := NewQueue[string](k, "q", 0)
	var gotAt Time
	k.Spawn("cons", func(p *Proc) {
		v, _ := q.Get(p)
		if v != "x" {
			t.Errorf("got %q", v)
		}
		gotAt = p.Now()
	})
	k.SpawnAt(55, "prod", func(p *Proc) { q.Put(p, "x") })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if gotAt != 55 {
		t.Errorf("Get returned at %d, want 55", gotAt)
	}
}

func TestQueueTryOps(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, "q", 1)
	if _, ok := q.TryGet(); ok {
		t.Error("TryGet on empty queue succeeded")
	}
	if !q.TryPut(7) {
		t.Error("TryPut on empty bounded queue failed")
	}
	if q.TryPut(8) {
		t.Error("TryPut on full queue succeeded")
	}
	v, ok := q.TryGet()
	if !ok || v != 7 {
		t.Errorf("TryGet = %d,%v want 7,true", v, ok)
	}
}

func TestQueueCloseDrains(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, "q", 0)
	var got []int
	var sawClose bool
	k.Spawn("prod", func(p *Proc) {
		q.Put(p, 1)
		q.Put(p, 2)
		q.Close()
	})
	k.Spawn("cons", func(p *Proc) {
		for {
			v, ok := q.Get(p)
			if !ok {
				sawClose = true
				return
			}
			got = append(got, v)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !sawClose || len(got) != 2 {
		t.Errorf("got %v, sawClose=%v", got, sawClose)
	}
}

func TestQueueCloseWakesBlockedGetter(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, "q", 0)
	k.Spawn("cons", func(p *Proc) {
		if _, ok := q.Get(p); ok {
			t.Error("Get returned ok on closed empty queue")
		}
	})
	k.SpawnAt(10, "closer", func(p *Proc) { q.Close() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestQueuePutOnClosedPanics(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, "q", 0)
	q.Close()
	k.Spawn("prod", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Put on closed queue did not panic")
			}
		}()
		q.Put(p, 1)
	})
	func() {
		defer func() { recover() }()
		_ = k.Run()
	}()
}

func TestQueueStats(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, "q", 0)
	k.Spawn("p", func(p *Proc) {
		q.Put(p, 1)
		q.Put(p, 2)
		q.Put(p, 3)
		q.Get(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	puts, gets, depth := q.Stats()
	if puts != 3 || gets != 1 || depth != 3 {
		t.Errorf("stats = %d,%d,%d want 3,1,3", puts, gets, depth)
	}
}

func TestQueueNegativeCapacityPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Error("negative capacity did not panic")
		}
	}()
	NewQueue[int](k, "q", -1)
}

func TestSemaphoreMutualExclusion(t *testing.T) {
	k := NewKernel()
	sem := NewSemaphore(k, "mutex", 1)
	inside := 0
	maxInside := 0
	for i := 0; i < 4; i++ {
		k.Spawn("worker", func(p *Proc) {
			for j := 0; j < 5; j++ {
				sem.Wait(p)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				p.Advance(10)
				inside--
				sem.Signal()
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Errorf("max concurrent holders = %d, want 1", maxInside)
	}
}

func TestSemaphoreCounting(t *testing.T) {
	k := NewKernel()
	sem := NewSemaphore(k, "s", 2)
	if !sem.TryWait() || !sem.TryWait() {
		t.Fatal("TryWait failed with positive count")
	}
	if sem.TryWait() {
		t.Fatal("TryWait succeeded at zero")
	}
	sem.Signal()
	if sem.Count() != 1 {
		t.Errorf("count = %d, want 1", sem.Count())
	}
}

func TestSemaphoreNegativePanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Error("negative initial count did not panic")
		}
	}()
	NewSemaphore(k, "s", -1)
}

// gate is a Blocker that holds until opened.
type gate struct{ open bool }

func (g *gate) Blocked(int64) bool { return !g.open }

func TestSignalBroadcast(t *testing.T) {
	k := NewKernel()
	sig := NewSignal(k, "go")
	var g gate
	woke := 0
	for i := 0; i < 3; i++ {
		k.Spawn("waiter", func(p *Proc) {
			sig.AwaitWhile(p, &g, 0)
			woke++
		})
	}
	k.SpawnAt(10, "firer", func(p *Proc) { g.open = true; sig.Fire() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 3 {
		t.Errorf("woke = %d, want 3", woke)
	}
}

func TestResourceSerializesUse(t *testing.T) {
	k := NewKernel()
	bus := NewResource(k, "bus", 1)
	var done []Time
	for i := 0; i < 3; i++ {
		k.Spawn("u", func(p *Proc) {
			bus.Use(p, 100)
			done = append(done, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// With one slot, completions are serialized: 100, 200, 300.
	want := []Time{100, 200, 300}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completions %v, want %v", done, want)
		}
	}
	busy, uses := bus.Stats()
	if busy != 300 || uses != 3 {
		t.Errorf("stats = %v,%d want 300,3", busy, uses)
	}
}

func TestResourceParallelSlots(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "dma", 2)
	var done []Time
	for i := 0; i < 4; i++ {
		k.Spawn("u", func(p *Proc) {
			r.Use(p, 100)
			done = append(done, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Two at a time: finish at 100,100,200,200.
	want := []Time{100, 100, 200, 200}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completions %v, want %v", done, want)
		}
	}
}

func TestResourceZeroSlotsPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Error("zero slots did not panic")
		}
	}()
	NewResource(k, "r", 0)
}

func TestClockLocalTime(t *testing.T) {
	k := NewKernel()
	c := NewClock(k, 1_000_000, 500) // 1 MHz, offset 500 ticks
	if c.Ticks() != 500 {
		t.Errorf("initial ticks = %d, want 500", c.Ticks())
	}
	k.At(3*Millisecond, func() {
		// 3 ms at 1 MHz = 3000 ticks.
		if c.Ticks() != 3500 {
			t.Errorf("ticks = %d, want 3500", c.Ticks())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if c.ToDuration(1000) != Millisecond {
		t.Errorf("ToDuration(1000) = %v, want 1ms", c.ToDuration(1000))
	}
}

func TestClockBadRatePanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Error("zero hz did not panic")
		}
	}()
	NewClock(k, 0, 0)
}

// Property: for any sequence of puts, a queue delivers exactly that sequence.
func TestQueuePreservesSequenceProperty(t *testing.T) {
	f := func(vals []int16, capSeed uint8) bool {
		if len(vals) > 200 {
			vals = vals[:200]
		}
		capacity := int(capSeed % 8) // 0..7, 0 = unbounded
		k := NewKernel()
		q := NewQueue[int16](k, "q", capacity)
		var got []int16
		k.Spawn("prod", func(p *Proc) {
			for _, v := range vals {
				q.Put(p, v)
			}
			q.Close()
		})
		k.Spawn("cons", func(p *Proc) {
			for {
				v, ok := q.Get(p)
				if !ok {
					return
				}
				got = append(got, v)
			}
		})
		if err := k.Run(); err != nil {
			return false
		}
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: semaphore never admits more holders than its initial count.
func TestSemaphoreBoundProperty(t *testing.T) {
	f := func(slotSeed, workerSeed uint8) bool {
		slots := 1 + int(slotSeed%4)
		workers := 1 + int(workerSeed%8)
		k := NewKernel()
		sem := NewSemaphore(k, "s", slots)
		inside, maxInside := 0, 0
		for i := 0; i < workers; i++ {
			k.Spawn("w", func(p *Proc) {
				for j := 0; j < 3; j++ {
					sem.Wait(p)
					inside++
					if inside > maxInside {
						maxInside = inside
					}
					p.Advance(7)
					inside--
					sem.Signal()
				}
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		return maxInside <= slots
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
